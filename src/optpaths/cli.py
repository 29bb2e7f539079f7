"""Command line front end: gen, solve, verify, compare, bench.

Exit codes: 0 success, 1 usage error, 2 verification or agreement failure.
Wall times are reported in milliseconds and are never part of any
correctness contract; the raw counters are.  No command picks a lane:
``run_pipeline`` runs the compiled one whenever it can and the reference
one otherwise, and both print the same rows and write the same results.
Every ``--out`` file is written through :func:`optpaths.graph.open_output`,
so a failed command leaves an earlier file in place; ``gen``, ``compare``
and ``bench`` take ``-`` for stdout, whose binary buffer then gets the
same bytes as a file.

One option table, :data:`OPTIONS`, describes every command line.  A line
that the table alone settles -- each option at most once, by its full
string, with a value that passes its check, and every required option
given -- is read by :func:`_read_args`, which imports nothing.  Every other line, help and usage errors included, goes to
the argparse parser built from the same table (:func:`build_parser`), so
help, error messages and exit codes are argparse's; argparse, with the
``gettext`` and ``locale`` modules it imports, loads only then.

CSV schema (one header row, fixed column order, ratios recomputed from the
raw counters at emit time):

    instance,algorithm,rows,cols,n,arcs,directed,seed,hda_ms,classify_ms,
    schedule_ms,big_loops,node_scans,improvements,origins,snoa,ooa,onoa,
    lambda,regular_way,wrong_way
"""

from __future__ import annotations

import contextlib
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .fastlane import block_is_clean
from .graph import (_INT, Graph, GraphError, InstanceFormatError,
                    open_output, parse_header, read_arc_block, read_data,
                    read_instance_file, write_instance)
from .partition import OptReport, export_results_file, read_results_file
from .pipeline import ALGORITHMS, InvariantViolation, PipelineResult, run_pipeline

if TYPE_CHECKING:
    from .generators import GridSpec

CSV_COLUMNS = [
    "instance", "algorithm", "rows", "cols", "n", "arcs", "directed", "seed",
    "hda_ms", "classify_ms", "schedule_ms", "big_loops", "node_scans",
    "improvements", "origins", "snoa", "ooa", "onoa", "lambda",
    "regular_way", "wrong_way",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


def __getattr__(name: str):
    # ``verify_export`` stays a name of this module (perfbench's tracer
    # wraps it here), but ``oracles`` loads only when ``verify`` runs or
    # the name is read
    if name == "verify_export":
        from .oracles import verify_export
        return verify_export
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: the counters of a run without an optimizer (``hda`` alone)
_NO_OPT = OptReport(0, 0, 0, 0, 0, 0)


def _ratios(g: Graph, res: PipelineResult):
    """The optimizer report and the snoa, ooa and onoa ratios over E."""
    rep = res.opt_report or _NO_OPT
    e = g.E or 1
    return rep, rep.node_scans / e, res.origins / e, rep.improvements / e


def csv_row(instance: str, g: Graph, res: PipelineResult,
            spec: Optional[GridSpec] = None) -> str:
    """One CSV row; ``spec`` fills the rows, cols and seed columns."""
    rep, snoa, ooa, onoa = _ratios(g, res)
    rows, cols, seed = (("", "", "") if spec is None
                        else (spec.k_r, spec.k_c, spec.seed))
    vals = [
        instance, res.algo, rows, cols, g.n, g.E, int(g.directed), seed,
        f"{res.hda_ms:.3f}", f"{res.classify_ms:.3f}",
        f"{res.schedule_ms:.3f}",
        rep.big_loops, rep.node_scans, rep.improvements, res.origins,
        snoa, ooa, onoa, snoa, rep.regular_way, rep.wrong_way,
    ]
    return ",".join(str(v) for v in vals)


def text_line(g: Graph, res: PipelineResult) -> str:
    rep, snoa, ooa, onoa = _ratios(g, res)
    return (
        f"{res.algo}: BL={rep.big_loops} scans={rep.node_scans} "
        f"improved={rep.improvements} origins={res.origins} "
        f"snoa={snoa:.4f} ooa={ooa:.4f} onoa={onoa:.4f} "
        f"regular={rep.regular_way} wrong={rep.wrong_way} "
        f"hda={res.hda_ms:.1f}ms "
        f"classify={res.classify_ms:.1f}ms schedule={res.schedule_ms:.1f}ms"
    )


def _algo_list(text: str) -> list[str]:
    algos = text.replace(",", " ").split()
    if not algos:
        raise ValueError("expected at least one algorithm")
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        raise ValueError(
            f"unknown algorithm {unknown[0]!r}; pick one of {ALGORITHMS}")
    return algos


def _int(text: str) -> int:
    """An integer option in the instance grammar, ASCII ``[+-]?[0-9]+``.

    Bare ``int()`` would also take ``1_0`` and non-ASCII digits.
    """
    if not _INT.match(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    values = [_int(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("expected at least one integer")
    return values


_SOURCES = (("--sources", "--source"),
            {"type": _int_list, "default": [1],
             "help": "comma-separated source ids (default 1)"})
_FORMAT = (("--format",), {"choices": ["csv", "text"], "default": "text"})

#: the options of each command line, keyed by its command and, for ``gen``,
#: its kind: option strings and ``add_argument`` keywords.  A ``type``
#: raises ValueError on a bad value, with the message the user sees.
OPTIONS = {
    ("gen", "grid"): [
        (("--rows",), {"type": _int, "required": True}),
        (("--cols",), {"type": _int, "required": True}),
        (("--wmin",), {"type": _int, "default": 1}),
        (("--wmax",), {"type": _int, "default": 10}),
        (("--seed",), {"type": _int, "default": 0}),
        (("--hzp",), {"action": "store_true",
                      "help": "plant the serpentine zero path"}),
        (("--out",), {"default": "-"}),
    ],
    ("gen", "random"): [
        (("--n",), {"type": _int, "required": True}),
        (("--arcs",), {"type": _int, "required": True}),
        (("--wmin",), {"type": _int, "default": 0}),
        (("--wmax",), {"type": _int, "default": 10}),
        (("--seed",), {"type": _int, "default": 0}),
        (("--directed",), {"action": "store_true"}),
        (("--out",), {"default": "-"}),
    ],
    ("solve",): [
        (("--instance",), {"required": True}),
        (("--algo",), {"required": True, "choices": ALGORITHMS + ("multi",)}),
        _SOURCES,
        (("--out",), {"help": "write per-node results here"}),
        _FORMAT,
        (("--debug-invariants",), {"action": "store_true"}),
    ],
    ("verify",): [
        (("--instance",), {"required": True}),
        (("--results",), {"required": True}),
        (("--fixpoint",), {"action": "store_true",
                           "help": "also require the no-improving-arc "
                                   "condition"}),
    ],
    ("compare",): [
        (("--instance",), {"required": True}),
        _SOURCES,
        _FORMAT,
        (("--out",), {"default": "-"}),
    ],
    ("bench",): [
        (("--n-total",), {"type": _int, "required": True}),
        (("--kc",), {"type": _int_list, "required": True,
                     "help": "comma-separated column counts (must divide "
                             "n-total)"}),
        (("--algos",), {"type": _algo_list, "default": ["eom", "ht"]}),
        (("--seed",), {"type": _int, "default": 7}),
        (("--out",), {"default": "-"}),
    ],
}


def _dest(strings) -> str:
    """argparse's attribute name for an option: ``--n-total`` -> ``n_total``."""
    return strings[0][2:].replace("-", "_")


def _read_args(argv: list[str]):
    """The namespace argparse gives for ``argv``, or None where the option
    table alone does not settle it.

    It settles a command (and ``gen`` kind) of :data:`OPTIONS` followed by
    options given by their full strings, each at most once, every value one
    token that does not start with ``-`` (a lone ``-`` aside) and that its
    type and choices accept, with every required option present.  Any other
    line -- help, an error, or a form argparse reads in its own way, such as
    ``--opt=value``, a prefix or a repeat -- gets None.
    """
    key = tuple(argv[:2] if argv[:1] == ["gen"] else argv[:1])
    options = OPTIONS.get(key)
    if options is None:
        return None
    by_string = {s: (_dest(strings), kw)
                 for strings, kw in options for s in strings}
    given = {}
    tokens = iter(argv[len(key):])
    for token in tokens:
        if token not in by_string:
            return None
        dest, kw = by_string[token]
        if dest in given:
            return None
        if "action" in kw:  # a store_true flag
            given[dest] = True
            continue
        text = next(tokens, None)
        if text is None or (text.startswith("-") and text != "-"):
            return None
        try:
            value = kw["type"](text) if "type" in kw else text
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
        given[dest] = value
    values = dict(zip(("command", "kind"), key))
    for strings, kw in options:
        dest = _dest(strings)
        if dest in given:
            values[dest] = given[dest]
        elif kw.get("required"):
            return None
        else:
            values[dest] = kw.get("default", False if "action" in kw else None)
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of :data:`OPTIONS`, for the command lines that
    :func:`_read_args` leaves to it: help, usage errors and the forms only
    argparse reads.  Usage errors exit 1, not argparse's 2."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def checked(convert):
        """``convert`` as an argparse type: a ValueError it raises is a
        usage error with the same message."""
        def parse(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return parse

    def add_options(parser, options):
        for strings, kw in options:
            if "type" in kw:
                kw = dict(kw, type=checked(kw["type"]))
            parser.add_argument(*strings, **kw)

    p = Parser(prog="optpaths",
               description="Single-source optimal-paths engine and benchmark harness")
    sub = p.add_subparsers(dest="command", required=True, parser_class=Parser)
    for command, (help_line, _) in COMMANDS.items():
        cp = sub.add_parser(command, help=help_line)
        if command == "gen":
            kinds = cp.add_subparsers(dest="kind", required=True,
                                      parser_class=Parser)
            for kind in ("grid", "random"):
                add_options(kinds.add_parser(kind), OPTIONS["gen", kind])
        else:
            add_options(cp, OPTIONS[command,])
    return p


def _open_out(path: str):
    """``open_output(path)``, or for ``-`` the binary buffer of stdout,
    once the text written to stdout before is flushed."""
    if path == "-":
        if sys.stdout is None:  # None when started with fd 1 closed
            raise OSError("standard output is closed")
        sys.stdout.flush()
        return contextlib.nullcontext(sys.stdout.buffer)
    return open_output(path)


def cmd_gen(args) -> int:
    from .generators import (GridSpec, grid_columns, grid_comments,
                             random_columns)
    if args.kind == "grid":
        spec = GridSpec(k_r=args.rows, k_c=args.cols, weight_min=args.wmin,
                        weight_max=args.wmax, seed=args.seed,
                        plant_hzp=args.hzp)
        *columns, plan = grid_columns(spec)
        n, directed, comments = spec.n, False, grid_comments(spec, plan)
    else:
        columns = random_columns(args.n, args.arcs, args.wmin, args.wmax,
                                 args.seed)
        n, directed = args.n, args.directed
        comments = [
            f"random n={args.n} arcs={args.arcs} wmin={args.wmin} "
            f"wmax={args.wmax} seed={args.seed} directed={int(args.directed)}"
        ]
    with _open_out(args.out) as out:
        write_instance(n, *columns, directed, out, comments)
    return EXIT_OK


@contextlib.contextmanager
def _reading(path: str):
    """Prefix ``path``, as given, to a fault found in the file it names."""
    try:
        yield
    except (GraphError, InstanceFormatError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_solve(args) -> int:
    with _reading(args.instance):
        g, _ = read_instance_file(args.instance)
    multi = args.algo == "multi"
    res = run_pipeline(g, args.sources, "ht" if multi else args.algo,
                       debug_invariants=args.debug_invariants)
    if multi:
        res.algo = "multi"
    if args.out:
        export_results_file(res.state, res.regions, args.out)
    if args.format == "text":
        print(text_line(g, res))
    else:
        print(",".join(CSV_COLUMNS))
        print(csv_row(args.instance, g, res))
    return EXIT_OK


def cmd_verify(args) -> int:
    """Audit an export, reading each file once: the compiled audit
    certifies a clean export from the instance's arc block, with no graph
    built; any other export gets the reference audit, which names every
    failure, on the graph of the bytes already read."""
    with _reading(args.instance):
        data = read_data(args.instance)
        h = parse_header(data)

    def graph():
        with _reading(args.instance):
            return read_arc_block(data, h)

    try:
        with _reading(args.results):
            region, parent, cost, has_cost, tags = read_results_file(
                args.results, h.n)
    except Exception:
        graph()  # a fault of the instance is named first
        raise
    if block_is_clean(data, h, region, parent, cost, has_cost,
                      args.fixpoint, tags):
        print("OK")
        return EXIT_OK
    from .oracles import verify_export
    rep = verify_export(graph(), region, parent, cost, has_cost,
                        fixpoint=args.fixpoint, tags=tags)
    print(rep.summary())
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_compare(args) -> int:
    with _reading(args.instance):
        g, _ = read_instance_file(args.instance)
    algos = ALGORITHMS[1:]  # every optimizer: all but the partition alone
    as_csv = args.format == "csv"
    lines = [",".join(CSV_COLUMNS)] if as_csv else []
    costs = {}
    for algo in algos:
        res = run_pipeline(g, args.sources, algo)
        lines.append(csv_row(args.instance, g, res) if as_csv
                     else text_line(g, res))
        costs[algo] = res.state.cost
    base = costs[algos[0]]
    agree = all(costs[a] == base for a in algos[1:])
    lines.append("all agree" if agree else "DISAGREEMENT between optimizers")
    with _open_out(args.out) as out:
        # a CSV row's instance column is a path: its bytes go back as given
        out.write(("\n".join(lines) + "\n").encode(errors="surrogateescape"))
    return EXIT_OK if agree else EXIT_VERIFY


def cmd_bench(args) -> int:
    from .generators import gen_grid, shape_sweep_specs
    specs = shape_sweep_specs(args.n_total, args.kc, seed=args.seed)
    with _open_out(args.out) as out:
        out.write((",".join(CSV_COLUMNS) + "\n").encode())
        for spec in specs:
            g, source, _ = gen_grid(spec)
            name = f"grid-{spec.k_r}x{spec.k_c}-hzp"
            for algo in args.algos:
                res = run_pipeline(g, [source], algo)
                out.write((csv_row(name, g, res, spec) + "\n").encode())
    return EXIT_OK


#: each command's help line and handler, in the order help lists them
COMMANDS = {
    "gen": ("generate an instance file", cmd_gen),
    "solve": ("run one pipeline on an instance", cmd_solve),
    "verify": ("audit a result export against its instance", cmd_verify),
    "compare": ("run all five optimizers and compare them", cmd_compare),
    "bench": ("shape sweep over constant-node grids", cmd_bench),
}


def _watched() -> bool:
    """Whether a tracer or profiler (coverage, cProfile) is active; it
    writes its report at exit.  From Python 3.12 cProfile registers as one
    of the six ``sys.monitoring`` tools."""
    mon = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (mon is not None
                and any(mon.get_tool(i) is not None for i in range(6))))


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    With ``argv=None`` (the process's own command line, as the console
    script runs it) the process ends here: stdout and stderr are flushed
    and :func:`os._exit` skips the interpreter's teardown, about 4-10 ms
    of a ``solve``.  atexit handlers registered by other code do not run
    (optpaths registers none).  A stdout that cannot be flushed (a closed
    pipe) prints one error line and exits 1.  With an explicit ``argv``
    list, or under a tracer or profiler, ``main`` returns the code.
    """
    args = _read_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command][1](args)
    except (GraphError, InstanceFormatError, OSError) as exc:
        print(f"optpaths: error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except InvariantViolation as exc:
        print(f"optpaths: invariant violation: {exc}", file=sys.stderr)
        code = EXIT_VERIFY
    if argv is not None or _watched():
        return code
    try:
        if sys.stdout is not None:  # None when started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_USAGE:  # exit 1 has printed its error line already
            print(f"optpaths: error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
