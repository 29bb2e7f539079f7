"""Command line front end: gen, solve, verify, compare, bench.

Exit codes: 0 success, 1 usage error, 2 verification or agreement failure.
Wall times are reported in milliseconds and are never part of any
correctness contract; the raw counters are.  No command picks a lane:
``run_pipeline`` runs the compiled one whenever it can and the reference
one otherwise, and both print the same rows and write the same results.
Every ``--out`` file is written through :func:`optpaths.graph.open_output`,
so a failed command leaves an earlier file in place; ``gen``, ``compare``
and ``bench`` take ``-`` for stdout.

CSV schema (one header row, fixed column order, ratios recomputed from the
raw counters at emit time):

    instance,algorithm,rows,cols,n,arcs,directed,seed,hda_ms,classify_ms,
    schedule_ms,big_loops,node_scans,improvements,origins,snoa,ooa,onoa,
    lambda,regular_way,wrong_way
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING, Optional

from . import fastlane
from .graph import (_INT, Graph, GraphError, InstanceFormatError,
                    open_output, read_instance_file, read_text,
                    write_instance)
from .partition import UNREACHED, OptReport, export_results_file
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
_NO_OPT = OptReport(0, 0, 0, 0, 0, 0, 0.0)


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
        f"{res.hda_report.wall_time_ms:.3f}", f"{res.classify_ms:.3f}",
        f"{rep.wall_time_ms:.3f}",
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
        f"hda={res.hda_report.wall_time_ms:.1f}ms "
        f"classify={res.classify_ms:.1f}ms schedule={rep.wall_time_ms:.1f}ms"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _algo_list(text: str) -> list[str]:
    algos = text.replace(",", " ").split()
    if not algos:
        raise argparse.ArgumentTypeError("expected at least one algorithm")
    unknown = [a for a in algos if a not in ALGORITHMS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {unknown[0]!r}; pick one of {ALGORITHMS}")
    return algos


def _int(text: str) -> int:
    """An integer option in the instance grammar, ASCII ``[+-]?[0-9]+``.

    Bare ``int()`` would also take ``1_0`` and non-ASCII digits.
    """
    if not _INT.match(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    values = [_int(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="optpaths",
                description="Single-source optimal-paths engine and benchmark harness")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    g = sub.add_parser("gen", help="generate an instance file")
    gsub = g.add_subparsers(dest="kind", required=True,
                            parser_class=_Parser)
    gg = gsub.add_parser("grid")
    gg.add_argument("--rows", type=_int, required=True)
    gg.add_argument("--cols", type=_int, required=True)
    gg.add_argument("--wmin", type=_int, default=1)
    gg.add_argument("--wmax", type=_int, default=10)
    gg.add_argument("--seed", type=_int, default=0)
    gg.add_argument("--hzp", action="store_true",
                    help="plant the serpentine zero path")
    gg.add_argument("--out", default="-")
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=_int, required=True)
    gr.add_argument("--arcs", type=_int, required=True)
    gr.add_argument("--wmin", type=_int, default=0)
    gr.add_argument("--wmax", type=_int, default=10)
    gr.add_argument("--seed", type=_int, default=0)
    gr.add_argument("--directed", action="store_true")
    gr.add_argument("--out", default="-")

    s = sub.add_parser("solve", help="run one pipeline on an instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--algo", required=True, choices=ALGORITHMS + ("multi",))
    s.add_argument("--sources", "--source", type=_int_list, default=[1],
                   help="comma-separated source ids (default 1)")
    s.add_argument("--out", help="write per-node results here")
    s.add_argument("--format", choices=["csv", "text"], default="text")
    s.add_argument("--debug-invariants", action="store_true")

    v = sub.add_parser("verify", help="audit a result export against its instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--results", required=True)
    v.add_argument("--fixpoint", action="store_true",
                   help="also require the no-improving-arc condition")

    c = sub.add_parser("compare",
                       help="run all five optimizers and compare them")
    c.add_argument("--instance", required=True)
    c.add_argument("--sources", "--source", type=_int_list, default=[1],
                   help="comma-separated source ids (default 1)")
    c.add_argument("--format", choices=["csv", "text"], default="text")
    c.add_argument("--out", default="-")

    b = sub.add_parser("bench", help="shape sweep over constant-node grids")
    b.add_argument("--n-total", type=_int, required=True)
    b.add_argument("--kc", type=_int_list, required=True,
                   help="comma-separated column counts (must divide n-total)")
    b.add_argument("--algos", type=_algo_list, default=["eom", "ht"])
    b.add_argument("--seed", type=_int, default=7)
    b.add_argument("--out", default="-")
    return p


def _open_out(path: str):
    """``open_output(path)``, or stdout for ``-``."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open_output(path)


def cmd_gen(args) -> int:
    from .generators import (GridSpec, gen_grid, gen_random_graph,
                             grid_comments)
    if args.kind == "grid":
        spec = GridSpec(k_r=args.rows, k_c=args.cols, weight_min=args.wmin,
                        weight_max=args.wmax, seed=args.seed,
                        plant_hzp=args.hzp)
        g, _, plan = gen_grid(spec)
        comments = grid_comments(spec, plan)
    else:
        g = gen_random_graph(args.n, args.arcs, args.wmin, args.wmax,
                             args.seed, directed=args.directed)
        comments = [
            f"random n={args.n} arcs={args.arcs} wmin={args.wmin} "
            f"wmax={args.wmax} seed={args.seed} directed={int(args.directed)}"
        ]
    with _open_out(args.out) as out:
        write_instance(g, out, comments)
    return EXIT_OK


def cmd_solve(args) -> int:
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


def _parse_results(path: str, n: int):
    """Read an export: region, parent, cost, has_cost and tags per node.

    ``cost`` and ``has_cost`` are 0 where a row says UNREACHED.  Every row
    has 4 columns, or every row has 5 (the tag column); tags is None for a
    4-column file.  The compiled reader reads the file into int64 arrays
    when it can; any file it refuses goes to the reference reader,
    :func:`_scan_results`, which gives the same lists or names the fault.
    """
    with open(path, "rb") as fh:
        rows = fastlane.read_results(fh.read(), n)
    return rows if rows is not None else _scan_results(path, n)


def _scan_results(path: str, n: int):
    """The reference reader of :func:`_parse_results`; the first fault
    raises an InstanceFormatError naming its line."""
    region = [0] * (n + 1)
    parent = [0] * (n + 1)
    cost = [0] * (n + 1)
    has_cost = [0] * (n + 1)
    tags = [0] * (n + 1)
    seen = [False] * (n + 1)
    width = None
    with open(path, encoding="utf-8") as fh:
        text = read_text(fh)
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (4, 5):
            raise InstanceFormatError(
                f"line {lineno}: expected '<id> <region> <parent> <cost> [tag]'")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise InstanceFormatError(
                f"line {lineno}: {len(parts)} columns where earlier rows "
                f"have {width}")
        # int() also takes '_' and non-ASCII digits; on other tokens it takes
        # exactly graph._INT's [+-]?[0-9]+, for less than a regex per field
        if not line.isascii() or "_" in line:
            raise InstanceFormatError(f"line {lineno}: non-integer field")
        try:
            v, reg, par = int(parts[0]), int(parts[1]), int(parts[2])
            c = 0 if parts[3] == UNREACHED else int(parts[3])
            tag = int(parts[4]) if width == 5 else 0
        except ValueError:
            raise InstanceFormatError(f"line {lineno}: non-integer field") from None
        if not 1 <= v <= n or seen[v]:
            raise InstanceFormatError(
                f"line {lineno}: bad or duplicate node id {v}")
        if not 0 <= par <= n:
            raise InstanceFormatError(
                f"line {lineno}: parent {par} out of range 0..{n}")
        seen[v] = True
        region[v], parent[v], cost[v], tags[v] = reg, par, c, tag
        has_cost[v] = int(parts[3] != UNREACHED)
    missing = [v for v in range(1, n + 1) if not seen[v]]
    if missing:
        raise InstanceFormatError(f"results missing node(s) {missing[:5]}")
    return region, parent, cost, has_cost, tags if width == 5 else None


def cmd_verify(args) -> int:
    from .oracles import verify_export
    g, _ = read_instance_file(args.instance)
    region, parent, cost, has_cost, tags = _parse_results(args.results, g.n)
    rep = verify_export(g, region, parent, cost, has_cost,
                        fixpoint=args.fixpoint, tags=tags)
    print(rep.summary())
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_compare(args) -> int:
    g, _ = read_instance_file(args.instance)
    algos = ["eom", "eom2", "hrp", "fr", "ht"]
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
        out.write("\n".join(lines) + "\n")
    return EXIT_OK if agree else EXIT_VERIFY


def cmd_bench(args) -> int:
    from .generators import gen_grid, shape_sweep_specs
    specs = shape_sweep_specs(args.n_total, args.kc, seed=args.seed)
    with _open_out(args.out) as out:
        out.write(",".join(CSV_COLUMNS) + "\n")
        for spec in specs:
            g, source, _ = gen_grid(spec)
            name = f"grid-{spec.k_r}x{spec.k_c}-hzp"
            for algo in args.algos:
                res = run_pipeline(g, [source], algo)
                out.write(csv_row(name, g, res, spec) + "\n")
    return EXIT_OK


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
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "compare": cmd_compare,
        "bench": cmd_bench,
    }
    try:
        code = handlers[args.command](args)
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
