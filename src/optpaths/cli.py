"""Command line front end: gen, solve, verify, compare, bench.

Exit codes: 0 success, 1 usage error, 2 verification or agreement failure.
Wall times are reported in milliseconds and are never part of any
correctness contract; the raw counters are.  No command picks a lane:
``run_pipeline`` runs the compiled one whenever it can and the reference
one otherwise, and both print the same rows and write the same results.

CSV schema (one header row, fixed column order, ratios recomputed from the
raw counters at emit time):

    instance,algorithm,rows,cols,n,arcs,directed,seed,hda_ms,classify_ms,
    schedule_ms,big_loops,node_scans,improvements,origins,snoa,ooa,onoa,
    lambda,regular_way,wrong_way
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

from .generators import (GridSpec, gen_grid, gen_random_graph, grid_comments,
                         shape_sweep_specs)
from .graph import (Graph, GraphError, InstanceFormatError, min_plus_algebra,
                    read_instance_file, read_text)
from .oracles import verify_export
from .partition import UNREACHED, export_results_file
from .pipeline import ALGORITHMS, InvariantViolation, PipelineResult, run_pipeline

CSV_COLUMNS = [
    "instance", "algorithm", "rows", "cols", "n", "arcs", "directed", "seed",
    "hda_ms", "classify_ms", "schedule_ms", "big_loops", "node_scans",
    "improvements", "origins", "snoa", "ooa", "onoa", "lambda",
    "regular_way", "wrong_way",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


@dataclass
class BenchRecord:
    """One benchmark row; ratios are derived from the counters on emit."""

    instance: str
    algorithm: str
    n: int
    arcs: int
    directed: bool
    rows: Optional[int] = None
    cols: Optional[int] = None
    seed: Optional[int] = None
    hda_ms: float = 0.0
    classify_ms: float = 0.0
    schedule_ms: float = 0.0
    big_loops: int = 0
    node_scans: int = 0
    improvements: int = 0
    origins: int = 0
    regular_way: int = 0
    wrong_way: int = 0

    def ratios(self) -> tuple[float, float, float]:
        e = self.arcs or 1
        return (self.node_scans / e, self.origins / e, self.improvements / e)

    def csv_row(self) -> str:
        snoa, ooa, onoa = self.ratios()
        vals = [
            self.instance, self.algorithm,
            "" if self.rows is None else self.rows,
            "" if self.cols is None else self.cols,
            self.n, self.arcs, int(self.directed),
            "" if self.seed is None else self.seed,
            f"{self.hda_ms:.3f}", f"{self.classify_ms:.3f}",
            f"{self.schedule_ms:.3f}",
            self.big_loops, self.node_scans, self.improvements, self.origins,
            repr(snoa), repr(ooa), repr(onoa), repr(snoa),
            self.regular_way, self.wrong_way,
        ]
        return ",".join(str(v) for v in vals)

    def text_block(self) -> str:
        snoa, ooa, onoa = self.ratios()
        return (
            f"{self.algorithm}: BL={self.big_loops} scans={self.node_scans} "
            f"improved={self.improvements} origins={self.origins} "
            f"snoa={snoa:.4f} ooa={ooa:.4f} onoa={onoa:.4f} "
            f"regular={self.regular_way} wrong={self.wrong_way} "
            f"hda={self.hda_ms:.1f}ms classify={self.classify_ms:.1f}ms "
            f"schedule={self.schedule_ms:.1f}ms"
        )


def record_from_result(instance: str, g: Graph, res: PipelineResult,
                       rows=None, cols=None, seed=None) -> BenchRecord:
    rec = BenchRecord(
        instance=instance, algorithm=res.algo, n=g.n, arcs=g.E,
        directed=g.directed, rows=rows, cols=cols, seed=seed,
        hda_ms=res.hda_report.wall_time_ms, classify_ms=res.classify_ms,
        origins=res.origins,
    )
    rep = res.opt_report
    if rep is not None:  # hda alone has no optimizer report
        rec.schedule_ms = rep.wall_time_ms
        rec.big_loops = rep.big_loops
        rec.node_scans = rep.node_scans
        rec.improvements = rep.improvements
        rec.regular_way = rep.regular_way
        rec.wrong_way = rep.wrong_way
    return rec


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}")
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
    gg.add_argument("--rows", type=int, required=True)
    gg.add_argument("--cols", type=int, required=True)
    gg.add_argument("--wmin", type=int, default=1)
    gg.add_argument("--wmax", type=int, default=10)
    gg.add_argument("--seed", type=int, default=0)
    gg.add_argument("--hzp", action="store_true",
                    help="plant the serpentine zero path")
    gg.add_argument("--out", default="-")
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--arcs", type=int, required=True)
    gr.add_argument("--wmin", type=int, default=0)
    gr.add_argument("--wmax", type=int, default=10)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--directed", action="store_true")
    gr.add_argument("--out", default="-")

    s = sub.add_parser("solve", help="run one pipeline on an instance")
    s.add_argument("--instance", required=True)
    s.add_argument("--algo", required=True, choices=ALGORITHMS + ("multi",))
    s.add_argument("--source", type=int, default=1)
    s.add_argument("--sources", type=_int_list,
                   help="comma-separated source ids (multi)")
    s.add_argument("--scheduler", choices=["hrp", "fr", "ht"], default="ht",
                   help="scheduler used by --algo multi")
    s.add_argument("--out", help="write per-node results here")
    s.add_argument("--csv", help="append one CSV row here ('-' for stdout)")
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
    c.add_argument("--source", type=int, default=1)
    c.add_argument("--format", choices=["csv", "text"], default="text")
    c.add_argument("--out", default="-")

    b = sub.add_parser("bench", help="shape sweep over constant-node grids")
    b.add_argument("--n-total", type=int, required=True)
    b.add_argument("--kc", type=_int_list, required=True,
                   help="comma-separated column counts (must divide n-total)")
    b.add_argument("--algos", type=lambda t: t.replace(",", " ").split(),
                   default=["eom", "ht"])
    b.add_argument("--seed", type=int, default=7)
    b.add_argument("--out", default="-")
    return p


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def cmd_gen(args) -> int:
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
    out, close = _open_out(args.out)
    try:
        from .graph import write_instance
        write_instance(g, out, comments)
    finally:
        if close:
            out.close()
    return EXIT_OK


def cmd_solve(args) -> int:
    g, _ = read_instance_file(args.instance)
    multi = args.algo == "multi"
    sources = (args.sources or [args.source]) if multi else [args.source]
    res = run_pipeline(g, sources, args.scheduler if multi else args.algo,
                       debug_invariants=args.debug_invariants)
    if multi:
        res.algo = "multi"
    if args.out:
        export_results_file(res.state, res.regions, args.out)
    rec = record_from_result(args.instance, g, res)
    if args.csv:
        out, close = _open_out(args.csv)
        try:
            out.write(",".join(CSV_COLUMNS) + "\n")
            out.write(rec.csv_row() + "\n")
        finally:
            if close:
                out.close()
    if args.format == "text":
        print(rec.text_block())
    else:
        print(",".join(CSV_COLUMNS))
        print(rec.csv_row())
    return EXIT_OK


def _parse_results(path: str, n: int):
    """Read an export: region, parent, cost (None = unreached) and tags.

    Every row has 4 columns, or every row has 5 (the tag column); tags is
    None for a 4-column file.
    """
    region = [0] * (n + 1)
    parent = [0] * (n + 1)
    cost: list[Optional[int]] = [None] * (n + 1)
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
        try:
            v, reg, par = int(parts[0]), int(parts[1]), int(parts[2])
            c = None if parts[3] == UNREACHED else int(parts[3])
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
    missing = [v for v in range(1, n + 1) if not seen[v]]
    if missing:
        raise InstanceFormatError(f"results missing node(s) {missing[:5]}")
    return region, parent, cost, tags if width == 5 else None


def cmd_verify(args) -> int:
    g, _ = read_instance_file(args.instance)
    region, parent, cost, tags = _parse_results(args.results, g.n)
    rep = verify_export(g, region, parent, cost, min_plus_algebra(),
                        fixpoint=args.fixpoint, tags=tags)
    print(rep.summary())
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_compare(args) -> int:
    g, _ = read_instance_file(args.instance)
    algos = ["eom", "eom2", "hrp", "fr", "ht"]
    records = []
    costs = {}
    for algo in algos:
        res = run_pipeline(g, [args.source], algo)
        records.append(record_from_result(args.instance, g, res))
        costs[algo] = res.state.cost
    base = costs[algos[0]]
    agree = all(costs[a] == base for a in algos[1:])
    out, close = _open_out(args.out)
    try:
        if args.format == "csv":
            out.write(",".join(CSV_COLUMNS) + "\n")
            for rec in records:
                out.write(rec.csv_row() + "\n")
        else:
            for rec in records:
                out.write(rec.text_block() + "\n")
        out.write(("all agree" if agree else "DISAGREEMENT between optimizers")
                  + "\n")
    finally:
        if close:
            out.close()
    return EXIT_OK if agree else EXIT_VERIFY


def cmd_bench(args) -> int:
    specs = shape_sweep_specs(args.n_total, args.kc, seed=args.seed)
    out, close = _open_out(args.out)
    try:
        out.write(",".join(CSV_COLUMNS) + "\n")
        for spec in specs:
            g, source, _ = gen_grid(spec)
            name = f"grid-{spec.k_r}x{spec.k_c}-hzp"
            for algo in args.algos:
                res = run_pipeline(g, [source], algo)
                rec = record_from_result(name, g, res, rows=spec.k_r,
                                         cols=spec.k_c, seed=spec.seed)
                out.write(rec.csv_row() + "\n")
    finally:
        if close:
            out.close()
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
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
        return handlers[args.command](args)
    except (GraphError, InstanceFormatError, OSError) as exc:
        print(f"optpaths: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"optpaths: invariant violation: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
