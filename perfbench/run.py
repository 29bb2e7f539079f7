#!/usr/bin/env python3
"""End-to-end benchmark of the optpaths CLI, with a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-ht --seed 1 --seconds 10 --trace 0

``--trace 0`` drives the CLI (``optpaths.cli:main``, the ``optpaths`` entry
point, over ``src/``) as a user does: one child process per command, one
client, the next command only after the last one exits.  It prints the
end-to-end metrics.  ``--trace 1`` runs the same commands in-process with
every layer wrapped in spans (see ``tracer.py``), alternating with untraced
child processes to measure the tracing overhead, and prints the per-layer
metrics.  Every op's output is checked; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans and a full
record of each run go to ``.perfbench_out/``.  See ``README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean
import tracer as tr  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: what the installed ``optpaths`` console script runs
ENTRY = "import sys; from optpaths.cli import main; sys.exit(main())"
SETUP_REPS = 3
MIN_OPS = 3
CHILD_TIMEOUT_S = 120.0
#: no op starts after this many seconds, so a run ends well inside 180 s
LAST_START_S = 110.0


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


# -- child processes -----------------------------------------------------------

def run_cli(argv: list[str], src: Path, work: Path, code: str = ENTRY):
    """Run one CLI command in a child; return (exit code, wall s, RSS MB, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(work / "stdout.txt", "w+") as out, \
            open(work / "stderr.txt", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                                cwd=work, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            sys.stderr.write(err.read()[-2000:])
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read()


def copy_src(dest: Path) -> Path:
    """A private copy of the package without bytecode, so its first run is cold."""
    shutil.copytree(SRC / "optpaths", dest / "optpaths",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


# -- result files --------------------------------------------------------------

def read_results(path: Path) -> dict[int, list[str]]:
    with open(path) as fh:
        return {int(p[0]): p for p in (line.split() for line in fh)}


def cost_of(field: str):
    return None if field == "UNREACHED" else int(field)


TEXT_COUNTERS = {"BL": "big_loops", "scans": "node_scans",
                 "improved": "improvements", "origins": "origins"}


def text_counters(stdout: str) -> dict:
    """Counters of ``solve``'s text line, e.g. ``ht: BL=8 scans=436541 ...``."""
    algo, _, rest = stdout.strip().splitlines()[-1].partition(":")
    fields = dict(re.findall(r"(\w+)=(\S+)", rest))
    return {algo: {name: int(fields[key]) for key, name in TEXT_COUNTERS.items()}}


# -- workloads -----------------------------------------------------------------

class GridHt:
    """``solve --algo ht --out`` on uniform 200x200 grids, weights 1..10."""

    name = "grid-ht"
    ROUTES_TO_FAST = False  # solve takes the compiled lane only with --fast
    ROWS = COLS = 200
    INSTANCES = 4

    def __init__(self, seed: int, work: Path):
        self.seeds = [(seed * self.INSTANCES + j) % 2**32
                      for j in range(self.INSTANCES)]
        self.files = [work / f"grid{j}.txt" for j in range(self.INSTANCES)]
        self.results = [work / f"res{j}.txt" for j in range(self.INSTANCES)]

    def gen_commands(self):
        return [["gen", "grid", "--rows", str(self.ROWS), "--cols",
                 str(self.COLS), "--seed", str(s), "--out", str(f)]
                for s, f in zip(self.seeds, self.files)]

    def op_commands(self, i: int):
        j = i % self.INSTANCES
        return [["solve", "--instance", str(self.files[j]), "--algo", "ht",
                 "--out", str(self.results[j])]]

    def prepare(self, op):
        """References, outside every timed region: E and Dijkstra costs."""
        alg = op.graph.min_plus_algebra()
        self.E, self.ref = [], []
        for f in self.files:
            g, _ = op.graph.read_instance_file(str(f))
            self.E.append(g.E)
            self.ref.append(op.oracles.dijkstra_oracle(g, 1, alg).dist)

    def arcs(self, i: int) -> int:
        return self.E[i % self.INSTANCES]

    def check(self, i: int, outputs: list[str]):
        j = i % self.INSTANCES
        rows = read_results(self.results[j])
        ref = self.ref[j]
        if len(rows) != len(ref) - 1:
            return f"{len(rows)} result rows for {len(ref) - 1} nodes"
        bad = [v for v, p in rows.items() if cost_of(p[3]) != ref[v]]
        return f"cost differs from dijkstra at nodes {bad[:5]}" if bad else None

    def counters(self, outputs: list[str]) -> dict:
        return text_counters(outputs[0])


class ShapeSweep:
    """``bench`` over constant-node planted-zero-path grids, all five optimizers."""

    name = "shape-sweep"
    ROUTES_TO_FAST = True  # bench routes by fastlane.available()
    INSTANCES = 1
    N_TOTAL = 600
    KC = (10, 20, 40, 100, 200)
    ALGOS = ("eom", "eom2", "hrp", "fr", "ht")

    def __init__(self, seed: int, work: Path):
        self.seed = seed % 2**32
        self.csv = work / "sweep.csv"

    def gen_commands(self):
        return []  # bench generates its grids inside the op

    def op_commands(self, i: int):
        return [["bench", "--n-total", str(self.N_TOTAL),
                 "--kc", ",".join(map(str, self.KC)),
                 "--algos", ",".join(self.ALGOS), "--seed", str(self.seed),
                 "--out", str(self.csv)]]

    def prepare(self, op):
        alg = op.graph.min_plus_algebra()
        self.grids = []  # (row name, E, dijkstra costs)
        for spec in op.generators.shape_sweep_specs(self.N_TOTAL, list(self.KC),
                                                    seed=self.seed):
            g, source, _ = op.generators.gen_grid(spec)
            dist = op.oracles.dijkstra_oracle(g, source, alg).dist
            self.grids.append((f"grid-{spec.k_r}x{spec.k_c}-hzp", g.E, dist))

    def arcs(self, i: int) -> int:
        return len(self.ALGOS) * sum(E for _, E, _ in self.grids)

    def _rows(self):
        with open(self.csv) as fh:
            return list(csv.DictReader(fh))

    def check(self, i: int, outputs: list[str]):
        rows = self._rows()
        want = [(name, a, str(self.N_TOTAL), str(E))
                for name, E, _ in self.grids for a in self.ALGOS]
        got = [(r["instance"], r["algorithm"], r["n"], r["arcs"]) for r in rows]
        if got != want:
            return f"sweep CSV has {len(rows)} rows, not the {len(want)} expected"
        return None

    def check_traced(self, results) -> str | None:
        """Each run_pipeline state must hold the Dijkstra optimum."""
        want = [(a, dist) for _, _, dist in self.grids for a in self.ALGOS]
        if len(results) != len(want):
            return f"{len(results)} pipeline runs, expected {len(want)}"
        for res, (algo, dist) in zip(results, want):
            if res.algo != algo or any(res.state.cost[v] != dist[v]
                                       for v in range(1, len(dist))):
                return f"{res.algo} state differs from dijkstra"
        return None

    def counters(self, outputs: list[str]) -> dict:
        out = {a: dict.fromkeys(TEXT_COUNTERS.values(), 0) for a in self.ALGOS}
        for r in self._rows():
            for c in TEXT_COUNTERS.values():
                out[r["algorithm"]][c] += int(r[c])
        return out


class RandMultiVerify:
    """``solve --algo multi`` from 4 sources, then ``verify --fixpoint``, on
    directed random multigraphs (20,000 nodes, 100,000 arcs, weights 0..10)."""

    name = "rand-multi-verify"
    ROUTES_TO_FAST = False  # the multi path has no compiled lane
    N = 20_000
    ARCS = 100_000
    SOURCES = 4
    INSTANCES = 2

    def __init__(self, seed: int, work: Path):
        self.seeds = [(seed * self.INSTANCES + j) % 2**32
                      for j in range(self.INSTANCES)]
        self.files = [work / f"rand{j}.txt" for j in range(self.INSTANCES)]
        self.results = [work / f"res{j}.txt" for j in range(self.INSTANCES)]
        self.sources = [sorted(random.Random(s).sample(range(1, self.N + 1),
                                                       self.SOURCES))
                        for s in self.seeds]

    def gen_commands(self):
        return [["gen", "random", "--n", str(self.N), "--arcs", str(self.ARCS),
                 "--directed", "--seed", str(s), "--out", str(f)]
                for s, f in zip(self.seeds, self.files)]

    def op_commands(self, i: int):
        j = i % self.INSTANCES
        inst, res = str(self.files[j]), str(self.results[j])
        return [["solve", "--instance", inst, "--algo", "multi", "--sources",
                 ",".join(map(str, self.sources[j])), "--out", res],
                ["verify", "--instance", inst, "--results", res, "--fixpoint"]]

    def prepare(self, op):
        alg = op.graph.min_plus_algebra()
        self.E, self.ref = [], []
        for f, sources in zip(self.files, self.sources):
            g, _ = op.graph.read_instance_file(str(f))
            self.E.append(g.E)
            self.ref.append({s: op.oracles.dijkstra_oracle(g, s, alg).dist
                             for s in sources})

    def arcs(self, i: int) -> int:
        return self.E[i % self.INSTANCES]

    def check(self, i: int, outputs: list[str]):
        if outputs[1].strip() != "OK":
            return "verify did not print OK"
        j = i % self.INSTANCES
        per_source = self.ref[j]
        rows = read_results(self.results[j])
        if len(rows) != self.N:
            return f"{len(rows)} result rows for {self.N} nodes"
        for v, p in rows.items():
            cost, tag = cost_of(p[3]), int(p[4])
            dists = [d[v] for d in per_source.values() if d[v] is not None]
            best = min(dists) if dists else None
            if cost != best:
                return f"node {v}: cost {cost}, best over sources {best}"
            if cost is not None and (tag not in per_source
                                     or per_source[tag][v] != cost):
                return f"node {v}: tag {tag} is not a source at cost {cost}"
        return None

    def counters(self, outputs: list[str]) -> dict:
        return text_counters(outputs[0])


WORKLOADS = {w.name: w for w in (GridHt, ShapeSweep, RandMultiVerify)}


# -- one op, out of process or traced in-process ---------------------------------

def run_op(wl, i: int, src: Path, work: Path):
    """Run op ``i`` as child processes; return (problem, wall s, RSS MB, stdouts)."""
    wall, rss, outputs = 0.0, 0.0, []
    for argv in wl.op_commands(i):
        rc, secs, mb, stdout = run_cli(argv, src, work)
        wall += secs
        rss = max(rss, mb)
        outputs.append(stdout)
        if rc != 0:
            return f"{argv[0]} exited {rc}", wall, rss, outputs
    return None, wall, rss, outputs


def run_traced_op(wl, i: int, op, tracer, src: Path, work: Path):
    """Op ``i`` in-process under spans; return (problem, wall s, stdouts)."""
    outputs = []
    gc.collect()
    with tracer.span("op") as root:
        for argv in wl.op_commands(i):
            # start-up plus import is what a child pays before main() runs
            t0 = time.perf_counter()
            rc = run_cli([], src, work, code="import optpaths.cli")[0]
            tracer.add("cli.import", t0, time.perf_counter())
            buf = io.StringIO()
            with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
                try:
                    rc = rc or op.cli.main(argv)
                except Exception as exc:  # a crash is a failed op, not a stop
                    print(f"{argv[0]}: {exc!r}", file=sys.stderr)
                    rc = 1
            outputs.append(buf.getvalue())
            if rc != 0:
                break
    wall = root["end"] - root["start"]
    return (f"{argv[0]} exited {rc}" if rc else None), wall, outputs


def import_optpaths():
    """Import the package from the checkout, the same source the children run."""
    sys.path.insert(0, str(SRC))
    import optpaths.cli
    import optpaths.fastlane
    import optpaths.generators
    import optpaths.graph
    import optpaths.oracles
    return optpaths


# -- the two kinds of run --------------------------------------------------------

def check_op(wl, i: int, problem, outputs, seen: dict):
    """First problem of op ``i``: a failed command, a wrong output, or counters
    that differ from those of an earlier op on the same instance."""
    if problem:
        return problem
    try:
        problem = wl.check(i, outputs)
        if problem is None:
            counts = wl.counters(outputs)
            if seen.setdefault(i % wl.INSTANCES, counts) != counts:
                problem = f"counters changed between runs: {counts}"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problem = f"unreadable output: {exc!r}"
    return problem


def timed_run(wl, work: Path, seconds: float, t_start: float, log: dict):
    """Set up several times, warm up once, then time ops for ``seconds``."""
    problems, setup_s, seen = [], [], {}
    op = None
    for rep in range(SETUP_REPS):
        src = copy_src(work / f"src{rep}")
        t0 = time.perf_counter()
        for argv in wl.gen_commands():
            if run_cli(argv, src, work)[0] != 0:
                raise BenchError(f"optpaths {' '.join(argv[:2])} failed")
        cold = run_op(wl, 0, src, work)
        setup_s.append(time.perf_counter() - t0)
        if op is None:
            op = import_optpaths()
            wl.prepare(op)
        problems.append(check_op(wl, 0, cold[0], cold[3], seen))
    log["fastlane_available"] = op.fastlane.available()
    warm = run_op(wl, 0, src, work)  # fills the page cache before timing
    problems.append(check_op(wl, 0, warm[0], warm[3], seen))

    walls, rss, arcs, failures = [], [], 0, 0
    i = 0
    # whole passes over the instances, so each weighs the same in the median
    while ((sum(walls) < seconds or i < MIN_OPS or i % wl.INSTANCES)
           and time.perf_counter() - t_start < LAST_START_S):
        problem, wall, mb, outputs = run_op(wl, i, src, work)
        problem = check_op(wl, i, problem, outputs, seen)
        if problem:
            failures += 1
            print(f"op {i} failed: {problem}", file=sys.stderr)
        walls.append(wall)
        rss.append(mb)
        arcs += wl.arcs(i)
        i += 1
    for p in filter(None, problems):
        print(f"set-up op failed: {p}", file=sys.stderr)

    log.update(setup_s=setup_s, op_s=walls, rss_mb=rss, counters=seen)
    print(f"op_s.p50 = {statistics.median(walls)} s over {len(walls)} ops")
    print(f"fail_ratio = {failures / len(walls)} ({failures}/{len(walls)})")
    metrics = {
        "op_s.p50": (statistics.median(walls), "s"),
        "arcs_per_s": (arcs / sum(walls), "arcs/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    return not any(problems), len(walls), failures, metrics


def traced_run(wl, work: Path, seconds: float, t_start: float, log: dict):
    """Alternate untraced child ops with traced in-process ops for ``seconds``."""
    src = copy_src(work / "src")
    op = import_optpaths()
    tracer = tr.Tracer(keep=("pipeline.run_pipeline",))
    tr.install(tracer)
    log["fastlane_available"] = op.fastlane.available()

    tracer.op = "gen"
    for argv in wl.gen_commands():
        with contextlib.redirect_stdout(io.StringIO()):
            if op.cli.main(argv) != 0:
                raise BenchError(f"optpaths {' '.join(argv[:2])} failed")
    seen = {}
    warm = run_op(wl, 0, src, work)  # compiles the copy's bytecode
    tracer.op = "ref"
    wl.prepare(op)
    problems = [check_op(wl, 0, warm[0], warm[3], seen)]

    untraced, traced, per_op, failures = [], [], [], 0
    k = 0
    while ((sum(untraced) + sum(traced) < seconds or k < max(2, wl.INSTANCES))
           and time.perf_counter() - t_start < LAST_START_S):
        problem, wall, _, outputs = run_op(wl, k, src, work)
        problem = check_op(wl, k, problem, outputs, seen)
        untraced.append(wall)
        if problem is None:
            tracer.op = k
            tracer.kept.clear()
            problem, wall, outputs = run_traced_op(wl, k, op, tracer, src, work)
            problem = check_op(wl, k, problem, outputs, seen)
            if problem is None and hasattr(wl, "check_traced"):
                problem = wl.check_traced(tracer.kept)
            traced.append(wall)
            spans = [s for s in tracer.spans if s["op"] == k]
            m = tr.layer_metrics(spans)
            m["trace.span_share"] = sum(
                s["end"] - s["start"] for s in spans
                if s["parent"] == spans[0]["id"]) / wall
            per_op.append((k % wl.INSTANCES, m))
            problem = problem or _same_counts(per_op, seen)
        if problem:
            failures += 1
            print(f"op {k} failed: {problem}", file=sys.stderr)
        k += 1
    for p in filter(None, problems):
        print(f"set-up op failed: {p}", file=sys.stderr)

    # per op: the median over each instance's ops, averaged over the instances
    by_key = {}
    for key, m in per_op:
        by_key.setdefault(key, []).append(m)
    metrics = {}
    for name in tr.metric_names() + ["trace.span_share"]:
        values = [statistics.median(m[name] for m in ms)
                  for ms in by_key.values()] or [0]
        metrics[name] = (statistics.fmean(values), _unit(name))
    # instance files are written once, in set-up; shape-sweep generates per op
    gen = tr.layer_metrics([s for s in tracer.spans if s["op"] == "gen"])
    metrics["generators.gen_s"] = (
        metrics["generators.gen_s"][0] + gen["generators.gen_s"], "s")
    ref = tr.layer_metrics([s for s in tracer.spans if s["op"] == "ref"])
    metrics["oracles.dijkstra_oracle_s"] = (  # per op, like the other layers
        ref["oracles.dijkstra_oracle_s"] / wl.INSTANCES, "s")
    op_s, base_s = statistics.median(traced or [0]), statistics.median(untraced)
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.untraced_op_s"] = (base_s, "s")
    metrics["trace.overhead_ratio"] = (op_s / base_s - 1, "ratio")
    metrics["fastlane.available"] = (int(log["fastlane_available"]), "bool")

    OUT.joinpath(f"spans-{wl.name}-seed{log['seed']}.jsonl").write_text(
        "".join(json.dumps(s) + "\n" for s in tracer.spans))
    log["counters"] = {name: v for name, (v, unit) in metrics.items()
                       if unit == "count"}
    return not any(problems), k, failures, metrics


def _same_counts(per_op, cli_counts: dict) -> str | None:
    """The last traced op's counters repeat those of earlier traced ops on the
    same instance and add up to what the CLI printed for it."""
    key, m = per_op[-1]
    counts = {n: v for n, v in m.items() if _unit(n) == "count"}
    for other_key, other in per_op[:-1]:
        if other_key == key and {n: other[n] for n in counts} != counts:
            return "traced counters changed between runs"
    cli = cli_counts[key]
    printed = {c: sum(v[c] for v in cli.values()) for c in TEXT_COUNTERS.values()}
    traced = {c: m[f"monarchy.{c}"] + m.get(f"evolve.{c}", 0)
              for c in TEXT_COUNTERS.values()}
    if traced != printed:
        return f"traced counters {traced} differ from the printed {printed}"
    return None


def _unit(name: str) -> str:
    base = name.split(".")[1] if "." in name else name
    if base.endswith("_s"):
        return "s"
    if base.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


# -- entry point -------------------------------------------------------------------

def environment(wl_name: str) -> dict:
    commit = ""
    if (ROOT / ".git").exists():  # else git would look above the checkout
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "optpaths").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"git_commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": wl_name}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "optpaths" / "cli.py").is_file():
        print(f"perfbench: no optpaths source under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    log = environment(args.workload) | {"seed": args.seed, "trace": args.trace}
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        run = traced_run if args.trace else timed_run
        ok, attempted, failed, metrics = run(wl, work, args.seconds, t_start,
                                             log)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log["lane"] = ("compiled" if wl.ROUTES_TO_FAST and log["fastlane_available"]
                   else "reference")
    print("env " + json.dumps({k: v for k, v in log.items()
                               if k not in ("op_s", "rss_mb", "counters")}))
    print("counters " + json.dumps(log["counters"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    log["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    OUT.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
                 ).write_text(json.dumps(log, indent=1, default=str))
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": log["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
