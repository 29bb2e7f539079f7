"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion detail lines).  The shared corpus and the debug-instrumented
per-algorithm runs come from ``conftest.corpus_results``; building that
fixture is itself part of criteria 3 and 5, because every run in it executes
with the big-loop invariant audits enabled and would have raised on any
violation.
"""

import math
import random
import time

import pytest

import optpaths as op
from optpaths import fastlane
from optpaths.cli import CSV_COLUMNS, EXIT_OK, main

OPTIMIZERS = ("eom", "eom2", "hrp", "fr", "ht")


def report(criterion, verdict, detail):
    print(f"CRITERION {criterion}: {verdict} - {detail}")


def test_criterion_01_oracle_equivalence(corpus_results):
    """Every optimizer's final costs equal the label-setting oracle exactly."""
    t0 = time.perf_counter()
    checked = 0
    for name, inst in corpus_results.items():
        expected = inst.dijkstra.dist
        for algo in OPTIMIZERS:
            state = inst.runs[algo].state
            for v in range(1, inst.graph.n + 1):
                got = state.cost[v] if state.labeled(v) else None
                assert got == expected[v], (
                    f"{name}/{algo}: node {v} cost {got} != {expected[v]}")
            checked += 1
    report(1, "PASS", f"{checked} runs over {len(corpus_results)} instances "
                      f"match dijkstra exactly "
                      f"({time.perf_counter() - t0:.1f}s to compare)")


def test_criterion_02_partition_semantics(corpus_results):
    """The partition phase yields the best cost among minimum-hop paths."""
    for name, inst in corpus_results.items():
        state = inst.runs["hda"].state
        expected = inst.minhop
        for v in range(1, inst.graph.n + 1):
            got = state.cost[v] if state.labeled(v) else None
            assert got == expected.dist[v], f"{name}: node {v}"
            assert state.parent[v] == expected.parent[v], f"{name}: node {v}"
    report(2, "PASS", f"partition output equals the min-hop dynamic program "
                      f"on all {len(corpus_results)} instances")


def test_criterion_03_tree_invariant(corpus_results, triangle, algebra):
    """check_tree held at every big loop; a planted 2-cycle is rejected."""
    # corpus_results ran every algorithm with debug audits on; reaching this
    # point means no big-loop tree audit ever failed.  Re-assert the final
    # states and then the adversarial case.
    for name, inst in corpus_results.items():
        for algo in OPTIMIZERS:
            assert op.check_tree(inst.runs[algo].state, inst.graph,
                                 algebra).ok, name
    _, state, _ = op.hda_multi(triangle, [1], algebra)
    state.parent[2], state.cost[2] = 3, 2
    state.parent[3], state.cost[3] = 2, 3
    rep = op.check_tree(state, triangle, algebra)
    assert not rep.ok
    assert any(check == "acyclic" and "cycle" in str(got)
               for check, _, _, got in rep.failures)
    report(3, "PASS", "tree audit clean at every big loop; adversarial "
                      "2-cycle rejected with the cycle named")


def test_criterion_04_zero_weight_termination(corpus_results, algebra):
    """All algorithms halt on zero-heavy inputs; big loops never exceed n."""
    # entirely zero-weighted graphs: complete, cycle, random multigraph
    zero_graphs = []
    k = 8
    zero_graphs.append(op.build_graph(
        k, [(u, v, 0) for u in range(1, k + 1) for v in range(u + 1, k + 1)]))
    zero_graphs.append(op.build_graph(
        9, [(v, v % 9 + 1, 0) for v in range(1, 10)], directed=True))
    rnd = op.gen_random_graph(20, 120, 0, 0, seed=13)
    zero_graphs.append(rnd)
    for g in zero_graphs:
        for algo in OPTIMIZERS:
            res = op.run_pipeline(g, [1], algo, debug_invariants=True)
            assert res.opt_report.big_loops <= g.n
            assert all(c == 0 for v, c in enumerate(res.state.cost)
                       if res.state.labeled(v))
    # BL <= n on every corpus instance (planted zero paths included)
    worst = 0.0
    for name, inst in corpus_results.items():
        for algo in OPTIMIZERS:
            bl = inst.runs[algo].opt_report.big_loops
            assert bl <= inst.graph.n, f"{name}/{algo}: BL {bl}"
            worst = max(worst, bl / inst.graph.n)
    report(4, "PASS", f"halts on all-zero graphs and planted grids; "
                      f"worst BL/n on the corpus = {worst:.3f}")


def test_criterion_05_reachability(corpus_results):
    """Reachability held at every big-loop boundary; reached set never shrank."""
    # the debug hook in corpus_results checked both conditions at every
    # boundary; re-assert the final states here
    for name, inst in corpus_results.items():
        for algo in ("hda",) + OPTIMIZERS:
            run = inst.runs[algo]
            assert op.check_reachability(run.state, run.regions).ok, name
            assert len(run.regions.order) == sum(
                1 for v in range(1, inst.graph.n + 1)
                if run.state.labeled(v))
    report(5, "PASS", "reachability audit clean at every boundary; labeled "
                      "set monotone on every instrumented run")


def test_criterion_06_planted_path_recovery(algebra):
    """50x50 planted zero path: exact recovery by every algorithm."""
    spec = op.GridSpec(k_r=50, k_c=50, weight_min=1, weight_max=10, seed=6,
                       plant_hzp=True)
    g, source, plan = op.gen_grid(spec)
    bl_sched = {}
    for algo in OPTIMIZERS:
        res = op.run_pipeline(g, [source], algo)
        state = res.state
        assert state.cost[plan.terminal] == 0, algo
        # the parent chain from the terminal must be the planted serpentine,
        # reversed
        chain = [plan.terminal]
        while chain[-1] != source:
            chain.append(state.parent[chain[-1]])
            assert len(chain) <= g.n + 1, algo
        assert chain == list(reversed(plan.path)), algo
        bl_sched[algo] = res.opt_report.big_loops
    assert bl_sched["fr"] <= 4 and bl_sched["ht"] <= 4
    report(6, "PASS", f"terminal cost 0 and exact serpentine recovery for "
                      f"all algorithms; big loops: {bl_sched}")


def test_criterion_07_mega_run():
    """1000x1000 grid solved within 60s; node_scans <= E*sqrt(n)."""
    if not fastlane.available():
        pytest.skip("compiled lane unavailable; the 60s ceiling needs it")
    # warm the kernel cache on a tiny instance so compilation time is not
    # billed against the run
    g0, s0, _ = op.gen_grid(op.GridSpec(k_r=4, k_c=4, seed=0))
    assert op.run_pipeline(g0, [s0], "ht").lane == "compiled"

    t0 = time.perf_counter()
    spec = op.GridSpec(k_r=1000, k_c=1000, weight_min=1, weight_max=10,
                       seed=7)
    g, source, _ = op.gen_grid(spec)
    res = op.run_pipeline(g, [source], "ht")
    elapsed = time.perf_counter() - t0
    assert res.lane == "compiled"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    rep = res.opt_report
    bound = g.E * math.sqrt(g.n)
    assert rep.node_scans <= bound, (
        f"node_scans {rep.node_scans} > E*sqrt(n) {bound:.0f}")
    # informational only: the reference measurement on unknown hardware and
    # seeds was snoa 5.35
    report(7, "PASS", f"n={g.n} E={g.E} solved in {elapsed:.2f}s; "
                      f"node_scans={rep.node_scans} "
                      f"(bound {bound:.0f}); "
                      f"snoa={rep.node_scans / g.E:.2f} "
                      f"(reference measurement: 5.35, not gated)")


def test_criterion_08_fixpoint_certificate(corpus_results, triangle, algebra):
    """Fixpoint audit passes on every halted state, fails on the known gap."""
    for name, inst in corpus_results.items():
        for algo in OPTIMIZERS:
            assert op.check_fixpoint(inst.graph, inst.runs[algo].state,
                                     algebra).ok, f"{name}/{algo}"
    # the min-hop tree of the triangle leaves the (3,2) shortcut open
    _, state, _ = op.hda_multi(triangle, [1], algebra)
    rep = op.check_fixpoint(triangle, state, algebra)
    assert not rep.ok
    assert [where for _, where, _, _ in rep.failures] == ["arc (3,2,1)"]
    report(8, "PASS", "all halted states certified; min-hop triangle fails "
                      "exactly at arc (3,2)")


def test_criterion_09_multi_source(algebra):
    """Costs equal the per-source minimum; tags name an achieving source."""
    for i in range(100):
        rng = random.Random(5000 + i)
        n = rng.randint(4, 30)
        directed = rng.random() < 0.5
        arcs = [(rng.randint(1, v - 1), v, rng.randint(0, 10))
                for v in range(2, n + 1)]
        for _ in range(rng.randint(0, 2 * n)):
            u = rng.randint(1, n)
            v = rng.randint(1, n - 1)
            if v >= u:
                v += 1
            arcs.append((u, v, rng.randint(0, 10)))
        g = op.build_graph(n, arcs, directed=directed)
        sources = rng.sample(range(1, n + 1), rng.randint(2, 4))
        kind = rng.choice(op.SCHEDULERS)
        state = op.run_pipeline(g, sources, kind, algebra).state
        tags = state.tags
        per_source = {s: op.dijkstra_oracle(g, s, algebra) for s in sources}
        for v in range(1, n + 1):
            dists = [r.dist[v] for r in per_source.values()
                     if r.dist[v] is not None]
            if not dists:
                assert not state.labeled(v), f"inst {i}: node {v}"
                continue
            best = min(dists)
            assert state.labeled(v), f"inst {i}: node {v}"
            assert state.cost[v] == best, f"inst {i}: node {v}"
            assert per_source[tags[v]].dist[v] == best, f"inst {i}: node {v}"
    report(9, "PASS", "100 multi-source instances: costs equal the "
                      "per-source minimum and tags achieve it")


def test_criterion_10_shape_sweep_bench(tmp_path):
    """The bench sweep emits a complete CSV whose counters are consistent."""
    out = str(tmp_path / "sweep.csv")
    code = main(["bench", "--n-total", "10000",
                 "--kc", "10,20,50,100,200,500,1000", "--out", out])
    assert code == EXIT_OK
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    assert len(rows) == 7 * 2  # two default algorithms per column count
    assert sorted({int(r["cols"]) for r in rows}) == [10, 20, 50, 100, 200,
                                                      500, 1000]
    for r in rows:
        assert int(r["n"]) == 10000
        assert r["algorithm"] in ("eom", "ht")
        assert int(r["regular_way"]) + int(r["wrong_way"]) \
            == int(r["improvements"])
        assert float(r["snoa"]) == int(r["node_scans"]) / int(r["arcs"])
        assert r["lambda"] == r["snoa"]
    report(10, "PASS", f"{len(rows)} rows, all counter identities hold")
