import functools
import operator
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import GraphError, InvariantViolation, fastlane, oracles
from optpaths.oracles import debug_hook
from optpaths.partition import SCHEDULERS, HdaReport, OptReport

needs_lane = pytest.mark.skipif(not fastlane.available(),
                                reason="no C compiler")


class TestRunPipeline:
    def test_unknown_algorithm(self, triangle):
        with pytest.raises(GraphError, match="unknown algorithm"):
            op.run_pipeline(triangle, [1], "astar")

    @pytest.mark.parametrize("algo", op.ALGORITHMS)
    def test_all_algorithms_run(self, triangle, algo):
        result = op.run_pipeline(triangle, [1], algo)
        assert result.algo == algo
        expected = [0, 10, 1] if algo == "hda" else [0, 2, 1]
        assert list(result.state.cost[1:]) == expected

    def test_scheduler_results_carry_origins(self, triangle):
        result = op.run_pipeline(triangle, [1], "hrp")
        assert result.origins == 1
        assert result.classify_ms >= 0.0 and result.schedule_ms >= 0.0

    def test_hda_result_has_no_opt_report(self, triangle):
        result = op.run_pipeline(triangle, [1], "hda")
        assert result.opt_report is None

    def test_debug_instrumented_run_is_clean(self, triangle):
        for algo in op.ALGORITHMS:
            result = op.run_pipeline(triangle, [1], algo,
                                     debug_invariants=True)
            assert result.state.cost[1] == 0

    def test_custom_algebra_accepted_on_reference_lane(self, triangle):
        # max-min ("widest path") algebra: same seam, different semantics
        widest = op.CostAlgebra(extend=min, better=lambda a, b: a > b,
                                zero=10**9)
        result = op.run_pipeline(triangle, [1], "eom", algebra=widest)
        assert result.state.cost[2] == 10  # direct heavy arc is widest
        assert result.state.cost[3] == 1

    @pytest.mark.parametrize("algo", ("eom", "eom2", "hrp", "fr", "ht"))
    def test_debug_audits_honour_the_algebra(self, algo):
        # bottleneck paths: a path costs its heaviest arc; the tree audit
        # must check cost consistency with max, not with +
        bottleneck = op.CostAlgebra(max, operator.lt, 0)
        g, source, _ = op.gen_grid(op.GridSpec(5, 5, seed=3))
        result = op.run_pipeline(g, [source], algo, algebra=bottleneck,
                                 debug_invariants=True)
        dj = op.dijkstra_oracle(g, source, bottleneck)
        assert result.state.cost[1:] == dj.dist[1:]
        assert op.check_fixpoint(g, result.state, bottleneck).ok

    @needs_lane
    def test_multi_source_lanes_agree_with_tags(self):
        g = op.gen_random_graph(300, 1500, 0, 10, seed=9, directed=True)
        for algo in op.ALGORITHMS:
            ref = op.run_pipeline(g, [5, 17, 200, 17], algo,
                                  algebra=op.min_plus_algebra())
            fast = op.run_pipeline(g, [5, 17, 200, 17], algo)
            assert (ref.lane, fast.lane) == ("reference", "compiled")
            assert fast.state.tags is not None
            assert set(fast.state.tags) == {0, 5, 17, 200}
            for field in ("order", "region_of", "position_of"):
                assert list(getattr(fast.regions, field)) \
                    == getattr(ref.regions, field)
            for field in ("parent", "cost", "is_source", "tags"):
                assert list(getattr(fast.state, field)) \
                    == getattr(ref.state, field)
            assert (fast.state.n, fast.state.sources) \
                == (ref.state.n, ref.state.sources)
            assert fast.hda_report == ref.hda_report
            assert fast.opt_report == ref.opt_report
            assert fast.origins == ref.origins


#: instance -> algorithm -> (arc_inspections, origins, OptReport fields or
#: None), as both lanes count them; a change to what they count changes
#: these literals deliberately
PINNED_COUNTERS = {
    "grid": {
        "hda": (4600, 0, None),
        "eom": (4600, 0, (291, 174600, 7245, 4547, 2698, 669300)),
        "eom2": (4600, 0, (21, 12600, 4255, 2420, 1835, 48300)),
        "hrp": (4600, 70, (2, 13906, 3699, 2953, 746, 12576)),
        "fr": (4600, 70, (2, 2405, 1574, 1027, 547, 4237)),
        "ht": (4600, 70, (2, 2263, 1540, 1019, 521, 4155)),
    },
    "random": {
        "hda": (3988, 0, None),
        "eom": (3988, 0, (9, 2691, 651, 219, 432, 17892)),
        "eom2": (3988, 0, (14, 4186, 649, 213, 436, 27832)),
        "hrp": (3988, 97, (2, 11684, 716, 359, 357, 3706)),
        "fr": (3988, 97, (15, 6498, 752, 284, 468, 4973)),
        "ht": (3988, 97, (6, 2164, 723, 291, 432, 4479)),
    },
    "sparse": {
        "hda": (856, 0, None),
        "eom": (856, 0, (3, 504, 29, 15, 14, 1284)),
        "eom2": (856, 0, (4, 672, 29, 15, 14, 1712)),
        "hrp": (856, 11, (2, 427, 29, 16, 13, 115)),
        "fr": (856, 11, (6, 765, 28, 15, 13, 115)),
        "ht": (856, 11, (2, 357, 28, 15, 13, 115)),
    },
    "sink": {
        "hda": (760, 0, None),
        "eom": (760, 0, (4, 548, 71, 32, 39, 1456)),
        "eom2": (760, 0, (6, 822, 71, 32, 39, 2184)),
        "hrp": (760, 29, (2, 697, 71, 37, 34, 260)),
        "fr": (760, 29, (9, 974, 77, 37, 40, 299)),
        "ht": (760, 29, (2, 327, 78, 41, 37, 284)),
    },
}


@pytest.mark.parametrize("lane", [pytest.param("compiled", marks=needs_lane),
                                  "reference"])
def test_counters_are_pinned(lane):
    # the two-lane tests cannot see a change made to both lanes at once
    algebra = op.min_plus_algebra() if lane == "reference" else None
    instances = {
        "grid": (op.gen_grid(op.GridSpec(30, 20, seed=3, plant_hzp=True))[0],
                 [1]),
        "random": (op.gen_random_graph(300, 2000, 0, 9, seed=5,
                                       directed=True), [1, 17, 250]),
        # undirected, 168 of 200 nodes reached, 55 zero weights and one
        # parallel pair
        "sparse": (op.gen_random_graph(200, 220, 0, 3, seed=11), [1]),
        # directed, 137 of 150 nodes reached; source 27 has no out-arc
        "sink": (op.gen_random_graph(150, 400, 0, 5, seed=13,
                                     directed=True), [3, 27]),
    }
    for name, (g, sources) in instances.items():
        for algo in op.ALGORITHMS:
            res = op.run_pipeline(g, sources, algo, algebra=algebra)
            assert res.lane == lane
            inspections, origins, opt = PINNED_COUNTERS[name][algo]
            assert (res.hda_report, res.origins, res.opt_report) == (
                HdaReport(inspections), origins,
                opt and OptReport(*opt)), (name, algo)


def slowed(fn, seconds=0.02):
    """``fn``, sleeping ``seconds`` before each call."""
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)
    return slow


class TestPhaseClock:
    """``run_pipeline`` times the phases, the same way on both lanes."""

    @needs_lane
    def test_hda_ms_covers_the_compiled_csr_check(self, monkeypatch, triangle):
        monkeypatch.setattr(fastlane, "_check_csr",
                            slowed(fastlane._check_csr))
        res = op.run_pipeline(triangle, [1], "ht")
        assert res.lane == "compiled"
        assert res.hda_ms >= 20.0

    def test_hda_ms_covers_the_reference_csr_check(self, monkeypatch,
                                                   broken_compiler, triangle):
        broken_compiler()
        monkeypatch.setattr(oracles, "check_csr", slowed(oracles.check_csr))
        res = op.run_pipeline(triangle, [1], "ht")
        assert res.lane == "reference"
        assert res.hda_ms >= 20.0

    def test_a_first_use_compile_falls_in_no_phase(self, monkeypatch,
                                                   triangle):
        # the lane resolves once per process, here in 100 ms
        lane = fastlane._lane()
        monkeypatch.setattr(fastlane, "_lane",
                            functools.cache(slowed(lambda: lane, 0.1)))
        res = op.run_pipeline(triangle, [1], "ht")
        assert max(res.hda_ms, res.classify_ms, res.schedule_ms) < 100.0

    @pytest.mark.parametrize("algo", op.ALGORITHMS)
    def test_phases_that_do_not_run_read_zero(self, triangle, algo):
        for algebra in (None, op.min_plus_algebra()):
            res = op.run_pipeline(triangle, [1], algo, algebra=algebra)
            assert res.hda_ms > 0.0
            assert (res.classify_ms > 0.0) == (algo in SCHEDULERS)
            assert (res.schedule_ms > 0.0) == (algo != "hda")


#: two algebras under which a better parent can make an offer that is only
#: equal, not better: bottleneck (a path costs its heaviest arc) and widest
#: (a path carries its lightest arc)
NON_STRICT_ALGEBRAS = {
    "bottleneck": op.CostAlgebra(max, operator.lt, 0),
    "widest": op.CostAlgebra(min, operator.gt, 10**9),
}

#: undirected, sources 6 and 7: every optimizer ends with node 5's parent
#: chain 5 -> 4 -> 2 -> 6, after 5 first took its tag from 4 while 4 hung
#: off 7
PINNED_ARCS = [(4, 5, 4), (1, 3, 6), (8, 1, 5), (3, 7, 3), (4, 7, 3),
               (4, 8, 5), (1, 7, 6), (4, 2, 1), (4, 6, 3), (7, 3, 1),
               (1, 2, 5), (5, 8, 4), (2, 6, 0), (1, 5, 4)]


@st.composite
def two_source_graphs(draw):
    """Node count, arcs, orientation and two sources of a 3-9 node graph."""
    n = draw(st.integers(3, 9))
    node = st.integers(1, n)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(0, 9)).filter(
        lambda a: a[0] != a[1]), min_size=n, max_size=4 * n))
    sources = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    return n, arcs, draw(st.booleans()), sources


def chain_roots(state):
    """Per node, the source its parent chain ends at; 0 where unlabeled."""
    roots = [0] * (state.n + 1)
    for v in range(1, state.n + 1):
        if state.labeled(v):
            u = v
            while state.parent[u]:
                u = state.parent[u]
            roots[v] = u
    return roots


def assert_tags_are_chain_roots(g, res, algebra):
    assert list(res.state.tags) == chain_roots(res.state)
    region = res.regions.region_of
    has_cost = [int(r != 0) for r in region]
    assert op.verify_export(g, region, res.state.parent, res.state.cost,
                            has_cost, algebra, tags=res.state.tags).ok


class TestTags:
    @pytest.mark.parametrize("algo", ("eom", "eom2", "hrp", "fr", "ht"))
    def test_pinned_bottleneck_case(self, algo):
        g = op.build_graph(8, PINNED_ARCS)
        algebra = NON_STRICT_ALGEBRAS["bottleneck"]
        res = op.run_pipeline(g, [6, 7], algo, algebra=algebra)
        parent = res.state.parent
        assert (parent[5], parent[4], parent[2], parent[6]) == (4, 2, 6, 0)
        assert res.state.tags[5] == 6
        assert_tags_are_chain_roots(g, res, algebra)

    @settings(max_examples=300, deadline=None)
    @given(case=two_source_graphs(),
           name=st.sampled_from(sorted(NON_STRICT_ALGEBRAS)))
    @example(case=(8, PINNED_ARCS, False, [6, 7]), name="bottleneck")
    @example(case=(5, [(3, 1, 6), (1, 5, 9), (2, 3, 5), (4, 3, 2), (5, 2, 0)],
                   False, [2, 5]), name="widest")
    def test_tags_are_chain_roots_under_non_strict_algebras(self, case,
                                                             name):
        n, arcs, directed, sources = case
        g = op.build_graph(n, arcs, directed=directed)
        algebra = NON_STRICT_ALGEBRAS[name]
        for algo in op.ALGORITHMS:
            res = op.run_pipeline(g, sources, algo, algebra=algebra)
            assert_tags_are_chain_roots(g, res, algebra)
            # and min-plus, on the compiled lane when it loads, whose tags
            # come from the compiled walk
            assert_tags_are_chain_roots(g, op.run_pipeline(g, sources, algo),
                                        None)


class TestDebugHook:
    def test_hook_raises_on_corrupted_tree(self, triangle, algebra):
        regions, state, _ = op.hda_multi(triangle, [1], algebra)
        hook = debug_hook(triangle, regions, state, "demo", algebra)
        hook(0)
        state.parent[2], state.cost[2] = 3, 2
        state.parent[3], state.cost[3] = 2, 3
        with pytest.raises(InvariantViolation, match="tree audit"):
            hook(1)

    def test_hook_raises_on_an_unlabeled_reached_leaf(self, algebra):
        g = op.build_graph(3, [(1, 2, 1), (2, 3, 1)])
        regions, state, _ = op.hda_multi(g, [1], algebra)
        hook = debug_hook(g, regions, state, "demo", algebra)
        hook(0)
        # the leaf 3 stays reached but loses its parent: the tree audit
        # has no parent arc of it to check, the reachability audit fails
        state.parent[3] = op.UNSET
        with pytest.raises(InvariantViolation,
                           match="reachability audit failed at big loop 1"):
            hook(1)

    def test_hook_raises_on_shrinking_labeled_set(self, algebra):
        g = op.build_graph(3, [(1, 2, 1), (2, 3, 1)])
        regions, state, _ = op.hda_multi(g, [1], algebra)
        hook = debug_hook(g, regions, state, "demo", algebra)
        hook(0)
        # un-label node 3 in both views so tree/reachability stay clean
        state.parent[3] = op.UNSET
        state.cost[3] = 0
        regions.position_of[3] = 0
        regions.region_of[3] = 0
        regions.order.remove(3)
        with pytest.raises(InvariantViolation, match="shrank"):
            hook(1)

    def test_hook_walks_the_parent_chains_once_per_boundary(self,
                                                            monkeypatch):
        calls = {"_chain_roots": 0, "_labeled": 0}

        def counted(name):
            helper = getattr(oracles, name)

            def wrapper(*args):
                calls[name] += 1
                return helper(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oracles, name, counted(name))
        g, _, _ = op.gen_grid(op.GridSpec(60, 60, seed=3, plant_hzp=True))
        res = op.run_pipeline(g, [1], "ht", debug_invariants=True)
        assert res.lane == ("compiled" if fastlane.available()
                            else "reference")
        # the partition's output, then each of the scheduler's big loops
        assert res.opt_report.big_loops == 2
        assert calls == {"_chain_roots": 3, "_labeled": 3}
