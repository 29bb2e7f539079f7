import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import GraphError, InvariantViolation, fastlane
from optpaths.pipeline import _debug_hook

needs_lane = pytest.mark.skipif(not fastlane.available(),
                                reason="no C compiler")


def counters(res):
    """A run's reports with the wall times zeroed."""
    return [rep._replace(wall_time_ms=0.0)
            for rep in (res.hda_report, res.opt_report) if rep is not None]


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
        assert result.opt_report.wall_time_ms >= 0.0

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
            assert counters(fast) == counters(ref)
            assert fast.origins == ref.origins


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
            # min-plus, on the compiled lane when it loads, needs no retag
            assert_tags_are_chain_roots(g, op.run_pipeline(g, sources, algo),
                                        None)


class TestDebugHook:
    def test_hook_raises_on_corrupted_tree(self, triangle, algebra):
        regions, state, _ = op.hda_multi(triangle, [1], algebra)
        hook = _debug_hook(triangle, regions, state, "demo", algebra)
        hook(0)
        state.parent[2], state.cost[2] = 3, 2
        state.parent[3], state.cost[3] = 2, 3
        with pytest.raises(InvariantViolation, match="tree audit"):
            hook(1)

    def test_hook_raises_on_shrinking_labeled_set(self, algebra):
        g = op.build_graph(3, [(1, 2, 1), (2, 3, 1)])
        regions, state, _ = op.hda_multi(g, [1], algebra)
        hook = _debug_hook(g, regions, state, "demo", algebra)
        hook(0)
        # un-label node 3 in both views so tree/reachability stay clean
        state.parent[3] = op.UNSET
        state.cost[3] = 0
        regions.position_of[3] = 0
        regions.region_of[3] = 0
        regions.order.remove(3)
        with pytest.raises(InvariantViolation, match="shrank"):
            hook(1)
