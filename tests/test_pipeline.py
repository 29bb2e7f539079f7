import operator

import pytest

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
