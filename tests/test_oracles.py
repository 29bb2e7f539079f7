import random

import pytest

import optpaths as op
from optpaths import fastlane


def small_random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    directed = rng.random() < 0.5
    arcs = [(rng.randint(1, v - 1), v, rng.randint(0, 9))
            for v in range(2, n + 1)]
    for _ in range(rng.randint(0, 2 * n)):
        u = rng.randint(1, n)
        v = rng.randint(1, n - 1)
        if v >= u:
            v += 1
        arcs.append((u, v, rng.randint(0, 9)))
    return op.build_graph(n, arcs, directed=directed)


class TestOraclesAgainstBruteForce:
    """The brute-force path enumerator certifies the oracles themselves."""

    @pytest.mark.parametrize("seed", range(60))
    def test_dijkstra_and_bellman_match_brute_force(self, seed, algebra):
        g = small_random_graph(seed)
        bf = op.brute_force_oracle(g, 1, algebra)
        dj = op.dijkstra_oracle(g, 1, algebra)
        bl = op.bellman_ford_oracle(g, 1, algebra)
        assert dj.dist == bf.dist
        assert bl.dist == bf.dist

    @pytest.mark.parametrize("seed", range(30))
    def test_minhop_matches_dijkstra_on_unit_weights(self, seed, algebra):
        # with every weight equal, a min-hop path is a min-cost path
        rng = random.Random(900 + seed)
        n = rng.randint(2, 10)
        arcs = [(rng.randint(1, v - 1), v, 1) for v in range(2, n + 1)]
        for _ in range(rng.randint(0, n)):
            u = rng.randint(1, n)
            v = rng.randint(1, n - 1)
            if v >= u:
                v += 1
            arcs.append((u, v, 1))
        g = op.build_graph(n, arcs)
        assert (op.minhop_dp_oracle(g, 1, algebra).dist
                == op.dijkstra_oracle(g, 1, algebra).dist)

    @pytest.mark.parametrize("seed", range(30))
    def test_minhop_never_beats_dijkstra(self, seed, algebra):
        g = small_random_graph(100 + seed)
        mh = op.minhop_dp_oracle(g, 1, algebra)
        dj = op.dijkstra_oracle(g, 1, algebra)
        for v in range(1, g.n + 1):
            assert (mh.dist[v] is None) == (dj.dist[v] is None)
            if mh.dist[v] is not None:
                assert mh.dist[v] >= dj.dist[v]

    def test_brute_force_caps_size(self, algebra):
        g = op.build_graph(13, [(i, i + 1, 1) for i in range(1, 13)])
        with pytest.raises(ValueError, match="capped"):
            op.brute_force_oracle(g, 1, algebra)

    def test_unreached_nodes_stay_none(self, algebra):
        g = op.build_graph(3, [(1, 2, 4)], directed=True)
        dj = op.dijkstra_oracle(g, 1, algebra)
        assert dj.dist[1:] == [0, 4, None]
        assert dj.parent[3] == op.UNSET


class TestStructuralAudits:
    def solved(self, triangle, algebra):
        regions, state, _ = op.hda_multi(triangle, [1], algebra)
        return regions, state

    def test_clean_state_passes(self, triangle, algebra):
        regions, state = self.solved(triangle, algebra)
        assert op.check_tree(state, triangle, algebra).ok
        assert op.check_reachability(state, regions).ok

    @pytest.mark.skipif(not fastlane.available(), reason="no C compiler")
    @pytest.mark.parametrize("algo", op.ALGORITHMS)
    def test_compiled_states_audit_as_reference_states(self, algo, algebra):
        # compiled states hold int64 arrays, reference states lists
        g, source, _ = op.gen_grid(op.GridSpec(6, 5, seed=3))
        ref = op.run_pipeline(g, [source], algo, algebra=algebra)
        fast = op.run_pipeline(g, [source], algo)
        assert (ref.lane, fast.lane) == ("reference", "compiled")

        def audits(res):
            return [op.check_tree(res.state, g, algebra).failures,
                    op.check_reachability(res.state, res.regions).failures,
                    op.check_fixpoint(g, res.state, algebra).failures]

        tree, reach, fix = audits(fast)
        assert tree == reach == [] and (fix == [] or algo == "hda")
        assert audits(fast) == audits(ref)
        # move one parent on both lanes: p's parent becomes its child v
        v = fast.regions.order[-1]
        p = fast.state.parent[v]
        assert fast.state.parent[p]  # p is no source
        for res in (ref, fast):
            res.state.parent[p] = v
        broken = audits(fast)
        assert broken[0] and broken[1]
        assert broken == audits(ref)

    def test_bogus_parent_arc_detected(self, algebra):
        path = op.build_graph(3, [(1, 2, 4), (2, 3, 5)])
        _, state = self.solved(path, algebra)
        state.parent[3] = 1  # no arc joins 1 and 3
        rep = op.check_tree(state, path, algebra)
        assert rep.failures == [("parent-arc", "node 3", "arc (1,3) in graph",
                                 "absent")]

    def test_parallel_parent_arcs_any_one_supports_the_cost(self, algebra):
        g = op.build_graph(2, [(1, 2, 5), (1, 2, 3)], directed=True)
        _, state = self.solved(g, algebra)
        assert (state.parent[2], state.cost[2]) == (1, 3)
        assert op.check_tree(state, g, algebra).ok  # through the 3-arc
        state.cost[2] = 5  # through the 5-arc, or stale-high
        assert op.check_tree(state, g, algebra).ok
        state.cost[2] = 2  # below both
        rep = op.check_tree(state, g, algebra)
        assert rep.failures == [("cost-consistency", "node 2", "cost >= 3", 2)]

    def test_unsound_cost_detected(self, triangle, algebra):
        _, state = self.solved(triangle, algebra)
        state.cost[2] = 3  # tree only provides 0 + 10
        rep = op.check_tree(state, triangle, algebra)
        assert any(check == "cost-consistency" for check, *_ in rep.failures)

    def test_stale_high_cost_is_sound_mid_run(self, triangle, algebra):
        # an ancestor improving after adoption leaves the child stale-high;
        # the tree audit must accept that (exactness is the fixpoint's job)
        _, state = self.solved(triangle, algebra)
        state.cost[2] = 12
        assert op.check_tree(state, triangle, algebra).ok

    def test_two_cycle_rejected_with_cycle_named(self, triangle, algebra):
        _, state = self.solved(triangle, algebra)
        state.parent[2], state.cost[2] = 3, 2
        state.parent[3], state.cost[3] = 2, 3
        rep = op.check_tree(state, triangle, algebra)
        assert not rep.ok
        assert any("cycle" in str(got) and "2" in str(got) and "3" in str(got)
                   for check, _, _, got in rep.failures if check == "acyclic")

    def test_source_with_parent_rejected(self, triangle, algebra):
        _, state = self.solved(triangle, algebra)
        state.parent[1] = 3
        rep = op.check_tree(state, triangle, algebra)
        assert any(check == "source-root" for check, *_ in rep.failures)

    def test_reachability_flags_broken_chain(self, triangle, algebra):
        regions, state = self.solved(triangle, algebra)
        state.parent[2] = op.UNSET  # reached per partition, unlabeled in tree
        rep = op.check_reachability(state, regions)
        assert not rep.ok

    def test_fixpoint_flags_improvable_arc(self, triangle, algebra):
        _, state = self.solved(triangle, algebra)
        rep = op.check_fixpoint(triangle, state, algebra)
        assert not rep.ok
        # the min-hop tree leaves exactly the (3,2) shortcut open
        assert [where for _, where, _, _ in rep.failures] == ["arc (3,2,1)"]

    def test_fixpoint_passes_after_full_relaxation(self, triangle, algebra):
        regions, state, _ = op.hda_multi(triangle, [1], algebra)
        op.eom(triangle, regions, state, algebra)
        assert op.check_fixpoint(triangle, state, algebra).ok

    def test_export_audit_honours_the_algebra(self, algebra):
        # a bottleneck-path export: parent arcs are consistent under max,
        # not under +, so only the matching algebra passes it
        bottleneck = op.CostAlgebra(max, lambda a, b: a < b, 0)
        g, source, _ = op.gen_grid(op.GridSpec(5, 5, seed=3))
        res = op.run_pipeline(g, [source], "ht", algebra=bottleneck)
        has_cost = [res.state.labeled(v) for v in range(g.n + 1)]
        export = (g, res.regions.region_of, res.state.parent, res.state.cost,
                  has_cost)
        assert op.verify_export(*export, bottleneck, fixpoint=True).ok
        rep = op.verify_export(*export, algebra)
        assert {check for check, *_ in rep.failures} == {"parent-arc"}

    def test_report_summary_formats(self):
        rep = op.VerificationReport()
        assert rep.ok and rep.summary() == "OK"
        rep.add("demo", "node 1", 2, 3)
        assert "expected 2, got 3" in rep.summary()
