import pytest

import optpaths as op


def solve_sweeps(g, source, algebra, two_course=False):
    regions, state, _ = op.hda_multi(g, [source], algebra)
    run = op.eom_two_course if two_course else op.eom
    report = run(g, regions, state, algebra)
    return regions, state, report


class TestTriangleExample:
    def test_final_costs_and_counters(self, triangle, algebra):
        _, state, report = solve_sweeps(triangle, 1, algebra)
        assert state.cost[1:] == [0, 2, 1]
        assert state.parent[1:] == [0, 3, 1]
        assert report.big_loops == 2       # one correcting sweep + one clean
        assert report.improvements == 1
        assert report.wrong_way == 1       # 2 adopts a same-layer parent
        assert report.regular_way == 0

    def test_two_course_same_fixpoint(self, triangle, algebra):
        _, s1, _ = solve_sweeps(triangle, 1, algebra)
        _, s2, _ = solve_sweeps(triangle, 1, algebra, two_course=True)
        assert s1.cost == s2.cost


class TestCounters:
    @pytest.mark.parametrize("two_course", [False, True])
    def test_bookkeeping_identities(self, corpus, algebra, two_course):
        for name, g, source in corpus[:30]:
            _, _, rep = solve_sweeps(g, source, algebra, two_course)
            assert rep.regular_way + rep.wrong_way == rep.improvements
            assert rep.big_loops >= 1
            ptr = g.fwd_ptr
            max_degree = max(ptr[u + 1] - ptr[u] for u in range(1, g.n + 1))
            assert rep.arc_relaxations <= rep.node_scans * max(max_degree, 1)

    def test_node_scans_count_every_sweep_position(self, triangle, algebra):
        _, _, rep = solve_sweeps(triangle, 1, algebra)
        assert rep.node_scans == rep.big_loops * 3  # 3 reached nodes

    def test_final_sweep_is_clean(self, corpus, algebra):
        # rerunning from the halted state must change nothing in one sweep
        for name, g, source in corpus[:10]:
            regions, state, _ = solve_sweeps(g, source, algebra)
            rep2 = op.eom(g, regions, state, algebra)
            assert rep2.big_loops == 1 and rep2.improvements == 0


class TestZeroWeights:
    def test_all_zero_complete_graph_halts(self, algebra):
        n = 8
        arcs = [(u, v, 0) for u in range(1, n + 1)
                for v in range(u + 1, n + 1)]
        g = op.build_graph(n, arcs)
        _, state, rep = solve_sweeps(g, 1, algebra)
        assert state.cost[1:] == [0] * n
        assert rep.big_loops <= n
        assert op.check_tree(state, g, algebra).ok

    def test_zero_weight_cycle_graph(self, algebra):
        n = 9
        arcs = [(v, v % n + 1, 0) for v in range(1, n + 1)]
        g = op.build_graph(n, arcs, directed=True)
        _, state, rep = solve_sweeps(g, 1, algebra)
        assert state.cost[1:] == [0] * n
        assert op.check_tree(state, g, algebra).ok


class TestTwoCourse:
    def test_reversed_sweeps_cut_loops_on_planted_grid(self, algebra):
        g, source, _ = op.gen_grid(op.GridSpec(k_r=24, k_c=12, seed=3,
                                               plant_hzp=True))
        _, s1, r1 = solve_sweeps(g, source, algebra)
        _, s2, r2 = solve_sweeps(g, source, algebra, two_course=True)
        assert s1.cost == s2.cost
        # corrections against the layer ranking propagate in batch when
        # every second sweep runs tail to head
        assert r2.big_loops < r1.big_loops

    def test_direction_does_not_change_fixpoint(self, corpus, algebra):
        for name, g, source in corpus[:30]:
            _, s1, _ = solve_sweeps(g, source, algebra)
            _, s2, _ = solve_sweeps(g, source, algebra, two_course=True)
            assert s1.cost == s2.cost
