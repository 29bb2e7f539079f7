import copy

import pytest

import optpaths as op
from optpaths import GraphError, monarchy


def prepared(g, sources, algebra):
    regions, state, _ = op.hda_multi(g, sources, algebra)
    statuses = op.classify_status(g, state, algebra, regions)
    return regions, state, statuses


def schedule(g, source, kind, algebra):
    regions, state, statuses = prepared(g, [source], algebra)
    report = op.run_scheduler(kind, g, regions, state, statuses, algebra)
    return state, report


class TestClassification:
    def test_triangle_origin(self, triangle, algebra):
        _, state, statuses = prepared(triangle, [1], algebra)
        # node 3 can still improve node 2, nobody can improve node 3;
        # the source improves nobody anymore and node 2 is improvable
        assert statuses.status[1:] == [0, 0, 1]
        assert statuses.origin_count == 1

    def test_settled_state_has_no_origins(self, triangle, algebra):
        regions, state, _ = op.hda_multi(triangle, [1], algebra)
        op.eom(triangle, regions, state, algebra)
        statuses = op.classify_status(triangle, state, algebra, regions)
        assert statuses.origin_count == 0

    def test_origins_never_exceed_reached(self, corpus, algebra):
        for name, g, source in corpus[:30]:
            regions, _, statuses = prepared(g, [source], algebra)
            assert 0 <= statuses.origin_count <= len(regions.order)


class TestSchedulers:
    @pytest.mark.parametrize("kind", op.SCHEDULERS)
    def test_triangle_fixpoint(self, triangle, algebra, kind):
        state, report = schedule(triangle, 1, kind, algebra)
        assert state.cost[1:] == [0, 2, 1]
        assert report.big_loops == 2
        assert report.improvements == 1
        assert report.regular_way + report.wrong_way == report.improvements

    @pytest.mark.parametrize("kind", op.SCHEDULERS)
    def test_matches_full_sweeps(self, corpus, algebra, kind):
        for name, g, source in corpus[:30]:
            regions, state, _ = op.hda_multi(g, [source], algebra)
            sweep_state = copy.deepcopy(state)
            op.eom(g, regions, sweep_state, algebra)
            statuses = op.classify_status(g, state, algebra, regions)
            op.run_scheduler(kind, g, regions, state, statuses, algebra)
            assert state.cost == sweep_state.cost

    def test_dormant_positions_still_count_as_scans(self, algebra):
        # a settled chain: every node is dormant, yet one full wrap must
        # examine every position exactly once
        g = op.build_graph(5, [(v, v + 1, 1) for v in range(1, 5)],
                           directed=True)
        state, report = schedule(g, 1, "hrp", algebra)
        assert report.improvements == 0
        assert report.big_loops == 1
        assert report.node_scans == 5

    def test_hrp_jumps_backwards_only(self, algebra):
        # the planted zero column forces wrong-way corrections; HRP resolves
        # them within two big loops by re-chasing earlier positions
        g, source, _ = op.gen_grid(op.GridSpec(k_r=12, k_c=6, seed=5,
                                               plant_hzp=True))
        state, report = schedule(g, source, "hrp", algebra)
        sweep_regions, sweep_state, _ = op.hda_multi(g, [source], algebra)
        op.eom(g, sweep_regions, sweep_state, algebra)
        assert state.cost == sweep_state.cost
        assert report.big_loops <= 4

    @pytest.mark.parametrize("kind", op.SCHEDULERS)
    def test_arc_relaxations_count_the_stars_of_active_scans(
            self, algebra, monkeypatch, kind):
        # every active node scanned offers itself along its whole forward
        # star, in CSR order; dormant ones offer nothing
        g, source, _ = op.gen_grid(op.GridSpec(k_r=12, k_c=6, seed=5,
                                               plant_hzp=True))
        regions, state, statuses = prepared(g, [source], algebra)
        calls = []

        def logged_relax(state, algebra, u, v, w):
            calls.append((u, v))
            return op.relax(state, algebra, u, v, w)

        monkeypatch.setattr(monarchy, "relax", logged_relax)
        report = op.run_scheduler(kind, g, regions, state, statuses, algebra)
        fwd_ptr, fwd_dst = g.fwd_ptr.tolist(), g.fwd_dst.tolist()
        out_degrees = []  # of the active nodes scanned, in scan order
        while sum(out_degrees) < len(calls):
            i = sum(out_degrees)
            u = calls[i][0]
            star = [(u, v) for v in fwd_dst[fwd_ptr[u]:fwd_ptr[u + 1]]]
            assert calls[i:i + len(star)] == star
            out_degrees.append(len(star))
        assert report.improvements > 0
        assert report.arc_relaxations == sum(out_degrees) == len(calls)

    def test_unknown_kind_rejected(self, triangle, algebra):
        regions, state, statuses = prepared(triangle, [1], algebra)
        with pytest.raises(GraphError, match="unknown scheduler"):
            op.run_scheduler("bogus", triangle, regions, state, statuses,
                             algebra)

    def test_source_guard_on_push(self, algebra):
        g = op.build_graph(2, [(1, 2, 0)])
        _, state, _ = op.hda_multi(g, [1], algebra)
        assert not op.relax(state, algebra, 2, 1, 0)
        assert state.parent[1] == op.UNSET


class TestMultiSourceSolve:
    def test_costs_are_min_over_sources(self, algebra):
        g = op.build_graph(6, [(1, 2, 4), (2, 3, 4), (3, 4, 4), (4, 5, 4),
                               (5, 6, 4)])
        state = op.run_pipeline(g, [1, 6], "ht", algebra).state
        tags = state.tags
        dj1 = op.dijkstra_oracle(g, 1, algebra)
        dj6 = op.dijkstra_oracle(g, 6, algebra)
        for v in range(1, 7):
            assert state.cost[v] == min(dj1.dist[v], dj6.dist[v])
            winner = (dj1 if tags[v] == 1 else dj6)
            assert winner.dist[v] == state.cost[v]

    def test_empty_sources_rejected(self, triangle, algebra):
        with pytest.raises(GraphError, match="non-empty"):
            op.run_pipeline(triangle, [], "ht", algebra)

    @pytest.mark.parametrize("kind", op.SCHEDULERS)
    def test_all_kinds_supported(self, triangle, algebra, kind):
        state = op.run_pipeline(triangle, [1, 2], kind, algebra).state
        tags = state.tags
        assert state.cost[1] == 0 and state.cost[2] == 0
        assert state.cost[3] == 1 and tags[3] == 1
