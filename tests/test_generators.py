from array import array

import pytest

import optpaths as op
from optpaths import GraphError, GridSpec, fastlane
from optpaths.generators import _draws


class TestSplitmix64:
    @pytest.mark.skipif(not fastlane.available(), reason="no C compiler")
    def test_scalar_matches_vectorized(self):
        # the draws kernel against the scalar stream, on seeds that wrap
        # both ways, both strides the generators use, and the extreme spans
        for seed in (0, 1, 12345, -1, -(2**63), 2**63, 2**64, 2**64 + 7,
                     2**70 + 3):
            for stride in (1, 3):
                for lo, span in ((0, 1), (4, 1), (1, 7), (0, 2**63),
                                 (2**63 - 8, 8)):
                    out = array("q", [0]) * 20
                    assert fastlane.draws(out, seed, 5, stride, lo, span)
                    assert out.tolist() == [
                        lo + op.splitmix64(seed, 5 + i * stride) % span
                        for i in range(20)]

    def test_pinned_values(self):
        # frozen draws guard cross-platform / cross-version drift: any change
        # here silently changes every generated instance
        assert op.splitmix64(0, 0) == 16294208416658607535
        assert op.splitmix64(0, 1) == 7960286522194355700
        assert op.splitmix64(42, 0) == 13679457532755275413

    def test_streams_differ_by_seed(self):
        assert _draws(100, "n", 1, 0, 1, 0, 2**63) \
            != _draws(100, "n", 2, 0, 1, 0, 2**63)

    def test_counter_based_access_is_stateless(self):
        whole = _draws(50, "n", 9, 0, 1, 0, 2**63)
        assert _draws(20, "n", 9, 30, 1, 0, 2**63) == whole[30:]
        assert _draws(10, "n", 9, 30, 2, 0, 2**63) == whole[30::2]


class TestGridGeneration:
    def test_structure(self):
        g, source, plan = op.gen_grid(GridSpec(k_r=3, k_c=4, seed=0))
        assert source == 1 and plan is None
        assert g.n == 12
        # vertical arcs: (k_r-1) per column; horizontal: k_r per column gap
        assert g.E == 2 * (4 * 2 + 3 * 3)
        # bottom-left corner: up neighbor id 2, right neighbor id 1+k_r
        assert sorted(v for v, _ in op.leaves(g, 1)) == [2, 4]
        # interior node has degree 4
        assert len(op.leaves(g, 5)) == 4

    def test_column_major_ids(self):
        # id(r, c) = (c-1)*k_r + r; row 2 / col 3 of a 3-row grid is 8,
        # adjacent vertically to 7 and 9 and horizontally to 5 and 11
        g, _, _ = op.gen_grid(GridSpec(k_r=3, k_c=4, seed=0))
        assert sorted(v for v, _ in op.leaves(g, 8)) == [5, 7, 9, 11]

    def test_deterministic(self):
        spec = GridSpec(k_r=5, k_c=7, seed=11)
        g1, _, _ = op.gen_grid(spec)
        g2, _, _ = op.gen_grid(spec)
        assert (g1.fwd_dst, g1.fwd_w) == (g2.fwd_dst, g2.fwd_w)

    def test_weights_in_range(self):
        g, _, _ = op.gen_grid(GridSpec(k_r=6, k_c=6, weight_min=2,
                                       weight_max=4, seed=3))
        assert min(g.fwd_w) >= 2 and max(g.fwd_w) <= 4

    def test_validation(self):
        with pytest.raises(GraphError, match="dims"):
            op.gen_grid(GridSpec(k_r=0, k_c=3))
        with pytest.raises(GraphError, match="weight range"):
            op.gen_grid(GridSpec(k_r=2, k_c=2, weight_min=5, weight_max=1))

    def test_single_row_and_column(self):
        g, _, _ = op.gen_grid(GridSpec(k_r=1, k_c=4, seed=0))
        assert g.n == 4 and g.E == 2 * 3
        g, _, _ = op.gen_grid(GridSpec(k_r=4, k_c=1, seed=0))
        assert g.n == 4 and g.E == 2 * 3


class TestSerpentine:
    def test_path_is_hamiltonian_and_adjacent(self):
        for k_r, k_c in [(3, 4), (4, 3), (1, 5), (5, 1), (2, 2)]:
            path = op.serpentine_path(k_r, k_c)
            assert sorted(path) == list(range(1, k_r * k_c + 1))
            for a, b in zip(path, path[1:]):
                assert abs(a - b) in (1, k_r)  # grid neighbors only

    def test_terminal_parity(self):
        # odd column count ends at the top of the last column, even at the
        # bottom
        assert op.serpentine_path(3, 3)[-1] == 9      # top of column 3
        assert op.serpentine_path(3, 4)[-1] == 10     # bottom of column 4


class TestPlantedZeroPath:
    @pytest.mark.parametrize("k_r,k_c", [(4, 5), (5, 4), (3, 3), (2, 7)])
    def test_planted_arcs_zero_rest_positive(self, k_r, k_c):
        g, _, plan = op.gen_grid(GridSpec(k_r=k_r, k_c=k_c, seed=2,
                                          plant_hzp=True))
        assert plan is not None
        assert plan.path == op.serpentine_path(k_r, k_c)
        assert plan.terminal == plan.path[-1]
        on_path = set(zip(plan.path, plan.path[1:]))
        on_path |= {(b, a) for a, b in on_path}
        for h in range(1, g.n + 1):
            for t, w in op.leaves(g, h):
                if (h, t) in on_path:
                    assert w == 0
                else:
                    assert w >= 1

    def test_zero_path_is_strictly_optimal(self, algebra):
        g, source, plan = op.gen_grid(GridSpec(k_r=6, k_c=5, seed=4,
                                               plant_hzp=True))
        dj = op.dijkstra_oracle(g, source, algebra)
        for v in plan.path:
            assert dj.dist[v] == 0

    def test_planting_forces_positive_off_path_floor(self):
        g, _, plan = op.gen_grid(GridSpec(k_r=4, k_c=4, weight_min=0,
                                          seed=6, plant_hzp=True))
        on_path = set(zip(plan.path, plan.path[1:]))
        on_path |= {(b, a) for a, b in on_path}
        for h in range(1, g.n + 1):
            for t, w in op.leaves(g, h):
                if (h, t) not in on_path:
                    assert w >= 1


class TestRandomGraphs:
    def test_counts_and_ranges(self):
        head, tail, weight = op.random_columns(20, 100, 3, 9, seed=1)
        assert len(head) == len(tail) == len(weight) == 100
        assert min(weight) >= 3 and max(weight) <= 9
        assert not any(h == t for h, t in zip(head, tail))
        g = op.gen_random_graph(20, 100, 3, 9, seed=1)
        assert g.n == 20 and g.E == 2 * 100

    def test_deterministic(self):
        g1 = op.gen_random_graph(15, 40, 0, 10, seed=5, directed=True)
        g2 = op.gen_random_graph(15, 40, 0, 10, seed=5, directed=True)
        for name in ("fwd_ptr", "fwd_dst", "fwd_w", "rev_ptr", "rev_src",
                     "rev_w"):
            assert getattr(g1, name) == getattr(g2, name), name

    def test_zero_arcs(self):
        g = op.gen_random_graph(5, 0, 1, 10, seed=0)
        assert g.E == 0

    def test_validation(self):
        with pytest.raises(GraphError):
            op.gen_random_graph(0, 1, 1, 2, seed=0)
        with pytest.raises(GraphError):
            op.gen_random_graph(1, 3, 1, 2, seed=0)
        with pytest.raises(GraphError):
            op.gen_random_graph(4, 3, 5, 2, seed=0)


class TestShapeSweep:
    def test_specs_cover_requested_columns(self):
        specs = op.shape_sweep_specs(10000, [10, 100, 1000])
        assert [(s.k_r, s.k_c) for s in specs] == [
            (1000, 10), (100, 100), (10, 1000)]
        assert all(s.plant_hzp for s in specs)

    def test_non_divisor_rejected(self):
        with pytest.raises(GraphError, match="does not divide"):
            op.shape_sweep_specs(10000, [3])


class TestSidecarComments:
    def test_roundtrip(self):
        spec = GridSpec(k_r=3, k_c=4, seed=9, plant_hzp=True)
        g, _, plan = op.gen_grid(spec)
        comments = op.generators.grid_comments(spec, plan)
        assert comments[1:] == ["hzp-path " + " ".join(map(str, plan.path))]

    def test_absent_path_returns_none(self):
        spec = GridSpec(k_r=3, k_c=4, seed=9, plant_hzp=False)
        assert op.gen_grid(spec)[2] is None
        comments = op.generators.grid_comments(spec, None)
        assert not [c for c in comments if c.startswith("hzp-path")]
