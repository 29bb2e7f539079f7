import io

import pytest

import optpaths as op
from optpaths import GraphError


class TestTriangleExample:
    """The worked example: min-hop tree keeps the heavy direct arc."""

    def test_partition_views(self, triangle, algebra):
        regions, state, report = op.hda_multi(triangle, [1], algebra)
        assert regions.order == [1, 2, 3]
        assert regions.region_of[1:] == [1, 2, 2]
        assert regions.position_of[1:] == [1, 2, 3]
        assert len(regions.order) == 3                  # reached nodes
        assert regions.region_of[regions.order[-1]] == 2  # layers
        assert report.arc_inspections == 2 * triangle.E  # both stars, once

    def test_min_hop_costs(self, triangle, algebra):
        _, state, _ = op.hda_multi(triangle, [1], algebra)
        assert state.cost[1:] == [0, 10, 1]
        assert state.parent[1:] == [0, 1, 1]


class TestPartitionStructure:
    def test_positions_invert_order(self, corpus, algebra):
        for name, g, source in corpus[:20]:
            regions, _, _ = op.hda_multi(g, [source], algebra)
            for pos, v in enumerate(regions.order, start=1):
                assert regions.position_of[v] == pos

    def test_regions_are_bfs_layers(self, algebra):
        g = op.build_graph(5, [(1, 2, 9), (1, 3, 9), (2, 4, 9), (3, 4, 9),
                               (4, 5, 9)])
        regions, _, _ = op.hda_multi(g, [1], algebra)
        assert regions.region_of[1:] == [1, 2, 2, 3, 4]

    def test_disconnected_nodes_unreached(self, algebra):
        g = op.build_graph(4, [(1, 2, 3)], directed=True)
        regions, state, _ = op.hda_multi(g, [1], algebra)
        assert len(regions.order) == 2
        assert regions.region_of[3] == 0 and regions.position_of[3] == 0
        assert not state.labeled(3)

    def test_directed_pull_uses_in_neighbors(self, algebra):
        # node 3 has no forward leaves at all; its label can only arrive via
        # the reverse adjacency, and the cheaper upper-layer in-arc must win
        g = op.build_graph(4, [(1, 2, 5), (1, 4, 1), (2, 3, 9), (4, 3, 1)],
                           directed=True)
        regions, state, _ = op.hda_multi(g, [1], algebra)
        assert regions.region_of[3] == 3
        assert state.cost[3] == 2 and state.parent[3] == 4

    def test_same_layer_arcs_never_pulled(self, algebra):
        # the weight-1 arc between the two layer-2 nodes is ignored by the
        # partition phase; the later full relaxation is what exploits it
        g = op.build_graph(3, [(1, 2, 9), (1, 3, 1), (3, 2, 1)],
                           directed=True)
        _, state, _ = op.hda_multi(g, [1], algebra)
        assert state.cost[2] == 9 and state.parent[2] == 1

    def test_strict_tie_keeps_first_label(self, algebra):
        # two equal-cost parents; the earlier pull must keep the node
        g = op.build_graph(4, [(1, 2, 5), (1, 3, 5), (2, 4, 1), (3, 4, 1)])
        _, state, _ = op.hda_multi(g, [1], algebra)
        assert state.cost[4] == 6
        assert state.parent[4] == 2  # first in-neighbor in arc order

    def test_source_never_relabeled(self, algebra):
        g = op.build_graph(2, [(1, 2, 0)])
        _, state, _ = op.hda_multi(g, [1], algebra)
        assert state.parent[1] == op.UNSET and state.cost[1] == 0
        # a direct relaxation attempt must refuse too
        assert not op.relax(state, algebra, 2, 1, 0)

    def test_empty_source_set_rejected(self, triangle, algebra):
        with pytest.raises(GraphError, match="non-empty"):
            op.hda_multi(triangle, [], algebra)

    def test_out_of_range_source_rejected(self, triangle, algebra):
        with pytest.raises(GraphError, match="out of range"):
            op.hda_multi(triangle, [7], algebra)

    def test_arc_inspections_bounded(self, corpus, algebra):
        # every directed adjacency entry is inspected at most twice
        for name, g, source in corpus[:20]:
            _, _, report = op.hda_multi(g, [source], algebra)
            assert report.arc_inspections <= 2 * g.E


class TestMultiSourceSeeding:
    def test_all_sources_in_layer_one(self, algebra):
        g = op.build_graph(5, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)])
        regions, state, _ = op.hda_multi(g, [5, 1], algebra)
        assert regions.order[:2] == [1, 5]  # seeded in ascending id order
        assert regions.region_of[1] == regions.region_of[5] == 1
        assert state.tags is not None
        assert state.tags[2] == 1 and state.tags[4] == 5

    def test_duplicate_sources_collapse(self, triangle, algebra):
        regions, state, _ = op.hda_multi(triangle, [1, 1], algebra)
        assert state.sources == (1,)
        assert state.tags is None  # still a single-source run

    def test_tags_follow_relabeling(self, algebra):
        g = op.build_graph(3, [(1, 3, 5), (2, 3, 1)])
        state = op.run_pipeline(g, [1, 2], "ht", algebra).state
        assert state.tags[3] == 2 and state.cost[3] == 1


class TestResultExport:
    def export(self, g, sources, algebra):
        regions, state, _ = op.hda_multi(g, sources, algebra)
        buf = io.StringIO()
        op.export_results(state, regions, buf)
        return buf.getvalue().splitlines()

    def test_reached_rows(self, triangle, algebra):
        rows = self.export(triangle, [1], algebra)
        assert rows == ["1 1 0 0", "2 2 1 10", "3 2 1 1"]

    def test_unreached_marker(self, algebra):
        g = op.build_graph(3, [(1, 2, 4)], directed=True)
        rows = self.export(g, [1], algebra)
        assert rows[2] == "3 0 0 UNREACHED"

    def test_tag_column_on_multi_source(self, algebra):
        g = op.build_graph(3, [(1, 2, 4)], directed=True)
        rows = self.export(g, [1, 3], algebra)
        assert rows[0].split() == ["1", "1", "0", "0", "1"]
        assert rows[2].split() == ["3", "1", "0", "0", "3"]

    def test_file_export(self, triangle, algebra, tmp_path):
        regions, state, _ = op.hda_multi(triangle, [1], algebra)
        path = str(tmp_path / "out.txt")
        op.export_results_file(state, regions, path)
        with open(path) as fh:
            assert fh.read().splitlines()[0] == "1 1 0 0"
