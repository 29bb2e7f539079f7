"""The package namespace and the record types its modules define.

``import optpaths`` imports none of its modules: each public name resolves
on first use to the object of the module that defines it.  The records are
named tuples or plain classes, none of them dataclasses.
"""

import importlib
import os
import subprocess
import sys

import pytest

import optpaths as op

#: the names ``optpaths`` exports, by the module that defines each
EXPORTS = {
    "evolve": ["eom", "eom_two_course"],
    "generators": ["GridSpec", "HzpPlan", "gen_grid", "gen_random_graph",
                   "grid_columns", "random_columns", "serpentine_path",
                   "shape_sweep_specs", "splitmix64"],
    "graph": ["UNSET", "CostAlgebra", "Graph", "GraphError",
              "InstanceFormatError", "build_graph", "graph_from_columns",
              "in_neighbors", "leaves", "min_plus_algebra", "read_instance",
              "read_instance_file", "write_instance", "write_instance_file"],
    "monarchy": ["StatusMap", "classify_status", "run_scheduler"],
    "oracles": ["OracleResult", "VerificationReport", "bellman_ford_oracle",
                "brute_force_oracle", "check_fixpoint", "check_reachability",
                "check_tree", "dijkstra_oracle", "minhop_dp_oracle",
                "verify_export"],
    "partition": ["SCHEDULERS", "UNREACHED", "HdaReport", "OptReport",
                  "Regions", "SolverState", "export_results",
                  "export_results_file", "hda_multi", "read_results_file",
                  "relax"],
    "pipeline": ["ALGORITHMS", "InvariantViolation", "PipelineResult",
                 "run_pipeline"],
}
NAMES = {name for names in EXPORTS.values() for name in names}


def run_child(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


class TestNamespace:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_resolve_to_the_defining_module(self, module):
        mod = importlib.import_module(f"optpaths.{module}")
        for name in EXPORTS[module]:
            assert getattr(op, name) is getattr(mod, name), name

    def test_star_import_binds_exactly_the_exports(self):
        ns = {}
        exec("from optpaths import *", ns)
        assert set(ns) - {"__builtins__"} == NAMES
        assert len(op.__all__) == len(NAMES)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            op.no_such_name  # noqa: B018
        assert op.__version__ == "0.1.0"

    def test_submodules_resolve_on_first_use(self):
        assert run_child(
            "import sys, optpaths\n"
            "print([m for m in sys.modules if m.startswith('optpaths.')])\n"
            "print(optpaths.graph is sys.modules['optpaths.graph'])") \
            == "[]\nTrue"

    def test_no_module_imports_dataclasses(self):
        assert run_child(
            "import sys\n"
            "import optpaths.cli, optpaths.fastlane, optpaths.generators\n"
            "print('dataclasses' in sys.modules)") == "False"


class TestRecords:
    def test_named_tuple_fields_and_defaults(self):
        assert op.CostAlgebra._fields == ("extend", "better", "zero")
        assert op.HzpPlan._fields == ("path", "terminal")
        assert op.HdaReport._fields == ("arc_inspections", "wall_time_ms")
        assert op.OptReport._fields == (
            "big_loops", "node_scans", "improvements", "regular_way",
            "wrong_way", "arc_relaxations", "wall_time_ms")
        assert op.OracleResult._fields == ("dist", "parent")
        spec = op.GridSpec(5, 5, seed=3)
        assert spec == op.GridSpec(k_r=5, k_c=5, weight_min=1, weight_max=10,
                                   seed=3, plant_hzp=False)
        assert spec.n == 25
        assert repr(spec) == ("GridSpec(k_r=5, k_c=5, weight_min=1, "
                              "weight_max=10, seed=3, plant_hzp=False)")
        with pytest.raises(op.GraphError):
            op.GridSpec(0, 3).validate()

    @pytest.mark.parametrize("record, field", [
        (op.min_plus_algebra(), "zero"),
        (op.GridSpec(2, 2), "seed"),
        (op.HzpPlan((1, 2), 2), "terminal"),
    ])
    def test_formerly_frozen_records_refuse_assignment(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    def test_plain_classes_take_the_same_arguments(self):
        regions = op.Regions([1, 2], [0, 1, 2], [0, 1, 2])
        assert (len(regions.order), regions.region_of[regions.order[-1]]) \
            == (2, 2)
        state = op.SolverState(2, (1,), [0, 0, 1], [0, 0, 5],
                               [False, True, False])
        assert state.tags is None and state.labeled(2)
        assert op.SolverState.fresh(2, [1, 2], 0).tags == [0, 1, 2]
        status = op.StatusMap(status=[0, 1, 0], origin_count=1)
        assert (status.status, status.origin_count) == ([0, 1, 0], 1)
        hda = op.HdaReport(arc_inspections=2, wall_time_ms=0.0)
        res = op.PipelineResult("hda", regions, state, hda, 0.0, 0, None)
        assert res.lane == "reference"
        res.algo = "multi"  # cmd_solve relabels a multi-source run
        assert res.algo == "multi"
        assert op.PipelineResult("ht", regions, state, hda, 0.0, 0, None,
                                 lane="compiled").lane == "compiled"

    def test_verification_reports_do_not_share_failures(self):
        a, b = op.VerificationReport(), op.VerificationReport()
        a.add("tree", "node 2", 1, 2)
        assert not a.ok and b.ok and b.failures == []
        assert b.summary() == "OK"
        assert a.summary() == ("1 failure(s):\n"
                               "  [tree] node 2: expected 1, got 2")
        kept = [("cost", "node 3", 0, 1)]
        assert op.VerificationReport(kept).failures is kept
