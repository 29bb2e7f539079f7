"""Single-source optimal-paths engine.

Pipeline: layered partition with upper-rank pulls (:mod:`optpaths.partition`),
fixpoint sweeps (:mod:`optpaths.evolve`) or origin-driven worklist scheduling
(:mod:`optpaths.monarchy`), verified against independent oracles
(:mod:`optpaths.oracles`), with deterministic instance generators
(:mod:`optpaths.generators`) and a CLI/benchmark front end
(:mod:`optpaths.cli`).  It needs only the standard library; a C compiler,
when present, builds the compiled lane of :mod:`optpaths.fastlane`.

Importing the package imports none of its modules.  Each name below
resolves on first use, by importing the module that defines it, so a CLI
command loads only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "evolve": ("eom", "eom_two_course"),
    "generators": ("GridSpec", "HzpPlan", "gen_grid", "gen_random_graph",
                   "grid_columns", "random_columns", "serpentine_path",
                   "shape_sweep_specs", "splitmix64"),
    "graph": ("UNSET", "CostAlgebra", "Graph", "GraphError",
              "InstanceFormatError", "build_graph", "graph_from_columns",
              "in_neighbors", "leaves", "min_plus_algebra", "read_instance",
              "read_instance_file", "write_instance", "write_instance_file"),
    "monarchy": ("StatusMap", "classify_status", "run_scheduler"),
    "oracles": ("OracleResult", "VerificationReport", "bellman_ford_oracle",
                "brute_force_oracle", "check_fixpoint", "check_reachability",
                "check_tree", "dijkstra_oracle", "minhop_dp_oracle",
                "verify_export"),
    "partition": ("SCHEDULERS", "UNREACHED", "HdaReport", "OptReport",
                  "Regions", "SolverState", "export_results",
                  "export_results_file", "hda_multi", "read_results_file",
                  "relax"),
    "pipeline": ("ALGORITHMS", "InvariantViolation", "PipelineResult",
                 "run_pipeline"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "fastlane")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here, so a name rebound in its module (by a tracer or a
    # test's monkeypatch) reads the same through the package
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
