"""Single-source optimal-paths engine.

Pipeline: layered partition with upper-rank pulls (:mod:`optpaths.partition`),
fixpoint sweeps (:mod:`optpaths.evolve`) or origin-driven worklist scheduling
(:mod:`optpaths.monarchy`), verified against independent oracles
(:mod:`optpaths.oracles`), with deterministic instance generators
(:mod:`optpaths.generators`) and a CLI/benchmark front end
(:mod:`optpaths.cli`).  It needs only the standard library; a C compiler,
when present, builds the compiled lane of :mod:`optpaths.fastlane`.
"""

from .evolve import eom, eom_two_course
from .generators import (GridSpec, HzpPlan, gen_grid, gen_random_graph,
                         serpentine_path, shape_sweep_specs, splitmix64)
from .graph import (UNSET, Arc, CostAlgebra, Graph, GraphError,
                    InstanceFormatError, build_graph, graph_from_columns,
                    in_neighbors, leaves, min_plus_algebra, read_instance,
                    read_instance_file, write_instance, write_instance_file)
from .monarchy import (SchedulerKind, StatusMap, classify_status,
                       run_scheduler)
from .oracles import (OracleResult, VerificationReport, bellman_ford_oracle,
                      brute_force_oracle, check_fixpoint, check_reachability,
                      check_tree, dijkstra_oracle, minhop_dp_oracle,
                      verify_export)
from .partition import (UNREACHED, HdaReport, OptReport, Regions,
                        SolverState, export_results, export_results_file,
                        hda_multi, relax)
from .pipeline import (ALGORITHMS, InvariantViolation, PipelineResult,
                       run_pipeline)

__version__ = "0.1.0"

