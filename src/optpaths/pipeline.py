"""The one dispatcher tying partition, classification and optimization together.

Every command that solves -- ``solve`` (``multi`` included), ``compare`` and
``bench`` -- calls ``run_pipeline``: it runs the partition phase from the
source set, then the selected optimizer, and returns all phase reports plus
the final state.  A run has per-node source tags exactly when it has two or
more distinct sources, and each tag names the source its node's parent
chain ends at.  With ``debug_invariants`` set, the tree and
reachability audits run under the run's cost algebra at every big-loop
boundary and any failure raises :class:`InvariantViolation` (the reached
labeled set must also never shrink).

``run_pipeline`` also picks the lane, from its inputs alone.  It runs the
compiled min-plus lane of :mod:`fastlane` exactly when no algebra is passed,
``debug_invariants`` is off and :class:`fastlane.FastRun` takes the run
(:func:`fastlane.refusal` has no objection: a compiler is there and the
graph is inside the int64 bound); otherwise it runs the generic reference
lane, so an explicit algebra -- even :func:`min_plus_algebra` -- or a debug
run always gets the reference lane.  A bad source or a malformed CSR makes
``FastRun`` raise, and the reference lane then raises the same GraphError.
The reference lane's code beyond the solvers themselves, its CSR
check, debug hook and multi-source retagging, is in :mod:`coldpath`.  Both
lanes give identical states, tags and counters.  ``PipelineResult.lane``
records the lane that ran.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from . import fastlane
from .graph import CostAlgebra, Graph, GraphError, min_plus_algebra
from .partition import (SCHEDULERS, HdaReport, OptReport, Regions,
                        SolverState, hda_multi)

ALGORITHMS = ("hda", "eom", "eom2", *SCHEDULERS)


class InvariantViolation(AssertionError):
    """A big-loop audit failed during a debug-instrumented run."""


class PipelineResult:
    """What one :func:`run_pipeline` call returns; ``lane`` is
    ``"reference"`` or ``"compiled"``."""


    def __init__(self, algo: str, regions: Regions, state: SolverState,
                 hda_report: HdaReport, classify_ms: float, origins: int,
                 opt_report: Optional[OptReport], lane: str = "reference"):
        self.algo = algo
        self.regions = regions
        self.state = state
        self.hda_report = hda_report
        self.classify_ms = classify_ms
        self.origins = origins
        self.opt_report = opt_report
        self.lane = lane


def run_pipeline(g: Graph, sources: Sequence[int], algo: str,
                 algebra: Optional[CostAlgebra] = None,
                 debug_invariants: bool = False) -> PipelineResult:
    if algo not in ALGORITHMS:
        raise GraphError(f"unknown algorithm {algo!r}; pick one of {ALGORITHMS}")
    if algebra is None and not debug_invariants:
        try:
            run = fastlane.FastRun(g, sources)
        except GraphError:
            pass  # the reference lane runs it, or raises the same fault
        else:
            rep = None
            if algo in ("eom", "eom2"):
                rep = run.eom(two_course=(algo == "eom2"))
            elif algo != "hda":
                run.classify()
                rep = run.schedule(algo)
            return PipelineResult(algo, run.regions, run.state,
                                  run.hda_report, run.classify_ms,
                                  run.origin_count, rep, "compiled")
    if algebra is None:
        algebra = min_plus_algebra()

    from . import coldpath
    coldpath.check_csr(g)
    regions, state, hda_rep = hda_multi(g, sources, algebra)
    hook = None
    if debug_invariants:
        hook = coldpath.debug_hook(g, regions, state, algo, algebra)
        hook(0)  # audit the partition output itself

    classify_ms, origins, rep = 0.0, 0, None
    if algo in ("eom", "eom2"):
        from .evolve import eom, eom_two_course
        run = eom if algo == "eom" else eom_two_course
        rep = run(g, regions, state, algebra, debug_check=hook)
    elif algo != "hda":
        from .monarchy import classify_status, run_scheduler
        t0 = time.perf_counter()
        statuses = classify_status(g, state, algebra, regions)
        classify_ms = (time.perf_counter() - t0) * 1e3
        origins = statuses.origin_count
        rep = run_scheduler(algo, g, regions, state, statuses, algebra,
                            debug_check=hook)
    if state.tags is not None:
        coldpath.root_tags(state)
    return PipelineResult(algo, regions, state, hda_rep, classify_ms, origins,
                          rep)
