"""The one dispatcher tying partition, classification and optimization together.

Every command that solves -- ``solve`` (``multi`` included), ``compare`` and
``bench`` -- calls ``run_pipeline``: it runs the partition phase from the
source set, then the selected optimizer, and returns all phase reports plus
the final state.  Once the last timed phase is done, one walk of the final
parent chains (:func:`oracles.root_tags`) tags each node of a run from two or
more distinct sources with the source its chain ends at.  With
``debug_invariants`` set, the tree and reachability audits run under the
run's cost algebra at every big-loop boundary and any failure raises
:class:`InvariantViolation` (the reached labeled set must also never shrink).

``run_pipeline`` checks the sources (:func:`partition.source_set`) before
it picks a lane, and times the phases of both lanes: ``hda_ms`` includes
the CSR check, and each phase its debug audits.  The clock starts once the
compiled lane has resolved, so a first-use compile is in no phase.

``run_pipeline`` also picks the lane, from its inputs alone.  It runs the
compiled min-plus lane of :mod:`fastlane` exactly when no algebra is passed
and :class:`fastlane.FastRun` takes the run (:func:`fastlane.refusal` has
no objection: a compiler is there and the graph is inside the int64
bound); otherwise it runs the generic reference lane, so an explicit
algebra -- even :func:`min_plus_algebra` -- always gets the reference lane.
A malformed CSR makes ``FastRun`` raise, and the reference lane then raises
the same GraphError.  The debug hook, built once after either lane's
partition, audits either lane: only then does the compiled optimizer
return to Python once per big loop.  It is in :mod:`oracles`, with the
reference lane's CSR check and tag walk.  Both lanes give identical states,
tags and counters.  ``PipelineResult.lane`` records the lane that ran.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from . import fastlane
from .graph import CostAlgebra, Graph, GraphError, min_plus_algebra
from .partition import (SCHEDULERS, HdaReport, OptReport, Regions,
                        SolverState, hda_multi, source_set)

ALGORITHMS = ("hda", "eom", "eom2", *SCHEDULERS)


class InvariantViolation(AssertionError):
    """A big-loop audit failed during a debug-instrumented run."""


class PipelineResult:
    """What one :func:`run_pipeline` call returns; ``lane`` is
    ``"reference"`` or ``"compiled"``.  The ``*_ms`` phase times read 0.0
    for a phase that did not run."""


    def __init__(self, algo: str, regions: Regions, state: SolverState,
                 hda_report: HdaReport, origins: int,
                 opt_report: Optional[OptReport], lane: str = "reference",
                 hda_ms: float = 0.0, classify_ms: float = 0.0,
                 schedule_ms: float = 0.0):
        self.algo = algo
        self.regions = regions
        self.state = state
        self.hda_report = hda_report
        self.origins = origins
        self.opt_report = opt_report
        self.lane = lane
        self.hda_ms = hda_ms
        self.classify_ms = classify_ms
        self.schedule_ms = schedule_ms


def run_pipeline(g: Graph, sources: Sequence[int], algo: str,
                 algebra: Optional[CostAlgebra] = None,
                 debug_invariants: bool = False) -> PipelineResult:
    if algo not in ALGORITHMS:
        raise GraphError(f"unknown algorithm {algo!r}; pick one of {ALGORITHMS}")
    srcs = source_set(g, sources)
    compiled = algebra is None and fastlane.available()
    if algebra is None:
        algebra = min_plus_algebra()
    t0 = time.perf_counter()
    run = hook = None
    if compiled:
        try:
            run = fastlane.FastRun(g, srcs)
        except GraphError:
            pass  # the reference lane runs it, or names the malformed CSR
    if run is not None:
        regions, state, hda_rep = run.regions, run.state, run.hda_report
    else:
        from . import oracles
        oracles.check_csr(g)
        regions, state, hda_rep = hda_multi(g, srcs, algebra)
    if debug_invariants:
        from . import oracles
        hook = oracles.debug_hook(g, regions, state, algo, algebra)
        hook(0)  # audit the partition output itself
    t1 = t2 = time.perf_counter()

    origins, rep = 0, None
    if algo in ("eom", "eom2"):
        if run is not None:
            rep = run.eom(two_course=(algo == "eom2"), debug_check=hook)
        else:
            from .evolve import eom, eom_two_course
            sweep = eom if algo == "eom" else eom_two_course
            rep = sweep(g, regions, state, algebra, debug_check=hook)
    elif algo != "hda":
        if run is not None:
            origins = run.classify()
            t2 = time.perf_counter()
            rep = run.schedule(algo, debug_check=hook)
        else:
            from .monarchy import classify_status, run_scheduler
            statuses = classify_status(g, state, algebra, regions)
            origins = statuses.origin_count
            t2 = time.perf_counter()
            rep = run_scheduler(algo, g, regions, state, statuses, algebra,
                                debug_check=hook)
    t3 = t2 if rep is None else time.perf_counter()
    if len(srcs) > 1:
        state.tags = run.root_tags() if run else oracles.root_tags(state)
    return PipelineResult(algo, regions, state, hda_rep, origins, rep,
                          "reference" if run is None else "compiled",
                          (t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3)
