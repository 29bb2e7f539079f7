"""The one dispatcher tying partition, classification and optimization together.

Every command that solves -- ``solve`` (``multi`` included), ``compare`` and
``bench`` -- calls ``run_pipeline``: it runs the partition phase from the
source set, then the selected optimizer, and returns all phase reports plus
the final state.  A run has per-node source tags exactly when it has two or
more distinct sources.  With ``debug_invariants`` set, the tree and
reachability audits run under the run's cost algebra at every big-loop
boundary and any failure raises :class:`InvariantViolation` (the reached
labeled set must also never shrink).

``run_pipeline`` also picks the lane, from its inputs alone.  It runs the
compiled min-plus lane of :mod:`fastlane` exactly when no algebra is passed,
``debug_invariants`` is off and :func:`fastlane.refusal` has no objection
(a compiler is there and the graph is inside the int64 bound); otherwise it
runs the generic reference lane, so an explicit algebra -- even
:func:`min_plus_algebra` -- or a debug run always gets the reference lane.
Both lanes give identical states, tags and counters.
``PipelineResult.lane`` records the lane that ran.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from . import fastlane
from .evolve import eom, eom_two_course
from .graph import CostAlgebra, Graph, GraphError, min_plus_algebra
from .monarchy import classify_status, run_scheduler
from .oracles import check_reachability, check_tree
from .partition import HdaReport, OptReport, Regions, SolverState, hda_multi

ALGORITHMS = ("hda", "eom", "eom2", "hrp", "fr", "ht")


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


def _debug_hook(g: Graph, regions: Regions, state: SolverState, label: str,
                algebra: CostAlgebra):
    reached_sizes = []

    def hook(big_loop: int) -> None:
        rep = check_tree(state, g, algebra)
        if not rep.ok:
            raise InvariantViolation(
                f"{label}: tree audit failed at big loop {big_loop}:\n"
                + rep.summary())
        rep = check_reachability(state, regions)
        if not rep.ok:
            raise InvariantViolation(
                f"{label}: reachability audit failed at big loop {big_loop}:\n"
                + rep.summary())
        labeled = sum(1 for v in range(1, state.n + 1) if state.labeled(v))
        if reached_sizes and labeled < reached_sizes[-1]:
            raise InvariantViolation(
                f"{label}: labeled set shrank at big loop {big_loop}: "
                f"{reached_sizes[-1]} -> {labeled}")
        reached_sizes.append(labeled)

    return hook


def run_pipeline(g: Graph, sources: Sequence[int], algo: str,
                 algebra: Optional[CostAlgebra] = None,
                 debug_invariants: bool = False) -> PipelineResult:
    if algo not in ALGORITHMS:
        raise GraphError(f"unknown algorithm {algo!r}; pick one of {ALGORITHMS}")
    if (algebra is None and not debug_invariants
            and fastlane.refusal(g, sources) is None):
        return _run_fast(g, sources, algo)
    if algebra is None:
        algebra = min_plus_algebra()

    regions, state, hda_rep = hda_multi(g, sources, algebra)
    hook = None
    if debug_invariants:
        hook = _debug_hook(g, regions, state, algo, algebra)
        hook(0)  # audit the partition output itself

    if algo == "hda":
        return PipelineResult(algo, regions, state, hda_rep, 0.0, 0, None)
    if algo in ("eom", "eom2"):
        run = eom if algo == "eom" else eom_two_course
        rep = run(g, regions, state, algebra, debug_check=hook)
        return PipelineResult(algo, regions, state, hda_rep, 0.0, 0, rep)

    t0 = time.perf_counter()
    statuses = classify_status(g, state, algebra, regions)
    classify_ms = (time.perf_counter() - t0) * 1e3
    rep = run_scheduler(algo, g, regions, state, statuses, algebra,
                        debug_check=hook)
    return PipelineResult(algo, regions, state, hda_rep, classify_ms,
                          statuses.origin_count, rep)


def _run_fast(g: Graph, sources: Sequence[int], algo: str) -> PipelineResult:
    run = fastlane.FastRun(g, sources)
    if algo == "hda":
        rep = None
    elif algo in ("eom", "eom2"):
        rep = run.eom(two_course=(algo == "eom2"))
    else:
        run.classify()
        rep = run.schedule(algo)
    return PipelineResult(algo, run.regions, run.state, run.hda_report,
                          run.classify_ms, run.origin_count, rep, "compiled")
