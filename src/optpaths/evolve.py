"""Fixpoint sweeps: repeat full pull passes over the discovery order.

Each sweep walks the partition's discovery order and lets every node pull
from all of its in-neighbors; the run halts after the first sweep with zero
accepted relaxations.  On halt the costs are the true optima for every
reached node (no arc anywhere can still improve its endpoint), turning the
partition phase's min-hop-restricted labels into exact ones.

The two-course variant alternates the sweep direction, running every even
sweep tail-to-head.  It reaches the identical fixpoint -- the final result
does not depend on the processing order -- but corrections that run against
the layer ranking propagate in batch instead of one step per sweep, which
cuts the sweep count sharply on tall planted-zero-path grids.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .graph import CostAlgebra, Graph
from .partition import OptReport, Regions, SolverState, relax


def eom(g: Graph, regions: Regions, state: SolverState, algebra: CostAlgebra,
        debug_check: Optional[Callable[[int], None]] = None) -> OptReport:
    """Head-to-tail sweeps until a clean pass."""
    return _sweep_to_fixpoint(g, regions, state, algebra, False, debug_check)


def eom_two_course(g: Graph, regions: Regions, state: SolverState,
                   algebra: CostAlgebra,
                   debug_check: Optional[Callable[[int], None]] = None,
                   ) -> OptReport:
    """Alternating-direction sweeps; identical fixpoint, fewer passes."""
    return _sweep_to_fixpoint(g, regions, state, algebra, True, debug_check)


def _sweep_to_fixpoint(g, regions, state, algebra, two_course, debug_check):
    t0 = time.perf_counter()
    order = regions.order
    region_of = regions.region_of
    rev_ptr = g.rev_ptr.tolist()
    rev_src = g.rev_src.tolist()
    rev_w = g.rev_w.tolist()

    big_loops = 0
    improvements = 0
    node_scans = 0
    arc_relaxations = 0
    regular = 0
    wrong = 0

    while True:
        flag = 0
        sweep = reversed(order) if (two_course and big_loops % 2 == 1) else order
        for u in sweep:
            node_scans += 1
            ru = region_of[u]
            for k in range(rev_ptr[u], rev_ptr[u + 1]):
                v = rev_src[k]
                if not state.labeled(v):
                    continue
                arc_relaxations += 1
                if relax(state, algebra, v, u, rev_w[k]):
                    flag += 1
                    if ru > region_of[v]:
                        regular += 1
                    else:
                        wrong += 1
        big_loops += 1
        improvements += flag
        if debug_check is not None:
            debug_check(big_loops)
        if flag == 0:
            break

    return OptReport(big_loops, node_scans, improvements, regular, wrong,
                     arc_relaxations, (time.perf_counter() - t0) * 1e3)
