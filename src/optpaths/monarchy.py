"""Origin-driven push-relaxation with three worklist schedulers.

After the partition phase, a single classification pass screens the reached
nodes: a node that some neighbor can still improve is dormant (it will be
corrected, not trusted), and a node that improves nobody is dormant too.
The survivors -- nodes that improve a neighbor and that nobody improves --
are the origin candidates, and the scheduling phase lets their influence
diffuse by active pushes until no improving arc remains.

Schedulers differ only in how the worklist pointer moves over the discovery
order after a node improves some leaves:

* HRP (high rank priority): sweep left to right, and whenever an improved
  leaf sits at an earlier position, jump the pointer back to it.
* FR (free roaming): always jump to the improved leaf of highest rank
  (smallest position), forward or backward, and wrap at the array end.
* HT (hunting and tracing): like FR, but remember where the current chase
  started and return there (plus one) as soon as the chase hits a node that
  improves nothing.

All three halt when a full wrap-to-wrap cycle accepts zero relaxations, and
all three end at the same fixpoint costs as the plain sweeps.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .graph import CostAlgebra, Graph, GraphError
from .partition import SCHEDULERS, OptReport, Regions, SolverState, relax


class StatusMap:
    """Binary activity map over nodes (1 = origin candidate, 0 = dormant)."""


    def __init__(self, status: list[int], origin_count: int):
        self.status = status
        self.origin_count = origin_count


def classify_status(g: Graph, state: SolverState, algebra: CostAlgebra,
                    regions: Regions) -> StatusMap:
    """Screen reached nodes into origin candidates and dormant ones.

    Starts with every reached node active, then one read-only pass over the
    discovery order: any leaf the current root could improve is knocked
    dormant (it is correctable, hence not a pure origin), and a root that
    improves no leaf is knocked dormant itself.  Survivors are the origins.
    """
    status = [0] * (state.n + 1)
    for u in regions.order:
        status[u] = 1
    fwd_ptr = g.fwd_ptr.tolist()
    fwd_dst = g.fwd_dst.tolist()
    fwd_w = g.fwd_w.tolist()
    extend = algebra.extend
    better = algebra.better
    cost = state.cost
    for u in regions.order:
        cu = cost[u]
        improves_any = False
        for k in range(fwd_ptr[u], fwd_ptr[u + 1]):
            v = fwd_dst[k]
            if better(extend(cu, fwd_w[k]), cost[v]):
                status[v] = 0
                improves_any = True
        if not improves_any:
            status[u] = 0
    return StatusMap(status=status, origin_count=sum(status))


def run_scheduler(kind: str, g: Graph, regions: Regions,
                  state: SolverState, statuses: StatusMap,
                  algebra: CostAlgebra,
                  debug_check: Optional[Callable[[int], None]] = None,
                  ) -> OptReport:
    """Drive push-relaxation to the fixpoint under the pointer rule ``kind``,
    one of :data:`partition.SCHEDULERS`; any other kind raises GraphError."""
    try:
        code = SCHEDULERS.index(kind)
    except ValueError:
        raise GraphError(f"unknown scheduler kind: {kind!r}") from None

    t0 = time.perf_counter()
    order = regions.order
    position_of = regions.position_of
    region_of = regions.region_of
    status = statuses.status
    fwd_ptr = g.fwd_ptr.tolist()
    fwd_dst = g.fwd_dst.tolist()
    fwd_w = g.fwd_w.tolist()

    n_order = len(order)
    big_loops = 1
    node_scans = 0
    improvements = 0
    regular = 0
    wrong = 0
    arc_relaxations = 0
    cycle_flag = 0
    chase_start = 0  # 0 = no chase in flight (HT only)

    i = 1
    while True:
        if i > n_order:
            if debug_check is not None:
                debug_check(big_loops)
            if cycle_flag == 0:
                break
            cycle_flag = 0
            big_loops += 1
            chase_start = 0
            i = 1
            continue
        u = order[i - 1]
        node_scans += 1
        if status[u] != 1:
            i += 1
            continue
        best_pos = 0
        ru = region_of[u]
        arc_relaxations += fwd_ptr[u + 1] - fwd_ptr[u]
        for k in range(fwd_ptr[u], fwd_ptr[u + 1]):
            v = fwd_dst[k]
            if relax(state, algebra, u, v, fwd_w[k]):
                improvements += 1
                cycle_flag += 1
                status[v] = 1
                if region_of[v] > ru:
                    regular += 1
                else:
                    wrong += 1
                pv = position_of[v]
                if best_pos == 0 or pv < best_pos:
                    best_pos = pv
        status[u] = 0
        if best_pos:
            if code == 0:  # HRP: only ever jump backwards
                i = best_pos if best_pos < i else i + 1
            else:  # FR / HT: chase the highest-rank improved leaf
                if code == 2 and chase_start == 0:
                    chase_start = i
                i = best_pos
        else:
            if code == 2 and chase_start:
                i = chase_start + 1
                chase_start = 0
            else:
                i += 1

    return OptReport(big_loops, node_scans, improvements, regular, wrong,
                     arc_relaxations, (time.perf_counter() - t0) * 1e3)
