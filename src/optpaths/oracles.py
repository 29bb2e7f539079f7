"""Independent reference solvers and structural audits.

Nothing here shares code with the production solvers: the heap-based
label-setting solver and the round-based full-relaxation solver are textbook
baselines used to certify every fixpoint claim, the layered dynamic program
reproduces the partition phase's min-hop-restricted semantics, and the
brute-force path enumerator (tiny instances only) certifies the oracles
themselves.  The ``check_*`` audits verify tree shape, reachability and the
no-improving-arc fixpoint condition directly on a solver state, and
``verify_export`` audits an exported result with the same core; all honour
the cost algebra and collect every failure rather than stopping at the first.
The audits themselves are in :mod:`coldpath`, which loads on the first of
them; ``check_tree``, ``check_reachability``, ``check_fixpoint`` and
``verify_export`` stay names of this module.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional

from .graph import UNSET, CostAlgebra, Graph, NodeId, in_neighbors, leaves

#: the audits of a solver state and of an export, defined in :mod:`coldpath`
_AUDITS = ("check_tree", "check_reachability", "check_fixpoint",
           "verify_export")


def __getattr__(name: str):
    # the audits load with coldpath, only when a debug run or a caller
    # reads them
    if name in _AUDITS:
        from . import coldpath
        return getattr(coldpath, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class OracleResult(NamedTuple):
    """Distances (None = unreached) and parents (0 = unset) per node, 1-based."""

    dist: list[Optional[int]]
    parent: list[int]


class VerificationReport:
    """The failures of one audit, as (check, where, expected, got)."""


    def __init__(self, failures=None):
        self.failures: list[tuple[str, str, object, object]] = (
            [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, check: str, where: str, expected, got) -> None:
        self.failures.append((check, where, expected, got))

    def summary(self) -> str:
        if self.ok:
            return "OK"
        lines = [f"{len(self.failures)} failure(s):"]
        lines += [
            f"  [{check}] {where}: expected {exp}, got {got}"
            for check, where, exp, got in self.failures
        ]
        return "\n".join(lines)


def dijkstra_oracle(g: Graph, source: NodeId, algebra: CostAlgebra) -> OracleResult:
    """Label-setting with a binary heap; exact on nonnegative weights."""
    n = g.n
    dist: list[Optional[int]] = [None] * (n + 1)
    parent = [UNSET] * (n + 1)
    done = [False] * (n + 1)
    dist[source] = algebra.zero
    heap: list[tuple[int, int]] = [(algebra.zero, source)]
    fwd_ptr = g.fwd_ptr.tolist()
    fwd_dst = g.fwd_dst.tolist()
    fwd_w = g.fwd_w.tolist()
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for k in range(fwd_ptr[u], fwd_ptr[u + 1]):
            v = fwd_dst[k]
            w = algebra.extend(du, fwd_w[k])
            if dist[v] is None or algebra.better(w, dist[v]):
                dist[v] = w
                parent[v] = u
                heapq.heappush(heap, (w, v))
    return OracleResult(dist, parent)


def bellman_ford_oracle(g: Graph, source: NodeId, algebra: CostAlgebra) -> OracleResult:
    """n-1 rounds of full relaxation over every adjacency entry."""
    n = g.n
    dist: list[Optional[int]] = [None] * (n + 1)
    parent = [UNSET] * (n + 1)
    dist[source] = algebra.zero
    fwd_ptr = g.fwd_ptr.tolist()
    fwd_dst = g.fwd_dst.tolist()
    fwd_w = g.fwd_w.tolist()
    for _ in range(n - 1):
        changed = False
        for u in range(1, n + 1):
            du = dist[u]
            if du is None:
                continue
            for k in range(fwd_ptr[u], fwd_ptr[u + 1]):
                v = fwd_dst[k]
                w = algebra.extend(du, fwd_w[k])
                if dist[v] is None or algebra.better(w, dist[v]):
                    dist[v] = w
                    parent[v] = u
                    changed = True
        if not changed:
            break
    return OracleResult(dist, parent)


def _bfs_levels(g: Graph, roots: list[int]) -> tuple[list[int], list[int]]:
    """Hop levels by breadth-first search over forward arcs, and the order.

    Roots sit at level 1 and unreached nodes at 0; the order lists the
    reached nodes as the search discovers them, roots first.
    """
    level = [0] * (g.n + 1)
    for r in roots:
        level[r] = 1
    order = list(roots)
    fwd_ptr = g.fwd_ptr.tolist()
    fwd_dst = g.fwd_dst.tolist()
    for u in order:  # the loop also visits the nodes it appends
        next_level = level[u] + 1
        for k in range(fwd_ptr[u], fwd_ptr[u + 1]):
            v = fwd_dst[k]
            if level[v] == 0:
                level[v] = next_level
                order.append(v)
    return level, order


def minhop_dp_oracle(g: Graph, source: NodeId, algebra: CostAlgebra) -> OracleResult:
    """Best cost among minimum-hop paths, computed level by level.

    Levels come from a plain breadth-first search over forward arcs; each
    node then takes the strictly best extension over in-neighbors exactly
    one level up, first-seen winning ties.
    """
    n = g.n
    level, order = _bfs_levels(g, [source])
    dist: list[Optional[int]] = [None] * (n + 1)
    parent = [UNSET] * (n + 1)
    dist[source] = algebra.zero
    for v in order:
        if v == source:
            continue
        best = None
        best_u = UNSET
        for u, w in in_neighbors(g, v):
            if level[u] != level[v] - 1 or dist[u] is None:
                continue
            cand = algebra.extend(dist[u], w)
            if best is None or algebra.better(cand, best):
                best = cand
                best_u = u
        dist[v] = best
        parent[v] = best_u
    return OracleResult(dist, parent)


#: the largest graph :func:`brute_force_oracle` enumerates
MAX_BRUTE_N = 12


def brute_force_oracle(g: Graph, source: NodeId,
                       algebra: CostAlgebra) -> OracleResult:
    """Exhaustive simple-path enumeration; certification of the oracles only."""
    if g.n > MAX_BRUTE_N:
        raise ValueError(f"brute force capped at n <= {MAX_BRUTE_N}, got n={g.n}")
    dist: list[Optional[int]] = [None] * (g.n + 1)
    parent = [UNSET] * (g.n + 1)
    dist[source] = algebra.zero
    on_path = [False] * (g.n + 1)

    def walk(u: int, cost: int) -> None:
        on_path[u] = True
        for v, w in leaves(g, u):
            if on_path[v]:
                continue
            c = algebra.extend(cost, w)
            if dist[v] is None or algebra.better(c, dist[v]):
                dist[v] = c
                parent[v] = u
            walk(v, c)
        on_path[u] = False

    walk(source, algebra.zero)
    return OracleResult(dist, parent)
