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
``verify_export`` without an algebra first asks the compiled audit of
:mod:`fastlane` whether the export is clean, and runs the reference audit
only when it is not (or cannot say).
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple, Optional, Sequence

from . import fastlane
from .graph import (UNSET, CostAlgebra, Graph, NodeId, in_neighbors, leaves,
                    min_plus_algebra)
from .partition import UNREACHED, Regions, SolverState


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


# ---------------------------------------------------------------------------
# Structural audits.  One core over any integer sequences, lists or int64
# arrays -- a memoized parent-chain walk and one pass over the forward arcs
# -- serves both the solver-state checks and the audit of an exported result.
# ---------------------------------------------------------------------------

def _chain_colors(parent: Sequence[int], is_root: Sequence[int],
                  live: Sequence[int], rep: VerificationReport,
                  check: str) -> list[int]:
    """Walk the parent chain of every live node once (memoized), O(n) total.

    A cycle or a dead end (a non-root without a parent) is reported once,
    by the walk that finds it.  Returns a color array: 2 = the chain
    reaches a root, 3 = broken.
    """
    n = len(parent) - 1
    color = [0] * (n + 1)  # 0 unknown, 1 on current walk, 2 good, 3 bad
    for v in range(1, n + 1):
        if not live[v] or color[v]:
            continue
        path = [v]
        color[v] = 1
        u = v
        verdict = 2
        while not is_root[u]:
            p = parent[u]
            if p == UNSET:
                rep.add(check, f"node {v}", "chain to a source",
                        f"dead end at {u}")
                verdict = 3
                break
            if color[p] == 1:
                cyc = path[path.index(p):]
                rep.add(check, f"node {v}", "chain to a source",
                        f"cycle {cyc + [p]}")
                verdict = 3
                break
            if color[p]:
                verdict = color[p]
                break
            color[p] = 1
            path.append(p)
            u = p
        for x in path:
            color[x] = verdict
    return color


def _arc_pass(g: Graph, parent: Sequence[int],
              fits: Optional[Callable[[int, int, int], bool]],
              cost: Sequence[int], has_cost: Optional[Sequence[int]],
              algebra: CostAlgebra, rep: VerificationReport) -> list[bool]:
    """One pass over the forward arcs for the parent-arc and fixpoint checks.

    With ``fits``, returns per node ``v`` whether some arc ``(p, v, w)`` with
    ``p == parent[v]`` has ``fits(p, v, w)``.  With ``has_cost`` (false
    where a node is unreached), reports every arc out of a reached node
    whose endpoint is unreached or can still be improved.
    """
    n = g.n
    fwd_ptr = g.fwd_ptr.tolist()
    fwd_dst = g.fwd_dst.tolist()
    fwd_w = g.fwd_w.tolist()
    extend, better = algebra.extend, algebra.better
    found = [False] * (n + 1)
    for u in range(1, n + 1):
        reached = has_cost is not None and has_cost[u]
        for k in range(fwd_ptr[u], fwd_ptr[u + 1]):
            v = fwd_dst[k]
            w = fwd_w[k]
            if fits is not None and parent[v] == u and fits(u, v, w):
                found[v] = True
            if not reached:
                continue
            if not has_cost[v]:
                rep.add("fixpoint", f"arc ({u},{v},{w})",
                        "endpoint labeled", "unreached endpoint")
                continue
            c = extend(cost[u], w)
            if better(c, cost[v]):
                rep.add("fixpoint", f"arc ({u},{v},{w})",
                        f"cost[{v}] <= {c}", cost[v])
    return found


def _labeled(state: SolverState) -> list[bool]:
    return [state.labeled(v) for v in range(state.n + 1)]


def check_tree(state: SolverState, g: Graph,
               algebra: CostAlgebra) -> VerificationReport:
    """Audit the parent array: arcs exist, costs are consistent, no cycles.

    The parent ``p`` of ``v`` needs an arc ``(p, v, w)`` through which
    ``cost[v]`` is not better than ``extend(cost[p], w)``.  Mid-run, under
    an isotone algebra, a parent that improves after ``v`` adopts it leaves
    ``cost[v]`` stale-worse, which is sound; exact equality is the fixpoint
    audit's job.
    """
    rep = VerificationReport()
    parent, cost = state.parent, state.cost
    extend, better = algebra.extend, algebra.better
    found = _arc_pass(g, parent,
                      lambda p, v, w: not better(cost[v], extend(cost[p], w)),
                      cost, None, algebra, rep)
    for v in range(1, state.n + 1):
        p = parent[v]
        if p == UNSET or found[v]:
            continue
        offers = [extend(cost[p], w) for x, w in leaves(g, p) if x == v]
        if not offers:
            rep.add("parent-arc", f"node {v}", f"arc ({p},{v}) in graph",
                    "absent")
            continue
        best = next(c for c in offers if not any(better(d, c) for d in offers))
        rep.add("cost-consistency", f"node {v}", f"cost >= {best}", cost[v])
    _chain_colors(parent, state.is_source, _labeled(state), rep, "acyclic")
    # sources never carry a parent
    for s in state.sources:
        if parent[s] != UNSET:
            rep.add("source-root", f"source {s}", UNSET, parent[s])
    return rep


def check_reachability(state: SolverState, regions: Regions) -> VerificationReport:
    """Every partition-reached node must still hang off a source in the tree."""
    rep = VerificationReport()
    n = state.n
    live = _labeled(state)
    reached = sum(1 for v in range(1, n + 1) if regions.position_of[v] != 0)
    labeled = sum(live)
    if reached != labeled:
        rep.add("reached-set", "partition vs tree",
                f"{reached} reached", f"{labeled} labeled")
    for v in range(1, n + 1):
        if regions.position_of[v] != 0 and not live[v]:
            rep.add("reached-set", f"node {v}", "labeled", "unlabeled")
    color = _chain_colors(state.parent, state.is_source, live, rep,
                          "reachable")
    for v in range(1, n + 1):
        if regions.position_of[v] != 0 and live[v] and color[v] != 2:
            rep.add("reachable", f"node {v}", "chain to a source", "broken chain")
    return rep


def check_fixpoint(g: Graph, state: SolverState,
                   algebra: CostAlgebra) -> VerificationReport:
    """No arc from a labeled node may still improve its endpoint."""
    rep = VerificationReport()
    _arc_pass(g, state.parent, None, state.cost, _labeled(state), algebra, rep)
    return rep


def verify_export(g: Graph, region: Sequence[int], parent: Sequence[int],
                  cost: Sequence[int], has_cost: Sequence[int],
                  algebra: Optional[CostAlgebra] = None,
                  fixpoint: bool = False,
                  tags: Optional[Sequence[int]] = None) -> VerificationReport:
    """Audit an exported result against its instance.

    The columns are per-node lists or int64 arrays; ``has_cost[v]`` is 0
    where the export says ``UNREACHED``.  Roots are the reached nodes
    without a parent (the sources).  Checks:
    every root costs ``algebra.zero``; without ``tags`` there is exactly
    one root, since ``solve`` writes the tag column exactly when a run has
    two or more sources, and with ``tags`` at least two; parent arcs exist
    and are cost-consistent, parent chains reach a root, regions equal hop
    layers recomputed by an independent breadth-first search from the
    roots, and optionally that no arc can still improve.  With ``tags``,
    every root must tag itself, every other reached node must carry its
    parent's tag, and every unreached node must carry 0.

    The lane follows ``run_pipeline``'s rule: with no ``algebra``, the
    compiled audit (:func:`fastlane.export_is_clean`) runs first when the
    lane loads, and an export it certifies gets an empty report at once;
    anything else, and any explicit algebra, gets this reference audit
    under min-plus or that algebra, which names every failure.
    """
    if algebra is None:
        if fastlane.export_is_clean(g, region, parent, cost, has_cost,
                                    fixpoint, tags):
            return VerificationReport()
        algebra = min_plus_algebra()
    rep = VerificationReport()
    n = g.n
    reached = [r != 0 for r in region]
    is_root = [reached[v] and parent[v] == UNSET for v in range(n + 1)]
    roots = [v for v in range(1, n + 1) if is_root[v]]
    if not roots:
        rep.add("roots", "export", "at least one parentless reached node", "none")
        return rep
    if tags is None and len(roots) > 1:
        rep.add("roots", "export",
                "one parentless reached node without a tag column", len(roots))
    elif tags is not None and len(roots) < 2:
        rep.add("roots", "export",
                "two or more parentless reached nodes with a tag column",
                len(roots))
    extend = algebra.extend
    fix = VerificationReport()  # fixpoint failures are listed last
    found = _arc_pass(
        g, parent,
        lambda p, v, w: (has_cost[p] and has_cost[v]
                         and extend(cost[p], w) == cost[v]),
        cost, has_cost if fixpoint else None, algebra, fix)
    for v in range(1, n + 1):
        if not reached[v]:
            if parent[v] != UNSET or has_cost[v]:
                rep.add("unreached", f"node {v}", "no parent/cost", "labeled")
            continue
        if not has_cost[v]:
            rep.add("cost", f"node {v}", "finite cost for reached node", UNREACHED)
            continue
        p = parent[v]
        if p == UNSET:
            if cost[v] != algebra.zero:
                rep.add("root-cost", f"node {v}", algebra.zero, cost[v])
            continue
        if not reached[p] or not has_cost[p]:
            rep.add("parent", f"node {v}", "reached parent", f"unreached {p}")
            continue
        if not found[v]:
            rep.add("parent-arc", f"node {v}",
                    f"arc ({p},{v}) with weight {cost[v]}-{cost[p]}", "absent")
    if tags is not None:
        for v in range(1, n + 1):
            want = (0 if not reached[v] else v if is_root[v]
                    else tags[parent[v]])
            if tags[v] != want:
                rep.add("tag", f"node {v}", want, tags[v])
    _chain_colors(parent, is_root, reached, rep, "acyclic")
    # regions == hop layers from the roots (independent BFS)
    level, _ = _bfs_levels(g, roots)
    for v in range(1, n + 1):
        if level[v] != region[v]:
            rep.add("region", f"node {v}", level[v], region[v])
    rep.failures += fix.failures
    return rep
