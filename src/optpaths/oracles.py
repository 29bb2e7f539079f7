"""Independent reference solvers, the audits, and the rest of the Python
that the compiled lane runs only to audit.

Nothing here shares code with the production solvers: the heap-based
label-setting solver and the round-based full-relaxation solver are textbook
baselines used to certify every fixpoint claim, the layered dynamic program
reproduces the partition phase's min-hop-restricted semantics, and the
brute-force path enumerator (tiny instances only) certifies the oracles
themselves.  The audits :func:`check_tree`, :func:`check_reachability` and
:func:`check_fixpoint` verify tree shape, reachability and the
no-improving-arc fixpoint condition directly on a solver state, and
:func:`verify_export`, the reference audit of an export, uses the same core;
all honour the cost algebra and collect every failure rather than stopping
at the first.  The core's one parent-chain walk also gives the source tags
of :func:`root_tags`, and ``optpaths_chain_roots`` mirrors it.

On the compiled lane of :mod:`fastlane` a command runs only the debug
audits here, and imports this module only where a kernel refuses its input,
a debug audit runs, no compiler loads, or the kernels must first be compiled.
Besides the oracles and the audits, it holds:

- the reference build (:func:`build_reference`) of
  :func:`graph.graph_from_columns`, and the reference readers of instance
  arc blocks (:func:`scan_arc_block`) and results files
  (:func:`scan_results`), which name the first fault the kernels refuse
  without naming; they read the decoded text of bytes already read, and
  open no file;
- the reference lane's CSR check (:func:`check_csr`) and its tagging of
  multi-source runs from the audit core's walk (:func:`root_tags`), and the
  debug hook of either lane (:func:`debug_hook`), for
  :func:`pipeline.run_pipeline`;
- the compile step of the kernels (:func:`build_kernels`).

A command that the compiled lane answers unaudited therefore never compiles
this module, which matters when the interpreter runs without bytecode caches.
"""

from __future__ import annotations

import contextlib
import heapq
import operator
import os
from array import array
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .graph import (_INT, INT64_MAX, UNSET, CostAlgebra, Graph, GraphError,
                    InstanceFormatError, NodeId, _allocate, _zeros,
                    in_neighbors, leaves, min_plus_algebra)
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
# -- serves both the solver-state checks and the audit of an exported result;
# the walk also gives root_tags its roots.
# All honour the cost algebra and collect every failure in a
# :class:`VerificationReport` rather than stopping at the first.
# ---------------------------------------------------------------------------

def _chain_roots(parent: Sequence[int], is_root: Sequence[int],
                 live: Sequence[int], rep, check: str) -> list[int]:
    """Walk the parent chain of every live node once (memoized), O(n) total.

    A cycle or a dead end (a non-root without a parent) is reported once,
    by the walk that finds it.  Returns per node the root its chain ends
    at, or 0 where the chain is broken or no live node's walk reaches it.
    """
    n = len(parent) - 1
    root = [0] * (n + 1)
    walk = [0] * (n + 1)  # the node whose walk first reached each node
    for v in range(1, n + 1):
        if not live[v] or walk[v]:
            continue
        path, u = [v], v
        walk[v] = v
        while not is_root[u]:
            p = parent[u]
            if p == UNSET or walk[p] == v:
                rep.add(check, f"node {v}", "chain to a source",
                        f"dead end at {u}" if p == UNSET
                        else f"cycle {path[path.index(p):] + [p]}")
                u = 0
                break
            if walk[p]:
                u = root[p]
                break
            walk[p] = v
            path.append(p)
            u = p
        for x in path:
            root[x] = u
    return root


def _arc_pass(g: Graph, parent: Sequence[int],
              fits: Optional[Callable[[int, int, int], bool]],
              cost: Sequence[int], has_cost: Optional[Sequence[int]],
              algebra: CostAlgebra, rep) -> list[bool]:
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


def check_tree(state: SolverState, g: Graph, algebra: CostAlgebra,
               live: Optional[Sequence[bool]] = None) -> VerificationReport:
    """Audit the parent array: arcs exist, costs are consistent, no cycles.

    The parent ``p`` of ``v`` needs an arc ``(p, v, w)`` through which
    ``cost[v]`` is not better than ``extend(cost[p], w)``.  Mid-run, under
    an isotone algebra, a parent that improves after ``v`` adopts it leaves
    ``cost[v]`` stale-worse, which is sound; exact equality is the fixpoint
    audit's job.  ``live``, if given, is ``_labeled(state)``.
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
    _chain_roots(parent, state.is_source,
                 _labeled(state) if live is None else live, rep, "acyclic")
    # sources never carry a parent
    for s in state.sources:
        if parent[s] != UNSET:
            rep.add("source-root", f"source {s}", UNSET, parent[s])
    return rep


def check_reachability(state: SolverState,
                       regions: Regions) -> VerificationReport:
    """Every partition-reached node must still hang off a source in the tree."""
    rep = VerificationReport()
    live = _labeled(state)
    _reached_set(live, regions, rep)
    root = _chain_roots(state.parent, state.is_source, live, rep, "reachable")
    for v in range(1, state.n + 1):
        if regions.position_of[v] != 0 and live[v] and not root[v]:
            rep.add("reachable", f"node {v}", "chain to a source", "broken chain")
    return rep


def _reached_set(live: Sequence[bool], regions: Regions, rep) -> int:
    """The reached-set checks into ``rep``; returns the labeled count."""
    reached = [v for v in range(1, len(live)) if regions.position_of[v] != 0]
    labeled = sum(live)
    if len(reached) != labeled:
        rep.add("reached-set", "partition vs tree",
                f"{len(reached)} reached", f"{labeled} labeled")
    for v in reached:
        if not live[v]:
            rep.add("reached-set", f"node {v}", "labeled", "unlabeled")
    return labeled


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
    """Audit an exported result against its instance, under ``algebra``
    (min-plus when None), and name every failure in a
    :class:`VerificationReport`.

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
    parent's tag, and every unreached node must carry 0.  A malformed CSR
    raises GraphError.

    This is the reference audit.  The ``verify`` command runs it only on
    an export that the compiled audit, :func:`fastlane.block_is_clean`,
    does not certify; that audit checks the regions without a search, by
    local conditions equivalent to the hop layers (see ``kernels.c``).
    """
    if algebra is None:
        algebra = min_plus_algebra()
    check_csr(g)
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
    _chain_roots(parent, is_root, reached, rep, "acyclic")
    # regions == hop layers from the roots (independent BFS)
    level, _ = _bfs_levels(g, roots)
    for v in range(1, n + 1):
        if level[v] != region[v]:
            rep.add("region", f"node {v}", level[v], region[v])
    rep.failures += fix.failures
    return rep


# -- the kernels' compile step ---------------------------------------------------

def build_kernels(path, command: Sequence[str], source) -> None:
    """Compile ``source`` to ``path`` with ``command``, to which
    ``-o <object> <source>`` is appended.

    The compiler writes a private temporary file that is then renamed into
    place, so concurrent builds of the same object cannot see a partial one.
    """
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([*command, "-o", tmp, str(source)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{command[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


# -- the reference build and readers -----------------------------------------------

def int64_overflow(arcs) -> str:
    """Name the first arc with a field outside int64."""
    lo, hi = -INT64_MAX - 1, INT64_MAX
    for i, arc in enumerate(arcs):
        if any(not lo <= int(x) <= hi for x in arc):
            return f"arc {i} ({','.join(map(str, arc))}): value outside int64"
    return "arc value outside int64"


def _first(bad: Iterable[bool]):
    """The index of the first true item, or None."""
    return next((i for i, b in enumerate(bad) if b), None)


def build_reference(n: int, head: array, tail: array, weight: array,
                    directed: bool) -> Graph:
    """The reference build: check the arcs, then sort them into CSR by a
    stable counting sort.  The first check that fails raises a GraphError
    naming its first arc: endpoints, then weights, then self-loops."""
    i = _first(not (1 <= h <= n and 1 <= t <= n) for h, t in zip(head, tail))
    if i is not None:
        raise GraphError(f"arc {i} ({head[i]},{tail[i]},{weight[i]}): "
                         f"endpoint out of range 1..{n}")
    i = _first(w < 0 for w in weight)
    if i is not None:
        raise GraphError(
            f"arc {i} ({head[i]},{tail[i]},{weight[i]}): negative weight")
    i = _first(map(operator.eq, head, tail))
    if i is not None:
        raise GraphError(f"arc {i} ({head[i]},{tail[i]}): self-loop")

    if directed:
        fwd = _counting_sort(n, head, tail, weight)
        rev = _counting_sort(n, tail, head, weight)
    else:
        # Both directions of each arc in turn, so that the per-node entry
        # order equals "append both ends while reading the list".
        k = len(head)
        key, dst, w2 = (_zeros(2 * k) for _ in range(3))
        key[0::2], key[1::2] = head, tail
        dst[0::2], dst[1::2] = tail, head
        w2[0::2], w2[1::2] = weight, weight
        fwd = rev = _counting_sort(n, key, dst, w2)
    return Graph(n, directed, fwd, rev, len(fwd[1]))


def _counting_sort(n: int, key: array, dst: array, w: array):
    """Bucket (key -> (dst, w)) entries into CSR, stable in input order."""
    ptr = _allocate(n + 2, f"node count {n}")
    for u in key:
        ptr[u + 1] += 1
    for u in range(1, n + 2):
        ptr[u] += ptr[u - 1]
    # ptr[u] now starts node u's entries; used as its cursor, it ends at the
    # start of node u + 1, and the shift below restores it.
    out_dst, out_w = _zeros(len(key)), _zeros(len(key))
    for u, v, x in zip(key, dst, w):
        j = ptr[u]
        ptr[u] = j + 1
        out_dst[j], out_w[j] = v, x
    ptr[1:] = ptr[:-1]
    return ptr, out_dst, out_w


def scan_arc_block(body: str, first_lineno: int, n: int, arc_count: int,
                   directed: bool) -> Graph:
    """The reference reader: the graph of an arc block, read line by line.

    ``body`` is the text after the header line, whose line number is
    ``first_lineno - 1``.  The first fault raises an InstanceFormatError:
    a malformed line by its number, then a wrong arc count, then whatever
    :func:`graph.build_graph` rejects.
    """
    from .graph import build_graph  # looked up per call: a tracer rebinds it

    arcs: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(body.split("\n"), start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InstanceFormatError(
                f"line {lineno}: expected '<head> <tail> <weight>'")
        if not all(_INT.match(p) for p in parts):
            raise InstanceFormatError(f"line {lineno}: non-integer field")
        arcs.append((int(parts[0]), int(parts[1]), int(parts[2])))
    if len(arcs) != arc_count:
        raise InstanceFormatError(
            f"header declares {arc_count} arcs but file contains {len(arcs)}")
    try:
        return build_graph(n, arcs, directed=directed)
    except GraphError as exc:
        raise InstanceFormatError(str(exc)) from exc


def scan_results(text: str, n: int):
    """The reference reader of :func:`partition.read_results_file`, over the
    decoded ``text`` of a results file; the first fault raises an
    InstanceFormatError naming its line."""
    region = [0] * (n + 1)
    parent = [0] * (n + 1)
    cost = [0] * (n + 1)
    has_cost = [0] * (n + 1)
    tags = [0] * (n + 1)
    seen = [False] * (n + 1)
    width = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (4, 5):
            raise InstanceFormatError(
                f"line {lineno}: expected '<id> <region> <parent> <cost> [tag]'")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise InstanceFormatError(
                f"line {lineno}: {len(parts)} columns where earlier rows "
                f"have {width}")
        # int() also takes '_' and non-ASCII digits; on other tokens it takes
        # exactly graph._INT's [+-]?[0-9]+, for less than a regex per field
        if not all(p.isascii() and "_" not in p for p in parts):
            raise InstanceFormatError(f"line {lineno}: non-integer field")
        try:
            v, reg, par = int(parts[0]), int(parts[1]), int(parts[2])
            c = 0 if parts[3] == UNREACHED else int(parts[3])
            tag = int(parts[4]) if width == 5 else 0
        except ValueError:
            raise InstanceFormatError(f"line {lineno}: non-integer field") from None
        if not 1 <= v <= n or seen[v]:
            raise InstanceFormatError(
                f"line {lineno}: bad or duplicate node id {v}")
        if not 0 <= par <= n:
            raise InstanceFormatError(
                f"line {lineno}: parent {par} out of range 0..{n}")
        seen[v] = True
        region[v], parent[v], cost[v], tags[v] = reg, par, c, tag
        has_cost[v] = int(parts[3] != UNREACHED)
    missing = [v for v in range(1, n + 1) if not seen[v]]
    if missing:
        raise InstanceFormatError(f"results missing node(s) {missing[:5]}")
    return region, parent, cost, has_cost, tags if width == 5 else None


# -- the reference lane of run_pipeline --------------------------------------------

def check_csr(g: Graph) -> None:
    """Raise GraphError unless both CSRs of ``g`` are well formed, by the
    rule of the compiled lane's ``optpaths_check_csr``: int64 arrays, a
    pointer array of ``n + 2`` entries that starts at 0, never falls and
    ends at the entry count, weights as many as entries and none below 0,
    and every entry a node id in ``1..n``."""
    n = g.n
    fwd = (g.fwd_ptr, g.fwd_dst, g.fwd_w)
    rev = (g.rev_ptr, g.rev_src, g.rev_w)
    # an undirected graph's one CSR is checked once
    for ptr, idx, w in (fwd,) if all(map(operator.is_, fwd, rev)) else (fwd, rev):
        if not (all(isinstance(a, array) and a.typecode == "q"
                    for a in (ptr, idx, w))
                and len(ptr) == n + 2 and len(idx) == len(w)
                and ptr[0] == 0 and ptr[-1] == len(idx)
                and all(map(operator.le, ptr, ptr[1:]))
                and (not idx or 1 <= min(idx) and max(idx) <= n)
                and (not w or min(w) >= 0)):
            raise GraphError("malformed CSR adjacency")


def root_tags(state: SolverState) -> list[int]:
    """Per node, the source its parent chain ends at, as the audit core's
    walk (:func:`_chain_roots`) finds it; 0 where unlabeled.
    :meth:`fastlane.FastRun.root_tags` is its compiled mirror."""
    return _chain_roots(state.parent, state.is_source, _labeled(state),
                        VerificationReport(), "tag")


def debug_hook(g: Graph, regions: Regions, state: SolverState, label: str,
               algebra: CostAlgebra):
    """The big-loop audit of ``run_pipeline(..., debug_invariants=True)``:
    a hook that raises :class:`pipeline.InvariantViolation` when the tree
    or reachability audit fails or the labeled set shrinks.  A passing tree
    audit has walked every labeled chain to a source, so the reachability
    audit needs only its reached-set checks."""
    from .pipeline import InvariantViolation
    last = 0  # the labeled count at the previous call

    def hook(big_loop: int) -> None:
        nonlocal last
        live = _labeled(state)
        reach = VerificationReport()
        labeled = _reached_set(live, regions, reach)
        for audit, rep in (("tree", check_tree(state, g, algebra, live)),
                           ("reachability", reach)):
            if not rep.ok:
                raise InvariantViolation(
                    f"{label}: {audit} audit failed at big loop {big_loop}:\n"
                    + rep.summary())
        if labeled < last:
            raise InvariantViolation(
                f"{label}: labeled set shrank at big loop {big_loop}: "
                f"{last} -> {labeled}")
        last = labeled

    return hook
