"""Layered partition fused with pull-relaxation from upper ranks.

The partition phase runs a breadth-first frontier sweep from the source(s),
recording three views of the layering: the discovery order, the node-to-layer
map and the node-to-position map (inverse of the order).  While a frontier
node is scanned it also pulls a cost from every already-settled in-neighbor
one layer up, so the phase ends with, per reached node, the best cost among
all minimum-hop paths from the source.

The pull runs over the reverse adjacency: on an undirected graph that is
literally the forward star unit, while on a directed graph a forward leaf at
an upper rank need not be an in-neighbor, so the reverse unit is the one that
carries the usable arcs.

:func:`export_results_file` writes a result export through
:func:`optpaths.graph.open_output`, so a failed write leaves an earlier
export in place, and :func:`read_results_file` reads one back.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

from .graph import (UNSET, CostAlgebra, Graph, GraphError,
                    InstanceFormatError, NodeId, open_output, read_text)

#: cost column marker for nodes the partition never reached
UNREACHED = "UNREACHED"


class Regions:
    """The partition triple.

    ``order`` lists reached nodes in discovery order (the worklist array all
    later phases sweep).  ``region_of[v]`` is the 1-based layer of ``v``
    (source layer is 1; 0 means never reached).  ``position_of[v]`` is the
    1-based position of ``v`` in ``order`` (0 means never reached), i.e.
    ``order[position_of[v] - 1] == v``.  So ``len(order)`` nodes were
    reached, and ``region_of[order[-1]]`` layers hold them.  Lists on the
    reference lane, int64 arrays on the compiled one.
    """


    def __init__(self, order: Sequence[int], region_of: Sequence[int],
                 position_of: Sequence[int]):
        self.order = order
        self.region_of = region_of
        self.position_of = position_of


class SolverState:
    """Mutable heart of every solver run.

    ``parent[v]`` is the chosen predecessor (0 = unset; always 0 at sources)
    and ``cost[v]`` the current path cost; no arc weight is kept.  ``tags``
    is present exactly when the run has two or more distinct sources and
    names, per node, the source whose influence labeled it.  Lists on the
    reference lane, which big-int costs and generic algebras need; int64
    arrays on the compiled one.
    """


    def __init__(self, n: int, sources: tuple[int, ...],
                 parent: Sequence[int], cost: Sequence[int],
                 is_source: Sequence[int], tags: Sequence[int] | None = None):
        self.n = n
        self.sources = sources
        self.parent = parent
        self.cost = cost
        self.is_source = is_source
        self.tags = tags

    @classmethod
    def fresh(cls, n: int, sources: Sequence[int], zero: int) -> "SolverState":
        is_source = [False] * (n + 1)
        for s in sources:
            is_source[s] = True
        tags = None
        if len(set(sources)) > 1:
            tags = [UNSET] * (n + 1)
            for s in sources:
                tags[s] = s
        return cls(
            n=n,
            sources=tuple(sources),
            parent=[UNSET] * (n + 1),
            cost=[zero] * (n + 1),
            is_source=is_source,
            tags=tags,
        )

    def labeled(self, v: int) -> bool:
        return self.parent[v] != UNSET or self.is_source[v]


class HdaReport(NamedTuple):
    arc_inspections: int
    wall_time_ms: float


class OptReport(NamedTuple):
    """Counters for one optimizer run, sweeps and schedulers alike.

    ``big_loops`` counts full passes, the final clean one included.
    ``node_scans`` counts every position a pass examines, active or dormant;
    ``arc_relaxations`` counts the calls to :func:`relax`.  Every accepted
    relaxation is classified by the improved node's layer against its new
    parent's: strictly below the parent is the regular way, at or above it
    the wrong way, so ``regular_way + wrong_way == improvements``.  The
    kernels write their counters in this field order.
    """

    big_loops: int
    node_scans: int
    improvements: int
    regular_way: int
    wrong_way: int
    arc_relaxations: int
    wall_time_ms: float


#: the worklist schedulers of :mod:`monarchy`; a scheduler's index here is
#: its code in the compiled kernel
SCHEDULERS = ("hrp", "fr", "ht")


def relax(state: SolverState, algebra: CostAlgebra,
          u: NodeId, v: NodeId, weight: int) -> bool:
    """``u`` offers itself as parent of ``v``; True when ``v`` accepts.

    Every solver relaxes its arcs ``u -> v`` through this one rule: the
    partition and the sweeps pull (their loop stands on ``v``), the
    schedulers push (their loop stands on ``u``).  The comparison is
    strict -- an equal candidate cost never overwrites the incumbent, which
    is what keeps the parent array acyclic on zero-weight instances.
    Sources are never relabeled.
    """
    if state.is_source[v]:
        return False
    c = algebra.extend(state.cost[u], weight)
    if state.parent[v] == UNSET or algebra.better(c, state.cost[v]):
        state.parent[v] = u
        state.cost[v] = c
        if state.tags is not None:
            state.tags[v] = state.tags[u]
        return True
    return False


def hda_multi(g: Graph, sources: Sequence[NodeId], algebra: CostAlgebra,
              ) -> tuple[Regions, SolverState, HdaReport]:
    """Frontier partition plus upper-rank pull from all sources at layer 1.

    Disconnected inputs are not an error: unreached nodes keep layer 0 and
    stay out of ``Regions.order``.  Every arc is inspected at most twice
    (once for discovery, once for the pull), so this is a single pass.
    """
    if not sources:
        raise GraphError("source set must be non-empty")
    srcs = sorted(set(int(s) for s in sources))
    for s in srcs:
        if not 1 <= s <= g.n:
            raise GraphError(f"source {s} out of range 1..{g.n}")

    t0 = time.perf_counter()
    n = g.n
    state = SolverState.fresh(n, srcs, algebra.zero)
    order: list[int] = []
    region_of = [0] * (n + 1)
    position_of = [0] * (n + 1)

    fwd_ptr = g.fwd_ptr.tolist()
    fwd_dst = g.fwd_dst.tolist()
    fwd_w = g.fwd_w.tolist()
    rev_ptr = g.rev_ptr.tolist()
    rev_src = g.rev_src.tolist()
    rev_w = g.rev_w.tolist()

    for s in srcs:
        order.append(s)
        region_of[s] = 1
        position_of[s] = len(order)

    inspections = 0
    i = 0
    while i < len(order):
        u = order[i]
        reg = region_of[u]
        # discovery: append unvisited forward leaves to the next layer
        for k in range(fwd_ptr[u], fwd_ptr[u + 1]):
            inspections += 1
            v = fwd_dst[k]
            if region_of[v] == 0:
                region_of[v] = reg + 1
                order.append(v)
                position_of[v] = len(order)
        # pull: adopt the best already-settled in-neighbor one layer up
        for k in range(rev_ptr[u], rev_ptr[u + 1]):
            inspections += 1
            v = rev_src[k]
            rv = region_of[v]
            if 0 < rv < reg:
                relax(state, algebra, v, u, rev_w[k])
        i += 1

    report = HdaReport(
        arc_inspections=inspections,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )
    return Regions(order, region_of, position_of), state, report


# ---------------------------------------------------------------------------
# Result export (text): per node `<id> <region> <parent> <cost|UNREACHED>`,
# plus a trailing `<tag>` column when the run has >= 2 distinct sources.
# ---------------------------------------------------------------------------

def export_results(state: SolverState, regions: Regions, out) -> None:
    """Write every node's row with one ``write``.

    The compiled formatter writes the rows whenever the lane loads and
    every value fits int64; otherwise (say, the reference lane's big-int
    costs, or no compiler) the same rows are formatted here.
    """
    from .fastlane import format_rows  # fastlane imports this module

    parent, cost, tags = state.parent, state.cost, state.tags
    columns = [regions.region_of, parent, cost] + ([] if tags is None else [tags])
    text = format_rows(columns, results=True)
    if text is None:
        nodes = zip(range(1, state.n + 1), regions.region_of[1:])
        if tags is None:
            rows = [f"{v} {reg} {parent[v]} {cost[v]}\n" if reg
                    else f"{v} 0 0 {UNREACHED}\n" for v, reg in nodes]
        else:
            rows = [f"{v} {reg} {parent[v]} {cost[v]} {tags[v]}\n" if reg
                    else f"{v} 0 0 {UNREACHED} 0\n" for v, reg in nodes]
        text = "".join(rows)
    out.write(text)


def export_results_file(state: SolverState, regions: Regions, path: str) -> None:
    with open_output(path) as fh:
        export_results(state, regions, fh)


def read_results_file(path: str, n: int):
    """Read an export: region, parent, cost, has_cost and tags per node.

    ``cost`` and ``has_cost`` are 0 where a row says UNREACHED.  Every row
    has 4 columns, or every row has 5 (the tag column); tags is None for a
    4-column file.  The compiled reader reads the file into int64 arrays
    when it can; any file it refuses goes to the reference reader,
    :func:`_scan_results`, which gives the same lists or names the fault.
    """
    from .fastlane import read_results  # fastlane imports this module

    with open(path, "rb") as fh:
        rows = read_results(fh.read(), n)
    return rows if rows is not None else _scan_results(path, n)


def _scan_results(path: str, n: int):
    """The reference reader of :func:`read_results_file`; the first fault
    raises an InstanceFormatError naming its line."""
    region = [0] * (n + 1)
    parent = [0] * (n + 1)
    cost = [0] * (n + 1)
    has_cost = [0] * (n + 1)
    tags = [0] * (n + 1)
    seen = [False] * (n + 1)
    width = None
    with open(path, encoding="utf-8") as fh:
        text = read_text(fh)
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
        if not line.isascii() or "_" in line:
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

