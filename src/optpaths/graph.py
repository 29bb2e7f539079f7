"""Immutable graph store with per-node adjacency in both directions.

Node ids are 1-based; id 0 is reserved as the "unset" sentinel used by the
solver arrays (parent pointers, positions).  Adjacency is kept in CSR
form over numpy int64 arrays: ``forward`` maps each node to its out-leaves
(the node's star unit) and ``reverse`` maps each node to its in-neighbors.
For undirected graphs both views are the same arrays.

Entry order within a node's adjacency list is arc-list insertion order:
for undirected input, each arc materializes its two directions at the arc's
position in the input list, so iterating ``leaves(g, u)`` is deterministic
and reproducible across runs.

Weights are nonnegative integers; zero is permitted (and required by the
planted zero-path instances).  Parallel arcs are stored verbatim; the
relaxation operators naturally keep the best of a parallel bundle.
"""

from __future__ import annotations

import ctypes
import functools
import io
import operator
import os
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

NodeId = int

#: sentinel for "no node" in parent/position arrays
UNSET = 0

#: largest arc weight (and compiled-lane cost) an int64 array holds
INT64_MAX = 2**63 - 1


class GraphError(ValueError):
    """Raised when a graph fails structural validation at build time."""


class InstanceFormatError(ValueError):
    """Raised on malformed instance files; message carries the line number."""


@dataclass(frozen=True)
class Arc:
    """A weighted arc from ``head`` to ``tail`` (head is the origin end)."""

    head: int
    tail: int
    weight: int


@dataclass(frozen=True)
class CostAlgebra:
    """The cost seam shared by every relaxation operator.

    ``extend`` combines a path cost with an arc weight into a new path cost,
    ``better`` is a strict comparison (irreflexive, transitive) used to
    filter candidates -- equality never wins -- and ``zero`` is the cost of
    the empty path at a source.
    """

    extend: Callable[[int, int], int]
    better: Callable[[int, int], bool]
    zero: int


def min_plus_algebra() -> CostAlgebra:
    """Integer addition with strict less-than: ordinary shortest paths."""
    return CostAlgebra(extend=operator.add, better=operator.lt, zero=0)


class Graph:
    """Immutable weighted multigraph with forward and reverse star units.

    Attributes:
        n: node count (ids 1..n).
        directed: whether the input arcs were taken as one-way.
        arc_head, arc_tail, arc_weight: the input arc list, verbatim.
        fwd_ptr, fwd_dst, fwd_w: CSR of out-leaves per node.
        rev_ptr, rev_src, rev_w: CSR of in-neighbors per node.
        m: maximum out-degree over all nodes.
        E: total number of directed adjacency entries (an undirected arc
           counts twice).
    """

    __slots__ = (
        "n", "directed",
        "arc_head", "arc_tail", "arc_weight",
        "fwd_ptr", "fwd_dst", "fwd_w",
        "rev_ptr", "rev_src", "rev_w",
        "m", "E",
    )

    def __init__(self, n, directed, arc_head, arc_tail, arc_weight,
                 fwd, rev, m, E):
        self.n = n
        self.directed = directed
        self.arc_head = arc_head
        self.arc_tail = arc_tail
        self.arc_weight = arc_weight
        self.fwd_ptr, self.fwd_dst, self.fwd_w = fwd
        self.rev_ptr, self.rev_src, self.rev_w = rev
        self.m = m
        self.E = E

    @property
    def arcs(self) -> list[Arc]:
        """The input arc list as Arc objects (builds a fresh list)."""
        return [
            Arc(int(h), int(t), int(w))
            for h, t, w in zip(self.arc_head, self.arc_tail, self.arc_weight)
        ]

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, arcs={len(self.arc_head)}, {kind}, E={self.E}, m={self.m})"


def _csr_by_key(key: np.ndarray, dst: np.ndarray, wts: np.ndarray, n: int):
    """Bucket (key -> (dst, w)) entries into CSR, stable in input order."""
    try:
        counts = np.bincount(key, minlength=n + 2)
    except (ValueError, OverflowError, MemoryError):
        raise GraphError(f"node count {n} is too large to allocate") from None
    ptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(counts[: n + 1], out=ptr[1:])
    order = np.argsort(key, kind="stable")
    return ptr, dst[order], wts[order]


def _int64_overflow(arcs) -> str:
    """Name the first arc with a field outside int64."""
    lo, hi = -INT64_MAX - 1, INT64_MAX
    for i, arc in enumerate(arcs):
        if any(not lo <= int(x) <= hi for x in arc):
            return f"arc {i} ({','.join(map(str, arc))}): value outside int64"
    return "arc value outside int64"


def build_graph(n: int,
                arcs: Sequence[tuple[int, int, int]] | np.ndarray,
                directed: bool = False) -> Graph:
    """Validate an arc list and assemble the CSR adjacency in both directions.

    Rejects out-of-range endpoints, negative weights and self-loops, naming
    the first offending arc.  Parallel arcs are allowed and stored verbatim.
    """
    if n < 1:
        raise GraphError(f"node count must be >= 1, got {n}")
    try:
        a = np.asarray(arcs, dtype=np.int64)
    except OverflowError:
        raise GraphError(_int64_overflow(arcs)) from None
    if a.size == 0:
        a = a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise GraphError("arcs must be a sequence of (head, tail, weight) triples")
    head, tail, weight = a[:, 0], a[:, 1], a[:, 2]

    bad = (head < 1) | (head > n) | (tail < 1) | (tail > n)
    if bad.any():
        i = int(np.argmax(bad))
        raise GraphError(
            f"arc {i} ({int(head[i])},{int(tail[i])},{int(weight[i])}): "
            f"endpoint out of range 1..{n}")
    neg = weight < 0
    if neg.any():
        i = int(np.argmax(neg))
        raise GraphError(
            f"arc {i} ({int(head[i])},{int(tail[i])},{int(weight[i])}): negative weight")
    loop = head == tail
    if loop.any():
        i = int(np.argmax(loop))
        raise GraphError(f"arc {i} ({int(head[i])},{int(tail[i])}): self-loop")

    if directed:
        fwd = _csr_by_key(head, tail, weight, n)
        rev = _csr_by_key(tail, head, weight, n)
    else:
        # Materialize both directions interleaved per input arc so that the
        # per-node entry order equals "append both ends while reading the list".
        k = len(head)
        h2 = np.empty(2 * k, dtype=np.int64)
        t2 = np.empty(2 * k, dtype=np.int64)
        w2 = np.empty(2 * k, dtype=np.int64)
        h2[0::2], h2[1::2] = head, tail
        t2[0::2], t2[1::2] = tail, head
        w2[0::2], w2[1::2] = weight, weight
        fwd = _csr_by_key(h2, t2, w2, n)
        rev = fwd

    ptr = fwd[0]
    degrees = ptr[2: n + 2] - ptr[1: n + 1] if n >= 1 else ptr[:0]
    m = int(degrees.max()) if len(degrees) and len(fwd[1]) else 0
    E = int(len(fwd[1]))
    return Graph(n, directed, head.copy(), tail.copy(), weight.copy(), fwd, rev, m, E)


def _check_node(g: Graph, u: int) -> None:
    if not 1 <= u <= g.n:
        raise GraphError(f"node {u} out of range 1..{g.n}")


def leaves(g: Graph, u: NodeId) -> list[tuple[NodeId, int]]:
    """Out-leaves of ``u`` with weights, in arc-list insertion order."""
    _check_node(g, u)
    lo, hi = int(g.fwd_ptr[u]), int(g.fwd_ptr[u + 1])
    return [(int(v), int(w)) for v, w in zip(g.fwd_dst[lo:hi], g.fwd_w[lo:hi])]


def in_neighbors(g: Graph, u: NodeId) -> list[tuple[NodeId, int]]:
    """In-neighbors of ``u`` with weights; equals ``leaves`` when undirected."""
    _check_node(g, u)
    lo, hi = int(g.rev_ptr[u]), int(g.rev_ptr[u + 1])
    return [(int(v), int(w)) for v, w in zip(g.rev_src[lo:hi], g.rev_w[lo:hi])]


# ---------------------------------------------------------------------------
# Instance file format (text, one record per line):
#   line 1:     n <node-count> <arc-count> <directed|undirected>
#   then:       <head> <tail> <weight>        (arc-count lines)
# Lines whose first non-blank character is '#' are comments and may appear
# anywhere; a comment is always a whole line.  Fields are separated by
# whitespace and every integer is ASCII [+-]?[0-9]+.  Files are UTF-8.
# ---------------------------------------------------------------------------

def write_instance(g: Graph, out: TextIO, comments: Iterable[str] = ()) -> None:
    """Emit the instance format; ``comments`` become '#'-prefixed lines."""
    for c in comments:
        out.write(f"# {c}\n")
    kind = "directed" if g.directed else "undirected"
    out.write(f"n {g.n} {len(g.arc_head)} {kind}\n")
    lines = [
        f"{h} {t} {w}\n"
        for h, t, w in zip(g.arc_head.tolist(), g.arc_tail.tolist(),
                           g.arc_weight.tolist())
    ]
    out.writelines(lines)


def write_instance_file(g: Graph, path: str, comments: Iterable[str] = ()) -> None:
    with open(path, "w") as fh:
        write_instance(g, fh, comments)


def read_instance(src: TextIO) -> tuple[Graph, list[str]]:
    """Parse the instance format; returns the graph and the comment lines.

    Only a newline ends a line; any other whitespace, a carriage return
    included, separates fields.  Every integer field is ASCII
    ``[+-]?[0-9]+``.
    """
    pin_malloc_thresholds()
    text = read_text(src)
    # The header is the first line that is neither blank nor a comment.
    start, lineno = 0, 1
    while True:
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end].strip()
        if line and not line.startswith("#"):
            break
        if end == len(text):
            raise InstanceFormatError("line 1: missing header")
        start, lineno = end + 1, lineno + 1
    parts = line.split()
    if len(parts) != 4 or parts[0] != "n":
        raise InstanceFormatError(
            f"line {lineno}: expected 'n <nodes> <arcs> <directed|undirected>'")
    if not (_INT.match(parts[1]) and _INT.match(parts[2])):
        raise InstanceFormatError(f"line {lineno}: non-integer count")
    n, arc_count = int(parts[1]), int(parts[2])
    if parts[3] not in ("directed", "undirected"):
        raise InstanceFormatError(
            f"line {lineno}: orientation must be 'directed' or 'undirected'")
    directed = parts[3] == "directed"

    body = text[end + 1:]
    head_comments = _COMMENT.findall(text, 0, start)
    tail_comments = _COMMENT.findall(body) if "#" in body else []
    arcs = None
    # loadtxt would also cut a '#' off inside an arc line; only whole-line
    # comments are allowed, so any other '#' leaves the fast path.
    if body.count("#") == sum(c.count("#") + 1 for c in tail_comments):
        arcs = _load_arcs(body)
    if arcs is None or len(arcs) != arc_count:
        raise _arc_block_error(body, lineno + 1, n, arc_count, directed)
    try:
        g = build_graph(n, arcs, directed=directed)
    except GraphError as exc:
        raise InstanceFormatError(str(exc)) from exc
    return g, [c.strip() for c in head_comments + tail_comments]


def read_instance_file(path: str) -> tuple[Graph, list[str]]:
    with open(path, encoding="utf-8") as fh:
        return read_instance(fh)


def read_text(src: TextIO) -> str:
    """All of ``src``; a byte that does not decode raises an
    InstanceFormatError with its line number, counted from where ``src``
    stood (the top, for a freshly opened file)."""
    try:
        return src.read()
    except UnicodeDecodeError as exc:
        lineno = len((exc.object[:exc.start] + b"x").splitlines())
        raise InstanceFormatError(f"line {lineno}: not UTF-8 text") from None


#: glibc's mallopt parameters (malloc.h) and the default of both
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_THRESHOLD = 128 * 1024


@functools.cache
def pin_malloc_thresholds() -> None:
    """Keep glibc's mmap and trim thresholds at their 128 KiB defaults.

    By default glibc raises both to the size of each large block freed.  Once
    an instance's megabyte-sized text and arc buffers are freed, the arrays
    and lists built next come from the brk heap instead of their own mappings,
    and a small block allocated above them keeps them resident after they are
    freed.  How much memory a process then holds after reading an instance
    depends on the order of unrelated allocations: from run to run, the same
    reads left 42 or 57 MB resident.  Pinned, every block of 128 KiB or more
    is its own mapping and goes back to the system when freed.  This holds
    for the whole process; other C libraries are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)


#: a whole-line comment: optional whitespace, '#', then the comment text
_COMMENT = re.compile(r"^[^\S\n]*#(.*)", re.MULTILINE)
#: the token grammar of every integer field
_INT = re.compile(r"[+-]?[0-9]+\Z")


def _load_arcs(body: str) -> np.ndarray | None:
    """The arc block as a (k, 3) int64 array, or None if numpy refuses it."""
    if "\r" in body:  # loadtxt ends a line at '\r'; here it is whitespace
        body = body.replace("\r", " ")
    # A bytes buffer keeps loadtxt's peak memory well below a StringIO's.  A
    # lone surrogate (only a str source holds one) becomes '?', no integer.
    buf = io.BytesIO(body.encode("utf-8", errors="replace"))
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            arcs = np.loadtxt(buf, dtype=np.int64, comments="#", ndmin=2,
                              encoding="utf-8")
    except ValueError:
        return None
    if arcs.size == 0:
        return arcs.reshape(0, 3)
    return arcs if arcs.shape[1] == 3 else None


def _arc_block_error(body: str, first_lineno: int, n: int, arc_count: int,
                     directed: bool) -> InstanceFormatError:
    """The error a line-by-line reading of a rejected arc block reports first.

    Only called once the vectorised path has refused ``body``; it never
    builds a graph for the caller.
    """
    arcs: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(body.split("\n"), start=first_lineno):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            return InstanceFormatError(
                f"line {lineno}: expected '<head> <tail> <weight>'")
        if not all(_INT.match(p) for p in parts):
            return InstanceFormatError(f"line {lineno}: non-integer field")
        arcs.append((int(parts[0]), int(parts[1]), int(parts[2])))
    if len(arcs) != arc_count:
        return InstanceFormatError(
            f"header declares {arc_count} arcs but file contains {len(arcs)}")
    try:
        build_graph(n, arcs, directed=directed)
    except GraphError as exc:
        return InstanceFormatError(str(exc))
    return InstanceFormatError("arc block refused by numpy.loadtxt, "
                               "but no line of it is at fault")
