"""Immutable graph store with per-node adjacency in both directions.

Node ids are 1-based; id 0 is reserved as the "unset" sentinel used by the
solver arrays (parent pointers, positions).  Adjacency is kept in CSR
form over int64 arrays, the standard library's ``array('q')``: ``forward``
maps each node to its out-leaves (the node's star unit) and ``reverse`` maps
each node to its in-neighbors.  For undirected graphs both views are the
same arrays.

Entry order within a node's adjacency list is arc-list insertion order:
for undirected input, each arc materializes its two directions at the arc's
position in the input list, so iterating ``leaves(g, u)`` is deterministic
and reproducible across runs.

Weights are nonnegative integers; zero is permitted (and required by the
planted zero-path instances).  Each parallel arc keeps its own adjacency
entry; the relaxation operators naturally keep the best of a parallel
bundle.

Graphs are built from int64 arc columns by one build: the compiled kernel
of :mod:`fastlane` when it loads and accepts every arc, and otherwise the
reference build here, a stable counting sort that names the first bad arc.
:func:`build_graph` takes a list of triples, the generators hand their arc
columns to :func:`graph_from_columns`, and the compiled instance reader
calls the kernel itself.  The package needs only the standard library.

Every file the package writes goes through :func:`open_output`, which
replaces a regular file only once its new content is complete.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import functools
import itertools
import operator
import os
import re
import stat
from array import array
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

NodeId = int

#: sentinel for "no node" in parent/position arrays
UNSET = 0

#: largest arc weight (and compiled-lane cost) an int64 array holds
INT64_MAX = 2**63 - 1


class GraphError(ValueError):
    """Raised when a graph fails structural validation at build time."""


class InstanceFormatError(ValueError):
    """Raised on malformed instance files; message carries the line number."""


class CostAlgebra(NamedTuple):
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
        fwd_ptr, fwd_dst, fwd_w: CSR of out-leaves per node.
        rev_ptr, rev_src, rev_w: CSR of in-neighbors per node.
        E: total number of directed adjacency entries (an undirected arc
           counts twice).
        max_weight: the largest arc weight (0 without arcs).

    Every array is an ``array('q')``; for an undirected graph the reverse
    CSR is the forward one.  Nothing else is kept: not the arc list the
    graph was built from, nor any degree statistic.  A graph built by hand
    as ``Graph(n, directed, fwd, rev, E, max_weight)`` must keep the
    builds' CSR shape; the compiled lane checks it before any kernel runs.
    """

    __slots__ = (
        "n", "directed",
        "fwd_ptr", "fwd_dst", "fwd_w",
        "rev_ptr", "rev_src", "rev_w",
        "E", "max_weight",
    )

    def __init__(self, n, directed, fwd, rev, E, max_weight):
        self.n = n
        self.directed = directed
        self.fwd_ptr, self.fwd_dst, self.fwd_w = fwd
        self.rev_ptr, self.rev_src, self.rev_w = rev
        self.E = E
        self.max_weight = max_weight

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, {kind}, E={self.E})"


def _int64_overflow(arcs) -> str:
    """Name the first arc with a field outside int64."""
    lo, hi = -INT64_MAX - 1, INT64_MAX
    for i, arc in enumerate(arcs):
        if any(not lo <= int(x) <= hi for x in arc):
            return f"arc {i} ({','.join(map(str, arc))}): value outside int64"
    return "arc value outside int64"


def build_graph(n: int, arcs: Sequence[tuple[int, int, int]],
                directed: bool = False) -> Graph:
    """Validate an arc list and assemble the CSR adjacency in both directions.

    Rejects out-of-range endpoints, negative weights and self-loops, naming
    the first offending arc.  Parallel arcs are allowed.
    """
    if n < 1:
        raise GraphError(f"node count must be >= 1, got {n}")
    try:
        columns = list(zip(*arcs, strict=True)) if len(arcs) else [()] * 3
        if len(columns) != 3:
            raise TypeError
        head, tail, weight = (array("q", c) for c in columns)
    except OverflowError:
        raise GraphError(_int64_overflow(arcs)) from None
    except (TypeError, ValueError):
        raise GraphError(
            "arcs must be a sequence of (head, tail, weight) triples") from None
    return graph_from_columns(n, head, tail, weight, directed)


def graph_from_columns(n: int, head: array, tail: array, weight: array,
                       directed: bool = False) -> Graph:
    """The graph of :func:`build_graph` on arc ``i`` = ``(head[i], tail[i],
    weight[i])``, from equally long int64 arrays, which the graph does not
    keep.

    The compiled build of :mod:`fastlane` assembles the CSR when the lane
    loads and it accepts every arc; otherwise :func:`_build_reference`
    builds the same graph or names the first bad arc.
    """
    if n < 1:
        raise GraphError(f"node count must be >= 1, got {n}")
    if not len(head) == len(tail) == len(weight):
        raise GraphError("arc columns differ in length")
    from .fastlane import build  # fastlane imports this module

    g = build(n, head, tail, weight, directed)
    return g if g is not None else _build_reference(n, head, tail, weight,
                                                    directed)


def _first(bad: Iterable[bool]):
    """The index of the first true item, or None."""
    return next((i for i, b in enumerate(bad) if b), None)


def _build_reference(n: int, head: array, tail: array, weight: array,
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
    return Graph(n, directed, fwd, rev, len(fwd[1]), max(weight, default=0))


def _zeros(k: int) -> array:
    return array("q", [0]) * k


def _allocate(count: int, what: str) -> array:
    """``count`` int64 zeros, or a GraphError saying that ``what``, the size
    they stand for, is too large to allocate."""
    try:
        return _zeros(count)
    except (MemoryError, OverflowError):
        raise GraphError(f"{what} is too large to allocate") from None


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

def write_instance(n: int, head: Sequence[int], tail: Sequence[int],
                   weight: Sequence[int], directed: bool, out: TextIO,
                   comments: Iterable[str] = ()) -> None:
    """Emit the instance of ``n`` nodes whose arc ``i`` is ``(head[i],
    tail[i], weight[i])``; ``comments`` become '#'-prefixed lines.

    The arcs are written as given, in order; they are not checked.  The
    compiled formatter of :mod:`fastlane` writes the arc lines when the
    lane loads, and the same lines are formatted here when it does not.
    """
    if not len(head) == len(tail) == len(weight):
        raise GraphError("arc columns differ in length")
    for c in comments:
        out.write(f"# {c}\n")
    kind = "directed" if directed else "undirected"
    out.write(f"n {n} {len(head)} {kind}\n")
    from .fastlane import format_rows  # fastlane imports this module

    text = format_rows((head, tail, weight))
    if text is None:
        text = "".join(f"{h} {t} {w}\n" for h, t, w in zip(head, tail, weight))
    out.write(text)


def write_instance_file(n: int, head: Sequence[int], tail: Sequence[int],
                        weight: Sequence[int], directed: bool, path: str,
                        comments: Iterable[str] = ()) -> None:
    with open_output(path) as fh:
        write_instance(n, head, tail, weight, directed, fh, comments)


def read_instance(src: TextIO) -> tuple[Graph, list[str]]:
    """Parse the instance format; returns the graph and the comment lines.

    Only a newline ends a line; any other whitespace, a carriage return
    included, separates fields.  Every integer field is ASCII
    ``[+-]?[0-9]+``.  The compiled reader reads the arc block when it can;
    any block it refuses goes to the reference reader, the line scanner
    :func:`_scan_arc_block`, which gives the same graph or names the fault.
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

    from .fastlane import read_graph  # fastlane imports this module

    comments = _COMMENT.findall(text, 0, start)
    if text.find("#", end + 1) >= 0:
        comments += _COMMENT.findall(text, end + 1)
    # Only the encoded block outlives the text.  A lone surrogate (only a
    # str holds one) becomes bytes that no arc field accepts and that decode
    # back to it.
    body = text[end + 1:].encode("utf-8", "surrogatepass")
    del text
    g = read_graph(body, n, arc_count, directed)
    if g is None:
        g = _scan_arc_block(body.decode("utf-8", "surrogatepass"), lineno + 1,
                            n, arc_count, directed)
    return g, [c.strip() for c in comments]


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


@contextlib.contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only once it is complete.

    The new bytes go to a sibling temp file, which takes the old file's
    permission bits and is renamed into place after the old name is
    unlinked.  On ext4, truncating a file and writing it again, or renaming
    over it, flushes it to disk at close; a rename onto a free name does
    not.  If the writer raises, the temp file is removed and ``path`` is
    left as it was.  Symlinks are followed, so a link stays a link.

    Targets that replacing would change for other names or readers are
    written in place, as ``open(path, "w")`` does: anything but a regular
    file (a FIFO, a device, a directory, or a path whose lookup fails),
    a file with several hard links, a file owned by another user or group,
    and any file in a directory the process cannot write.  So is a path
    that ``open()`` would refuse, which then raises its usual error.
    Nothing is fsynced.  Errors name ``path`` as given.
    """
    real = os.path.realpath(path)
    head, tail = os.path.split(real)
    try:
        old = os.stat(real)
        replace = (stat.S_ISREG(old.st_mode) and old.st_nlink == 1
                   and old.st_uid == os.geteuid()
                   and old.st_gid == os.getegid())
    except FileNotFoundError:
        old, replace = None, True
    except OSError:  # open() raises it again, naming path
        old, replace = None, False
    # realpath() also resolves what open() refuses: a last component '',
    # '.' or '..', or a '..' after a missing directory
    if not (replace and os.path.basename(path) not in ("", ".", "..")
            and os.path.isdir(os.path.dirname(path) or ".")
            and os.access(head, os.W_OK)):
        with open(path, "w") as fh:
            yield fh
        return
    # open(path, "w") refuses a read-only file; unlinking it would not
    if old is not None and not os.access(real, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    for i in itertools.count():
        tmp = os.path.join(head, f"{tail[:32]}.{os.getpid()}.{i}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w") as fh:
            yield fh
            if old is not None:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
        if old is not None:
            os.unlink(real)
        os.rename(tmp, real)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


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


def _scan_arc_block(body: str, first_lineno: int, n: int, arc_count: int,
                    directed: bool) -> Graph:
    """The reference reader: the graph of an arc block, read line by line.

    ``body`` is the text after the header line, whose line number is
    ``first_lineno - 1``.  The first fault raises an InstanceFormatError:
    a malformed line by its number, then a wrong arc count, then whatever
    :func:`build_graph` rejects.
    """
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
