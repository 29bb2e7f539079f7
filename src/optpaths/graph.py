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
reference build of :mod:`oracles`, a stable counting sort that names the
first bad arc.
:func:`build_graph` takes a list of triples, the generators hand their arc
columns to :func:`graph_from_columns`, and the compiled instance reader
calls the kernel itself.  The package needs only the standard library.

Files are bytes at both ends.  Every reader takes the bytes of a file
(:func:`read_instance`, :func:`read_data`), and every file the package
writes goes through :func:`open_output`, a binary file that replaces a
regular file only once its new content is complete.
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
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

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

    Every array is an ``array('q')``; for an undirected graph the reverse
    CSR is the forward one.  Nothing else is kept: not the arc list the
    graph was built from, nor its largest weight, nor any degree statistic.
    A graph built by hand as ``Graph(n, directed, fwd, rev, E)`` must keep
    the builds' CSR shape; both lanes check it before any solver runs.
    """

    __slots__ = (
        "n", "directed",
        "fwd_ptr", "fwd_dst", "fwd_w",
        "rev_ptr", "rev_src", "rev_w",
        "E",
    )

    def __init__(self, n, directed, fwd, rev, E):
        self.n = n
        self.directed = directed
        self.fwd_ptr, self.fwd_dst, self.fwd_w = fwd
        self.rev_ptr, self.rev_src, self.rev_w = rev
        self.E = E

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, {kind}, E={self.E})"


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
        from .oracles import int64_overflow
        raise GraphError(int64_overflow(arcs)) from None
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
    loads and it accepts every arc; otherwise the reference build,
    :func:`oracles.build_reference`, builds the same graph or names the
    first bad arc.
    """
    if n < 1:
        raise GraphError(f"node count must be >= 1, got {n}")
    if not len(head) == len(tail) == len(weight):
        raise GraphError("arc columns differ in length")
    from .fastlane import build  # fastlane imports this module

    g = build(n, head, tail, weight, directed)
    if g is None:
        from .oracles import build_reference
        g = build_reference(n, head, tail, weight, directed)
    return g


def _zeros(k: int) -> array:
    return array("q", [0]) * k


def _allocate(count: int, what: str) -> array:
    """``count`` int64 zeros, or a GraphError saying that ``what``, the size
    they stand for, is too large to allocate."""
    try:
        return _zeros(count)
    except (MemoryError, OverflowError):
        raise GraphError(f"{what} is too large to allocate") from None


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
                   weight: Sequence[int], directed: bool, out: BinaryIO,
                   comments: Iterable[str] = ()) -> None:
    """Write to the binary file ``out`` the instance of ``n`` nodes whose
    arc ``i`` is ``(head[i], tail[i], weight[i])``; ``comments`` become
    '#'-prefixed lines, in UTF-8.

    The arcs are written as given, in order; they are not checked.  The
    compiled formatter of :mod:`fastlane` writes the arc lines when the
    lane loads, and the same lines are formatted here when it does not.
    """
    if not len(head) == len(tail) == len(weight):
        raise GraphError("arc columns differ in length")
    kind = "directed" if directed else "undirected"
    out.write("".join([*(f"# {c}\n" for c in comments),
                       f"n {n} {len(head)} {kind}\n"]).encode())
    from .fastlane import write_rows  # fastlane imports this module

    if not write_rows(out, (head, tail, weight)):
        out.write("".join(f"{h} {t} {w}\n"
                          for h, t, w in zip(head, tail, weight)).encode())


def write_instance_file(n: int, head: Sequence[int], tail: Sequence[int],
                        weight: Sequence[int], directed: bool, path: str,
                        comments: Iterable[str] = ()) -> None:
    with open_output(path) as fh:
        write_instance(n, head, tail, weight, directed, fh, comments)


class InstanceHeader:
    """The header line of an instance: the node and arc counts it
    declares, the orientation, its line number, and the offsets in the
    instance at which the line and the arc block after it start.  A plain
    class, since every command's start-up pays for defining it."""

    __slots__ = ("n", "arc_count", "directed", "lineno", "line_start",
                 "body_start")

    def __init__(self, n, arc_count, directed, lineno, line_start,
                 body_start):
        self.n, self.arc_count, self.directed = n, arc_count, directed
        self.lineno, self.line_start, self.body_start = (
            lineno, line_start, body_start)


def parse_header(data: bytes) -> InstanceHeader:
    """The header of the instance ``data``: its first line that is neither
    blank nor a comment; an InstanceFormatError names a malformed one.

    ``data`` is UTF-8, as :func:`text_mode_bytes` leaves it.  Each line
    read is decoded on its own, so a header is read exactly as in the
    decoded text, Unicode whitespace included, while the arc block stays
    bytes.
    """
    start, lineno = 0, 1
    while True:
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        line = data[start:end].decode().strip()
        if line and not line.startswith("#"):
            break
        if end == len(data):
            raise InstanceFormatError("line 1: missing header")
        start, lineno = end + 1, lineno + 1
    parts = line.split()
    if len(parts) != 4 or parts[0] != "n":
        raise InstanceFormatError(
            f"line {lineno}: expected 'n <nodes> <arcs> <directed|undirected>'")
    if not (_INT.match(parts[1]) and _INT.match(parts[2])):
        raise InstanceFormatError(f"line {lineno}: non-integer count")
    if parts[3] not in ("directed", "undirected"):
        raise InstanceFormatError(
            f"line {lineno}: orientation must be 'directed' or 'undirected'")
    return InstanceHeader(int(parts[1]), int(parts[2]),
                          parts[3] == "directed", lineno, start,
                          min(end + 1, len(data)))


def read_instance(data: bytes) -> tuple[Graph, list[str]]:
    """Parse the instance format from ``data``, the bytes of a file;
    returns the graph and the comment lines.

    ``data`` is read as in text mode (:func:`text_mode_bytes`), so CR LF
    and a lone CR end a line as LF does; any other whitespace separates
    fields.  Every integer field is ASCII ``[+-]?[0-9]+``.  The compiled
    reader reads the arc block when it can; any block it refuses goes to
    the reference reader, the line scanner :func:`oracles.scan_arc_block`,
    which gives the same graph or names the fault.
    """
    pin_malloc_thresholds()
    data = text_mode_bytes(data)
    h = parse_header(data)
    comments = _COMMENT.findall(data[:h.line_start].decode())
    if data.find(b"#", h.body_start) >= 0:
        comments += _COMMENT.findall(data[h.body_start:].decode())
    return read_arc_block(data, h), [c.strip() for c in comments]


def read_arc_block(data: bytes, h: InstanceHeader) -> Graph:
    """The graph of the arc block of the instance ``data``, whose header is
    ``h`` (:func:`parse_header`): read by the compiled reader when it can,
    and otherwise by the reference reader, which gives the same graph or
    names the fault."""
    from .fastlane import read_graph  # fastlane imports this module

    g = read_graph(data, h)
    if g is None:
        from .oracles import scan_arc_block
        g = scan_arc_block(data[h.body_start:].decode(), h.lineno + 1, h.n,
                           h.arc_count, h.directed)
    return g


def read_instance_file(path: str) -> tuple[Graph, list[str]]:
    """The instance in the file at ``path``.  Its bytes go to
    :func:`read_instance` as read, which makes them text-mode bytes once."""
    pin_malloc_thresholds()  # before the file's bytes are allocated
    with open(path, "rb") as fh:
        return read_instance(fh.read())


def read_data(path: str) -> bytes:
    """The :func:`text_mode_bytes` of the file at ``path``: the one read of
    an instance or results file, whichever reader takes it."""
    pin_malloc_thresholds()
    with open(path, "rb") as fh:
        return text_mode_bytes(fh.read())


def text_mode_bytes(data: bytes) -> bytes:
    """The bytes of a file, ``data``, as reading it in UTF-8 text mode gives
    them: CR LF and a lone CR end a line as LF does.  A file that is not
    UTF-8 raises an InstanceFormatError with the line number of its first
    bad byte; an ASCII file needs no decoding, and none is kept.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            line = len((data[:exc.start] + b"x").splitlines())
            raise InstanceFormatError(f"line {line}: not UTF-8 text") from None
    return data


@contextlib.contextmanager
def open_output(path: str) -> Iterator[BinaryIO]:
    """A binary file that replaces ``path`` only once it is complete.

    The writers encode their text as UTF-8, which every reader of the
    package decodes, whatever the locale's encoding.  The new bytes go to a
    sibling temp file, which takes the old file's permission bits and is
    renamed into place after the old name is unlinked.  On ext4, truncating a file and writing it again, or renaming
    over it, flushes it to disk at close; a rename onto a free name does
    not.  If the writer raises, the temp file is removed and ``path`` is
    left as it was.  Symlinks are followed, so a link stays a link.

    Targets that replacing would change for other names or readers are
    written in place, as ``open(path, "wb")`` does: anything but a regular
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
        with open(path, "wb") as fh:
            yield fh
        return
    # open(path, "wb") refuses a read-only file; unlinking it would not
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
        with open(fd, "wb") as fh:
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
