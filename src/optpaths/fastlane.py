"""Compiled min-plus kernels behind :func:`optpaths.pipeline.run_pipeline`,
the instance and results files, and the ``verify`` command.

The reference solvers in :mod:`partition`, :mod:`evolve` and :mod:`monarchy`
are generic over the cost algebra; the kernels in ``kernels.c`` are the
same algorithms specialized to min-plus over int64.  They mirror the
reference loops statement for statement, every counter included, and
:meth:`fastlane.FastRun.root_tags` the reference tag walk; the test suite
asserts exact equality of states, tags and counters between the two lanes,
so either lane certifies the other.  Given a ``debug_check``, the optimizer
kernels return after each big loop, to call it where the reference loops
do.  Schedulers are named as in :data:`partition.SCHEDULERS`, and this
module imports none of the reference solvers.  Results stay in the
kernels' ``array('q')`` buffers from solve to export.

The other kernels certify or refuse.  :func:`build` assembles the CSR of
int64 arc columns, :func:`read_graph` parses an instance's arc block and
builds it, :func:`read_results` reads a results file, :func:`write_rows`
writes the rows of either file to a binary file, and :func:`draws` makes
the generators' splitmix64 draws.  :func:`block_is_clean` certifies an
export that :func:`oracles.verify_export` would pass, straight from the
arc block of its instance, which ``verify`` reads with no graph built.
The readers and the audit take a file's bytes as
:func:`graph.text_mode_bytes` leaves them, so no ``\r`` reaches a kernel,
and one row scanner in ``kernels.c`` reads the rows of both file kinds:
blank lines, whole-line ``#`` comments of printable ASCII or tabs, and
int64 fields ``[+-]?[0-9]+`` separated by spaces or tabs.  Each returns
None or False wherever it cannot answer, a comment of any other byte
included, and the Python code, the reference, decides.  A graph keeps
only its CSR arrays, so the arc columns a build reads are freed once it
returns.

This module needs only the standard library plus, optionally, a C
compiler: every array it passes to a kernel is an ``array('q')``, and
ctypes takes its address from ``buffer_info()``.  On the first call that
needs them -- never at import -- the kernels are compiled with the system
``cc`` (by :func:`oracles.build_kernels`) into ``$XDG_CACHE_HOME/optpaths``
(default ``~/.cache/optpaths``) under a name keyed by a checksum of the
source and the compile command, then loaded with ctypes; later processes
load the cached object.  Without the compiler on the ``PATH`` no compile
is tried; one that is there but fails is tried again in every process.

Before a kernel walks a graph, one kernel pass checks its CSR and reads
its largest weight: ``FastRun``, and so ``run_pipeline``, raises
:class:`GraphError` on a malformed one.  :func:`refusal` names the one
reason, if any, that this lane cannot run a graph: no compiler, or a
largest weight times ``n`` past ``2**63 - 1`` (an int64 cost could wrap;
the reference lane computes such instances exactly).  ``FastRun`` raises
:class:`GraphError` with that reason; ``run_pipeline`` runs the reference
lane instead.
"""

from __future__ import annotations

import ctypes
import functools
import os
import zlib
from array import array
from pathlib import Path
from typing import Callable, Optional, Sequence

from .graph import INT64_MAX, Graph, GraphError, InstanceHeader, _zeros
from .partition import (HdaReport, OptReport, Regions, SolverState,
                        scheduler_code, source_set)

#: compile command; ``-o <object> <source>`` is appended
_BUILD = ("cc", "-O2", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("kernels.c")

_P, _I, _U = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
#: kernel name -> (argtypes, restype), matching kernels.c
_SIGNATURES = {
    "optpaths_hda": ([_P] * 6 + [_I] + [_P] * 7, _I),
    "optpaths_classify": ([_P, _I] + [_P] * 5, _I),
    "optpaths_eom": ([_P, _I] + [_P] * 7 + [_I, _I, _P], _I),
    "optpaths_schedule": ([_I, _P, _I] + [_P] * 9 + [_I, _P], _I),
    "optpaths_chain_roots": ([_I, _P, _P], _I),
    "optpaths_build": ([_I] * 3 + [_P] * 9, _I),
    "optpaths_check_csr": ([_I, _P, _P, _P, _I, _P], _I),
    "optpaths_read": ([ctypes.c_char_p] + [_I] * 5 + [_P] * 9, _I),
    "optpaths_draws": ([_U] * 3 + [_I, _I, _U, _P, _P], None),
    "optpaths_format": ([_I] * 4 + [_P] * 2, _I),
    "optpaths_read_results": ([ctypes.c_char_p, _I, _I] + [_P] * 6, _I),
    "optpaths_audit_block": ([ctypes.c_char_p] + [_I] * 5 + [_P] * 5 + [_I]
                             + [_P] * 3, _I),
}


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "optpaths"


def _load() -> ctypes.CDLL:
    """Load the kernels from the cache, compiling them there first if needed."""
    key = zlib.crc32(" ".join(_BUILD + (os.uname().machine,)).encode()
                     + _SOURCE.read_bytes())
    path = _cache_dir() / f"kernels-{key:08x}.so"
    if not path.exists():
        import shutil
        if shutil.which(_BUILD[0]) is None:
            raise OSError(f"no compiler {_BUILD[0]!r} on the PATH")
        from .oracles import build_kernels
        build_kernels(path, _BUILD, _SOURCE)
    lib = ctypes.CDLL(str(path))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return lib


@functools.cache
def _lane() -> tuple[Optional[ctypes.CDLL], str]:
    """The kernel library, or None and the reason; resolved once per process."""
    try:
        return _load(), ""
    except OSError as exc:
        return None, str(exc)


def available() -> bool:
    """Whether the compiled kernels built or loaded (the first call may build)."""
    return _lane()[0] is not None


def _ptr(a: array) -> int:
    if not isinstance(a, array) or a.typecode != "q":
        raise GraphError("the compiled lane needs int64 arrays")
    return a.buffer_info()[0]


def _built(kernel, n: int, arcs: Sequence[array],
           directed: bool) -> Optional[Graph]:
    """The graph ``kernel`` builds on ``arcs``, or None if it refuses.

    ``kernel`` takes the arc and CSR arrays of ``optpaths_build``; None
    also means that the pointer arrays of ``n`` nodes cannot be allocated.
    """
    try:
        fwd_ptr = _zeros(n + 2)
        rev_ptr = _zeros(n + 2) if directed else fwd_ptr
    except (MemoryError, OverflowError):
        return None
    E = len(arcs[0]) * (1 if directed else 2)
    fwd = (fwd_ptr, _zeros(E), _zeros(E))
    rev = (rev_ptr, _zeros(E), _zeros(E)) if directed else fwd
    if kernel(*map(_ptr, (*arcs, *fwd, *rev))):
        return None
    return Graph(n, directed, fwd, rev, E)


def build(n: int, head: array, tail: array, weight: array,
          directed: bool) -> Optional[Graph]:
    """The graph of ``n`` nodes on equally long int64 arc columns, built by
    the compiled build, or None.

    None means the build refused an arc -- it names none -- or that the
    lane is unavailable; either way the reference build then decides.
    """
    lib = _lane()[0]
    if lib is None:
        return None
    return _built(functools.partial(lib.optpaths_build, n, len(head),
                                    int(directed)),
                  n, (head, tail, weight), directed)


#: the shortest arc line, "1 2 3", plus the newline that ends all but the last
_MIN_ARC_BYTES = 6


def read_graph(data: bytes, h: InstanceHeader) -> Optional[Graph]:
    """The graph of an instance's arc block, read by the compiled reader,
    or None.

    ``data`` is the instance, ``h`` its header (:func:`graph.parse_header`),
    and the arc block is ``data[h.body_start:]``.  None means the reader
    refused the block -- it names no fault -- or that the lane is
    unavailable; either way the reference reader then decides.  An arc
    count that the block cannot hold is refused before anything is
    allocated, and an ``n`` whose pointer arrays cannot be allocated is
    refused as well.
    """
    n, arc_count = h.n, h.arc_count
    if not (1 <= n and 0 <= arc_count
            <= (len(data) - h.body_start + 1) // _MIN_ARC_BYTES):
        return None
    lib = _lane()[0]
    if lib is None:
        return None
    return _built(functools.partial(lib.optpaths_read, data, h.body_start,
                                    len(data), n, arc_count, int(h.directed)),
                  n, [_zeros(arc_count) for _ in range(3)], h.directed)


_MASK = 2**64 - 1


def draws(out: array, seed: int, start: int, stride: int, lo: int,
          span: int, skip: Optional[array] = None) -> bool:
    """Fill ``out[i]`` with ``x = lo + splitmix64(seed, start + i * stride)
    % span`` for every index ``i``, or ``x + 1`` where ``skip`` is given and
    ``x >= skip[i]``; False, with ``out`` untouched, when the lane is
    unavailable.  ``span`` is at least 1, ``lo + span`` fits in int64, and
    ``skip`` is an int64 array as long as ``out``.
    """
    lib = _lane()[0]
    if lib is None:
        return False
    lib.optpaths_draws(seed & _MASK, start, stride, len(out), lo, span,
                       None if skip is None else _ptr(skip), _ptr(out))
    return True


def _int64s(values: Sequence[int]) -> Optional[array]:
    """``values`` as an int64 array, or None if one is no int or exceeds int64."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    try:
        return array("q", values)
    except (OverflowError, TypeError):
        return None


#: the most bytes a formatted field takes: "-9223372036854775808" and a space
_FIELD_BYTES = 21
#: the bytes of rows that one call of the formatter writes at most
_CHUNK_BYTES = 1 << 18


def write_rows(out, columns: Sequence[Sequence[int]],
               results: bool = False) -> bool:
    """Write the rows of equally long integer ``columns`` to the binary
    file ``out``; False, with nothing written, when the lane is unavailable
    or a value is no int64, and the caller then formats the rows itself.

    Row ``i`` is its fields ``columns[j][i]`` separated by spaces; with
    ``results``, the columns are per-node (region, parent, cost and,
    if any, tag; index 0 unused) and row ``i`` is node ``i``'s row of a
    results export, as :func:`partition.export_results` writes it.  The
    kernel formats the rows once, in chunks of at most 256 KiB, into one
    buffer, and each chunk goes to ``out`` as it is formatted.
    """
    lib = _lane()[0]
    if lib is None:
        return False
    cols = [_int64s(c) for c in columns]
    hi = len(cols[0]) if cols else 0
    if any(c is None or len(c) != hi for c in cols):
        return False
    ptrs = (ctypes.c_void_p * len(cols))(*map(_ptr, cols))
    lo = 1 if results else 0  # a results row per node id, from 1
    row_bytes = _FIELD_BYTES * (len(cols) + results)
    step = max(1, _CHUNK_BYTES // row_bytes)
    buf = bytearray(max(0, min(step, hi - lo)) * row_bytes)
    if not buf:
        return True
    address = ctypes.addressof((ctypes.c_char * len(buf)).from_buffer(buf))
    view = memoryview(buf)
    for i in range(lo, hi, step):
        size = lib.optpaths_format(i, min(i + step, hi), int(results),
                                   len(cols), ptrs, address)
        out.write(view[:size])
    return True


#: the shortest results row, "1 0 0 0", plus the newline that ends all but
#: the last
_MIN_ROW_BYTES = 8


def read_results(data: bytes, n: int):
    """A results export read by the compiled reader, or None.

    Returns what ``partition.read_results_file`` returns for ``data``, the
    :func:`graph.text_mode_bytes` of a file, as int64 arrays: region,
    parent, cost (0 where unreached), has_cost (0 where unreached, else 1)
    and tags, None for 4-column rows.
    None means the reader refused ``data`` -- it names no fault -- or that
    the lane is unavailable; either way the reference reader then decides.
    """
    if n > (len(data) + 1) // _MIN_ROW_BYTES:
        return None
    lib = _lane()[0]
    if lib is None:
        return None
    region, parent, cost, has_cost, tags, seen = (
        _zeros(n + 1) for _ in range(6))
    width = lib.optpaths_read_results(
        data, len(data), n,
        *map(_ptr, (region, parent, cost, has_cost, tags, seen)))
    if not width:
        return None
    return region, parent, cost, has_cost, tags if width == 5 else None


def block_is_clean(data: bytes, h: InstanceHeader, region: Sequence[int],
                   parent: Sequence[int], cost: Sequence[int],
                   has_cost: Sequence[int], fixpoint: bool,
                   tags: Optional[Sequence[int]]) -> bool:
    """Whether the compiled audit certifies a results export as clean,
    straight from the arc block of its instance, with no graph built.

    ``data`` is the instance and ``h`` its header
    (:func:`graph.parse_header`).  True means that the compiled reader
    accepts the arc block, ``data[h.body_start:]``, and that
    :func:`oracles.verify_export` under min-plus would report no failure
    on the graph it reads.  False names no fault: some check fails, the
    reader refuses the block, a value is no int64, a column does not hold
    ``h.n + 1`` entries, or the lane is unavailable; the caller then runs
    the reference audit.  int64 arrays go to the kernel as they are.
    """
    lib = _lane()[0]
    if lib is None or h.n < 1:
        return False
    cols = [_int64s(c) for c in (region, parent, cost, has_cost)
            + (() if tags is None else (tags,))]
    if any(c is None or len(c) != h.n + 1 for c in cols):
        return False
    found, root, low = (_zeros(h.n + 1) for _ in range(3))
    tag_ptr = None if tags is None else _ptr(cols[4])
    return lib.optpaths_audit_block(
        data, h.body_start, len(data), h.n, h.arc_count, int(h.directed),
        *map(_ptr, cols[:4]), tag_ptr, int(fixpoint),
        *map(_ptr, (found, root, low))) == 0


def _check_csr(lib: ctypes.CDLL, g: Graph) -> int:
    """The largest weight in the CSRs of ``g``, as ``optpaths_check_csr``
    reads it; a GraphError unless both are well formed as that kernel
    defines it, so that no kernel reaches outside an array.  An undirected
    graph's one CSR is checked once."""
    fwd = (g.fwd_ptr, g.fwd_dst, g.fwd_w)
    rev = (g.rev_ptr, g.rev_src, g.rev_w)
    same = all(a is b for a, b in zip(fwd, rev))
    max_weight = _zeros(1)
    largest = 0
    for ptr, idx, w in (fwd,) if same else (fwd, rev):
        if not (len(ptr) == g.n + 2 and len(idx) == len(w)
                and lib.optpaths_check_csr(g.n, _ptr(ptr), _ptr(idx), _ptr(w),
                                           len(idx), _ptr(max_weight)) == 0):
            raise GraphError("malformed CSR adjacency")
        largest = max(largest, max_weight[0])
    return largest


def refusal(g: Graph) -> Optional[str]:
    """Why the compiled lane cannot run ``g``, or None; GraphError if the
    CSR of ``g`` is malformed.  :func:`partition.source_set` checks sources.

    The int64 bound: the CSR check refuses a weight below 0 and reads the
    largest weight ``w`` from the arrays, so a caller who changed them
    after the build is bounded too.  Every label starts at or below the
    cost of its BFS-tree path, at most ``w * (n - 1)``, and labels only
    decrease; so every candidate ``cost + w`` any kernel forms lies in
    ``0..w * n``.  The library is resolved before that check, since the
    check is a kernel, and the first resolution may build it.
    """
    lib, why = _lane()
    if lib is None:
        return f"compiled lane unavailable ({why}); use the reference lane"
    max_weight = _check_csr(lib, g)
    if max_weight * g.n > INT64_MAX:
        return (f"max weight {max_weight} x {g.n} nodes exceeds 2**63 - 1, so "
                f"int64 path costs could overflow; use the reference lane")
    return None


def _optimize(kernel, debug_check) -> OptReport:
    """Run ``kernel``, an optimizer given its arguments up to ``loops``: one
    call to the fixpoint, or one per big loop with ``debug_check``."""
    out = _zeros(6)
    if debug_check is None:
        kernel(0, _ptr(out))
    else:
        while not kernel(1, _ptr(out)):
            debug_check(out[0])
        debug_check(out[0])  # after the last big loop too
    return OptReport(*out.tolist())


class FastRun:
    """Array-backed pipeline state for one source set on one graph.

    ``regions`` and ``state`` hold the kernels' int64 buffers, which
    :meth:`eom` and :meth:`schedule` update in place.  Raises
    :class:`GraphError` for a bad source (:func:`partition.source_set`),
    with the :func:`refusal` reason, and for a malformed CSR; it never falls
    back to Python loops.  Its reports are counters; nothing here is timed.
    """

    def __init__(self, g: Graph, sources: Sequence[int]):
        srcs = source_set(g, sources)
        why = refusal(g)
        if why is not None:
            raise GraphError(why)
        self._lib = _lane()[0]
        self.g = g
        src_ids = array("q", srcs)  # alive through the kernel call
        order = _zeros(g.n)
        region, pos, parent, cost, issrc = (_zeros(g.n + 1) for _ in range(5))
        inspections = _zeros(1)
        count = self._lib.optpaths_hda(
            _ptr(g.fwd_ptr), _ptr(g.fwd_dst), _ptr(g.rev_ptr),
            _ptr(g.rev_src), _ptr(g.rev_w), _ptr(src_ids),
            len(srcs), _ptr(order), _ptr(region), _ptr(pos), _ptr(parent),
            _ptr(cost), _ptr(issrc), _ptr(inspections))
        del order[count:]
        self.regions = Regions(order, region, pos)
        self.state = SolverState(g.n, tuple(srcs), parent, cost, issrc)
        self.hda_report = HdaReport(arc_inspections=int(inspections[0]))

    def classify(self) -> int:
        """Screen the origins into ``self.status``; returns their count."""
        g, order = self.g, self.regions.order
        self.status = _zeros(g.n + 1)
        return int(self._lib.optpaths_classify(
            _ptr(order), len(order), _ptr(g.fwd_ptr), _ptr(g.fwd_dst),
            _ptr(g.fwd_w), _ptr(self.state.cost), _ptr(self.status)))

    def _labels(self) -> list[int]:
        """The addresses of the parent, cost and source arrays."""
        st = self.state
        return [_ptr(a) for a in (st.parent, st.cost, st.is_source)]

    def eom(self, two_course: bool = False,
            debug_check: Optional[Callable[[int], None]] = None) -> OptReport:
        g, order = self.g, self.regions.order
        return _optimize(functools.partial(
            self._lib.optpaths_eom, _ptr(order), len(order),
            _ptr(self.regions.region_of), _ptr(g.rev_ptr), _ptr(g.rev_src),
            _ptr(g.rev_w), *self._labels(), int(two_course)), debug_check)

    def schedule(self, kind: str,
                 debug_check: Optional[Callable[[int], None]] = None,
                 ) -> OptReport:
        """Push to the fixpoint from the origins under the pointer rule
        ``kind``, one of :data:`partition.SCHEDULERS`; any other kind raises
        GraphError.  :meth:`classify` runs first."""
        g, r = self.g, self.regions
        return _optimize(functools.partial(
            self._lib.optpaths_schedule, scheduler_code(kind), _ptr(r.order),
            len(r.order), _ptr(r.region_of), _ptr(r.position_of),
            _ptr(g.fwd_ptr), _ptr(g.fwd_dst), _ptr(g.fwd_w), *self._labels(),
            _ptr(self.status)), debug_check)

    def root_tags(self) -> array:
        """The tags of :func:`oracles.root_tags`, from the one compiled
        walk; GraphError if a parent chain loops."""
        st, tags = self.state, _zeros(self.g.n + 1)
        if self._lib.optpaths_chain_roots(st.n, _ptr(st.parent), _ptr(tags)):
            raise GraphError("the parent chains loop")
        for s in st.sources:
            tags[s] = s
        return tags
