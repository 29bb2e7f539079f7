"""Compiled min-plus kernels behind :func:`optpaths.pipeline.run_pipeline`,
the instance and results files, and :func:`optpaths.oracles.verify_export`.

The reference solvers in :mod:`partition`, :mod:`evolve` and :mod:`monarchy`
are generic over the cost algebra and carry debug hooks; the kernels in
``kernels.c`` are the same algorithms specialized to min-plus over int64.
They mirror the reference loops statement for statement -- including every
counter and the per-node source tags -- and the test suite asserts exact
equality of states and counters between the two lanes, so either lane
certifies the other.  Schedulers are named as in
:data:`partition.SCHEDULERS`, and this module imports none of the
reference solvers.  Results stay in the kernels' ``array('q')`` buffers
from solve to export.

The other kernels certify or refuse.  :func:`build` assembles the CSR of
int64 arc columns, :func:`read_graph` parses an instance's arc block and
builds it, :func:`read_results` reads a results file, :func:`format_rows`
writes the rows of either file, :func:`draws` makes the generators'
splitmix64 draws, and :func:`export_is_clean` certifies an export that
:func:`oracles.verify_export` would pass.  Each returns None or False
wherever it cannot answer, and the Python code, the reference, decides.
A graph keeps only its CSR arrays, so the arc columns a build reads are
freed once it returns.

This module needs only the standard library plus, optionally, a C
compiler: every array it passes to a kernel is an ``array('q')``, and
ctypes takes its address from ``buffer_info()``.  On the first call that
needs them -- never at import -- the kernels are compiled with the system
``cc`` into ``$XDG_CACHE_HOME/optpaths`` (default ``~/.cache/optpaths``)
under a name keyed by a checksum of the source and the compile command,
then loaded with ctypes; later processes load the cached object.

:func:`refusal` names the one reason, if any, that this lane cannot run a
graph from a source set: a bad source, a graph whose ``max_weight * n``
exceeds ``2**63 - 1`` (an int64 cost could wrap; the reference lane
computes such instances exactly), or no compiler.  ``FastRun`` raises
:class:`GraphError` with that reason; ``run_pipeline`` runs the reference
lane instead.  Before a kernel walks a graph, one kernel pass checks its
CSR: ``FastRun`` and :func:`export_is_clean`, and so ``run_pipeline`` and
``verify_export``, raise :class:`GraphError` on a malformed one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import time
import zlib
from array import array
from pathlib import Path
from typing import Optional, Sequence

from .graph import INT64_MAX, Graph, GraphError, _zeros
from .partition import SCHEDULERS, HdaReport, OptReport, Regions, SolverState

#: compile command; ``-o <object> <source>`` is appended
_BUILD = ("cc", "-O2", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("kernels.c")

_P, _I, _U = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
#: kernel name -> (argtypes, restype), matching kernels.c
_SIGNATURES = {
    "optpaths_hda": ([_P] * 6 + [_I] + [_P] * 8, _I),
    "optpaths_classify": ([_P, _I] + [_P] * 5, _I),
    "optpaths_eom": ([_P, _I] + [_P] * 8 + [_I, _P], None),
    "optpaths_schedule": ([_I, _P, _I] + [_P] * 11, None),
    "optpaths_build": ([_I] * 3 + [_P] * 10, _I),
    "optpaths_check_csr": ([_I, _P, _P, _I], _I),
    "optpaths_read": ([ctypes.c_char_p] + [_I] * 4 + [_P] * 10, _I),
    "optpaths_draws": ([_U] * 3 + [_I, _I, _U, _P], None),
    "optpaths_format": ([_I] * 4 + [_P] * 2, _I),
    "optpaths_read_results": ([ctypes.c_char_p, _I, _I] + [_P] * 6, _I),
    "optpaths_audit": ([_I] + [_P] * 8 + [_I] + [_P] * 4, _I),
}


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "optpaths"


def _build(path: Path) -> None:
    """Compile the kernels to ``path``.

    The compiler writes a private temporary file that is then renamed into
    place, so concurrent builds of the same object cannot see a partial one.
    """
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run([*_BUILD, "-o", tmp, str(_SOURCE)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"{_BUILD[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    """Load the kernels from the cache, compiling them there first if needed."""
    key = zlib.crc32(" ".join(_BUILD + (os.uname().machine,)).encode()
                     + _SOURCE.read_bytes())
    path = _cache_dir() / f"kernels-{key:08x}.so"
    if not path.exists():
        _build(path)
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

    ``kernel`` takes the arc and CSR arrays and the maximum-weight cell of
    ``optpaths_build``; None also means that the pointer arrays of ``n``
    nodes cannot be allocated.
    """
    try:
        fwd_ptr = _zeros(n + 2)
        rev_ptr = _zeros(n + 2) if directed else fwd_ptr
    except (MemoryError, OverflowError):
        return None
    E = len(arcs[0]) * (1 if directed else 2)
    fwd = (fwd_ptr, _zeros(E), _zeros(E))
    rev = (rev_ptr, _zeros(E), _zeros(E)) if directed else fwd
    max_weight = _zeros(1)
    if kernel(*map(_ptr, (*arcs, *fwd, *rev, max_weight))):
        return None
    return Graph(n, directed, fwd, rev, E, max_weight[0])


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


def read_graph(body: bytes, n: int, arc_count: int,
               directed: bool) -> Optional[Graph]:
    """The graph of an arc block, read by the compiled reader, or None.

    ``body`` is the instance text after the header line, which declared
    ``n`` nodes and ``arc_count`` arcs.  None means the reader refused the
    block -- it names no fault -- or that the lane is unavailable; either
    way the reference reader then decides.  An arc count that the block
    cannot hold is refused before anything is allocated, and an ``n``
    whose pointer arrays cannot be allocated is refused as well.
    """
    if not (1 <= n and 0 <= arc_count <= (len(body) + 1) // _MIN_ARC_BYTES):
        return None
    lib = _lane()[0]
    if lib is None:
        return None
    return _built(functools.partial(lib.optpaths_read, body, len(body), n,
                                    arc_count, int(directed)),
                  n, [_zeros(arc_count) for _ in range(3)], directed)


_MASK = 2**64 - 1


def draws(out: array, seed: int, start: int, stride: int, lo: int,
          span: int) -> bool:
    """Fill ``out[i]`` with ``lo + splitmix64(seed, start + i * stride) %
    span`` for every index ``i``; False, with ``out`` untouched, when the
    lane is unavailable.  ``span`` is at least 1 and ``lo + span - 1`` fits
    in int64.
    """
    lib = _lane()[0]
    if lib is None:
        return False
    lib.optpaths_draws(seed & _MASK, start, stride, len(out), lo, span,
                       _ptr(out))
    return True


def _int64s(values: Sequence[int]) -> Optional[array]:
    """``values`` as an int64 array, or None if one is no int or exceeds int64."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    try:
        return array("q", values)
    except (OverflowError, TypeError):
        return None


def format_rows(columns: Sequence[Sequence[int]],
                results: bool = False) -> Optional[str]:
    """The rows of equally long integer ``columns`` as text, or None.

    Row ``i`` is its fields ``columns[j][i]`` separated by spaces; with
    ``results``, the columns are per-node (region, parent, cost and,
    if any, tag; index 0 unused) and row ``i`` is node ``i``'s row of a
    results export, as :func:`partition.export_results` writes it.  None
    means the lane is unavailable or a value is no int64; the caller then
    formats the rows itself.
    """
    lib = _lane()[0]
    if lib is None:
        return None
    cols = [_int64s(c) for c in columns]
    hi = len(cols[0]) if cols else 0
    if any(c is None or len(c) != hi for c in cols):
        return None
    ptrs = (ctypes.c_void_p * len(cols))(*map(_ptr, cols))
    lo = 1 if results else 0  # a results row per node id, from 1
    args = (lo, hi, int(results), len(cols), ptrs)
    buf = bytearray(lib.optpaths_format(*args, None))
    if buf:
        target = (ctypes.c_char * len(buf)).from_buffer(buf)
        lib.optpaths_format(*args, ctypes.addressof(target))
    return buf.decode("ascii")


#: the shortest results row, "1 0 0 0", plus the newline that ends all but
#: the last
_MIN_ROW_BYTES = 8


def read_results(data: bytes, n: int):
    """A results export read by the compiled reader, or None.

    Returns what ``partition.read_results_file`` returns for ``data``, the
    bytes of a file, as int64 arrays: region, parent, cost (0 where
    unreached), has_cost (0 where unreached, else 1) and tags, None for
    4-column rows.
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


def export_is_clean(g: Graph, region: Sequence[int], parent: Sequence[int],
                    cost: Sequence[int], has_cost: Sequence[int],
                    fixpoint: bool, tags: Optional[Sequence[int]]) -> bool:
    """Whether the compiled audit certifies a results export as clean.

    True means :func:`oracles.verify_export` under min-plus would report no
    failure.  False names no fault: some check fails, a value is no
    int64, or the lane is unavailable; the caller then runs the reference
    audit.  int64 arrays go to the kernel as they are.  A malformed CSR
    raises GraphError.
    """
    lib = _lane()[0]
    if lib is None:
        return False
    _check_csr(lib, g)
    n = g.n
    cols = [region, parent, cost, has_cost] + ([] if tags is None else [tags])
    cols = [_int64s(c) for c in cols]
    if any(c is None or len(c) != n + 1 for c in cols):
        return False
    tag_ptr = None if tags is None else _ptr(cols[4])
    scratch = [_zeros(n + 1) for _ in range(3)] + [_zeros(n)]
    return lib.optpaths_audit(
        n, _ptr(g.fwd_ptr), _ptr(g.fwd_dst), _ptr(g.fwd_w),
        *map(_ptr, cols[:4]), tag_ptr, int(fixpoint),
        *map(_ptr, scratch)) == 0


def _check_csr(lib: ctypes.CDLL, g: Graph) -> None:
    """Raise GraphError unless both CSRs of ``g`` are well formed, as
    ``optpaths_check_csr`` defines it, so that no kernel reaches outside an
    array; an undirected graph's one CSR is checked once."""
    fwd = (g.fwd_ptr, g.fwd_dst, g.fwd_w)
    rev = (g.rev_ptr, g.rev_src, g.rev_w)
    same = all(a is b for a, b in zip(fwd, rev))
    for ptr, idx, w in (fwd,) if same else (fwd, rev):
        if not (len(ptr) == g.n + 2 and len(idx) == len(w)
                and lib.optpaths_check_csr(g.n, _ptr(ptr), _ptr(idx),
                                           len(idx)) == 0):
            raise GraphError("malformed CSR adjacency")


def refusal(g: Graph, sources: Sequence[int]) -> Optional[str]:
    """Why the compiled lane cannot run ``g`` from ``sources``, or None.

    The int64 bound: every label starts at or below the cost of its BFS-tree
    path, at most ``max_weight * (n - 1)``, and labels only decrease; so
    every candidate ``cost + w`` any kernel forms is at most
    ``max_weight * n``.  The library is resolved last, since the first
    resolution may build it.
    """
    if not sources:
        return "source set must be non-empty"
    for s in sources:
        if not 1 <= s <= g.n:
            return f"source {s} out of range 1..{g.n}"
    if g.max_weight * g.n > INT64_MAX:
        return (f"max weight {g.max_weight} x {g.n} nodes exceeds 2**63 - 1, so "
                f"int64 path costs could overflow; use the reference lane")
    lib, why = _lane()
    if lib is None:
        return f"compiled lane unavailable ({why}); use the reference lane"
    return None


class FastRun:
    """Array-backed pipeline state for one source set on one graph.

    ``regions`` and ``state`` hold the kernels' int64 buffers, which
    :meth:`eom` and :meth:`schedule` update in place.  Raises
    :class:`GraphError` with the :func:`refusal` reason when the lane cannot
    run the graph, and for a malformed CSR; it never falls back to Python
    loops.
    """

    def __init__(self, g: Graph, sources: Sequence[int]):
        srcs = sorted(set(int(s) for s in sources))
        why = refusal(g, srcs)
        if why is not None:
            raise GraphError(why)
        self._lib = _lane()[0]
        _check_csr(self._lib, g)
        self.g = g
        src_ids = array("q", srcs)  # alive through the kernel call
        t0 = time.perf_counter()
        order = _zeros(g.n)
        region, pos, parent, cost, issrc, self._tags = (
            _zeros(g.n + 1) for _ in range(6))
        inspections = _zeros(1)
        count = self._lib.optpaths_hda(
            _ptr(g.fwd_ptr), _ptr(g.fwd_dst), _ptr(g.rev_ptr),
            _ptr(g.rev_src), _ptr(g.rev_w), _ptr(src_ids),
            len(srcs), _ptr(order), _ptr(region), _ptr(pos), _ptr(parent),
            _ptr(cost), _ptr(issrc), _ptr(self._tags), _ptr(inspections))
        del order[count:]
        self.regions = Regions(order, region, pos)
        self.state = SolverState(g.n, tuple(srcs), parent, cost, issrc,
                                 self._tags if len(srcs) > 1 else None)
        self.hda_report = HdaReport(
            arc_inspections=int(inspections[0]),
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
        )
        self.origin_count = 0
        self.classify_ms = 0.0

    def classify(self) -> int:
        """Screen the origins into ``self.status``; returns their count."""
        g, order = self.g, self.regions.order
        t0 = time.perf_counter()
        self.status = _zeros(g.n + 1)
        origins = self._lib.optpaths_classify(
            _ptr(order), len(order), _ptr(g.fwd_ptr), _ptr(g.fwd_dst),
            _ptr(g.fwd_w), _ptr(self.state.cost), _ptr(self.status))
        self.origin_count = int(origins)
        self.classify_ms = (time.perf_counter() - t0) * 1e3
        return self.origin_count

    def _labels(self) -> list[int]:
        """The addresses of the parent, cost, source and tag arrays."""
        st = self.state
        return [_ptr(a) for a in (st.parent, st.cost, st.is_source,
                                  self._tags)]

    def eom(self, two_course: bool = False) -> OptReport:
        g, order = self.g, self.regions.order
        out = _zeros(6)
        t0 = time.perf_counter()
        self._lib.optpaths_eom(
            _ptr(order), len(order), _ptr(self.regions.region_of),
            _ptr(g.rev_ptr), _ptr(g.rev_src), _ptr(g.rev_w), *self._labels(),
            int(two_course), _ptr(out))
        return OptReport(*out.tolist(), (time.perf_counter() - t0) * 1e3)

    def schedule(self, kind: str) -> OptReport:
        """Push to the fixpoint from the origins under the pointer rule
        ``kind``, one of :data:`partition.SCHEDULERS`; :meth:`classify` runs
        first."""
        g, r = self.g, self.regions
        code = SCHEDULERS.index(kind)
        out = _zeros(6)
        t0 = time.perf_counter()
        self._lib.optpaths_schedule(
            code, _ptr(r.order), len(r.order), _ptr(r.region_of),
            _ptr(r.position_of), _ptr(g.fwd_ptr), _ptr(g.fwd_dst),
            _ptr(g.fwd_w), *self._labels(), _ptr(self.status), _ptr(out))
        return OptReport(*out.tolist(), (time.perf_counter() - t0) * 1e3)
