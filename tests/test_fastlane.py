"""Exact two-lane equivalence: the compiled kernels must reproduce the
reference solvers bit for bit -- states, tags and counters alike -- so that
either lane certifies the other; and ``run_pipeline`` must route each run to
the lane that can take it.  The reference runs pass the min-plus algebra
explicitly, which routes them to the reference lane; the compiled runs take
the default and assert that it routed them to the compiled lane."""

import ctypes
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import Graph, GraphError, cli, fastlane
from test_instance_parser import HOSTILE

needs_lane = pytest.mark.skipif(not fastlane.available(),
                                reason="no C compiler")


def reference_run(g, sources, algo):
    res = op.run_pipeline(g, sources, algo, algebra=op.min_plus_algebra())
    assert res.lane == "reference"
    return res


def fast_run(g, sources, algo):
    res = op.run_pipeline(g, sources, algo)
    assert res.lane == "compiled"
    return res


def assert_states_equal(a, b):
    # the reference lane holds lists, the compiled lane int64 arrays
    assert list(a.regions.order) == list(b.regions.order)
    assert list(a.regions.region_of) == list(b.regions.region_of)
    assert list(a.regions.position_of) == list(b.regions.position_of)
    assert list(a.state.parent) == list(b.state.parent)
    assert list(a.state.cost) == list(b.state.cost)
    assert (a.state.tags is None) == (b.state.tags is None)
    if a.state.tags is not None:
        assert list(a.state.tags) == list(b.state.tags)


def assert_counters_equal(a, b):
    # the reports carry counters only, so they compare whole
    assert a.hda_report == b.hda_report
    assert a.origins == b.origins
    assert a.opt_report == b.opt_report


INSTANCES = [
    op.GridSpec(k_r=20, k_c=15, seed=0, plant_hzp=True),
    op.GridSpec(k_r=7, k_c=25, seed=1, plant_hzp=False),
    op.GridSpec(k_r=1, k_c=12, seed=2, plant_hzp=True),
]


@needs_lane
@pytest.mark.parametrize("algo", op.ALGORITHMS)
@pytest.mark.parametrize("spec_idx", range(len(INSTANCES)))
def test_lane_equivalence_on_grids(algo, spec_idx):
    g, source, _ = op.gen_grid(INSTANCES[spec_idx])
    ref = reference_run(g, [source], algo)
    fast = fast_run(g, [source], algo)
    assert_states_equal(ref, fast)
    assert_counters_equal(ref, fast)


@needs_lane
@pytest.mark.parametrize("algo", op.ALGORITHMS)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_lane_equivalence_on_random_multigraphs(algo, seed):
    directed = seed % 2 == 0
    g = op.gen_random_graph(40, 300, 0, 10, seed=seed, directed=directed)
    ref = reference_run(g, [1], algo)
    fast = fast_run(g, [1], algo)
    assert_states_equal(ref, fast)
    assert_counters_equal(ref, fast)


@st.composite
def small_instances(draw):
    """Directed or undirected multigraphs on 1..10 nodes: zero weights,
    parallel arcs and unreached parts all occur, from 1..3 sources."""
    n = draw(st.integers(1, 10))
    directed = draw(st.booleans())
    arcs = []
    if n > 1:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda p: p[0] != p[1])
        for u, v in draw(st.lists(pairs, max_size=3 * n)):
            arcs.append((u, v, draw(st.integers(0, 4))))
    sources = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    return op.build_graph(n, arcs, directed=directed), sources


@needs_lane
@pytest.mark.parametrize("algo", op.ALGORITHMS)
@settings(max_examples=60, deadline=None)
@given(inst=small_instances())
def test_lanes_agree_on_small_graphs(algo, inst):
    g, sources = inst
    ref = reference_run(g, sources, algo)
    fast = fast_run(g, sources, algo)
    assert_states_equal(ref, fast)
    assert_counters_equal(ref, fast)
    assert (fast.state.tags is None) == (len(set(sources)) < 2)
    if algo == "hda":
        return
    alg = op.min_plus_algebra()
    per_source = [op.dijkstra_oracle(g, s, alg).dist for s in set(sources)]
    for v in range(1, g.n + 1):
        dists = [d[v] for d in per_source if d[v] is not None]
        got = fast.state.cost[v] if fast.state.labeled(v) else None
        assert got == (min(dists) if dists else None), f"node {v}"


@needs_lane
def test_fast_run_class_surface(algebra):
    g, source, _ = op.gen_grid(op.GridSpec(k_r=6, k_c=6, seed=8,
                                           plant_hzp=True))
    run = fastlane.FastRun(g, [source])
    origins = run.classify()
    assert sum(run.status) == origins
    rep = run.schedule("ht")
    assert rep.regular_way + rep.wrong_way == rep.improvements
    dj = op.dijkstra_oracle(g, source, algebra)
    assert list(run.state.cost[1:]) == dj.dist[1:]


def test_fast_run_validates_sources(triangle):
    with pytest.raises(GraphError, match="non-empty"):
        fastlane.FastRun(triangle, [])
    with pytest.raises(GraphError, match="out of range"):
        fastlane.FastRun(triangle, [9])


# -- routing: run_pipeline picks the lane -------------------------------------

@needs_lane
@pytest.mark.parametrize("algo", op.ALGORITHMS)
def test_default_routes_to_the_compiled_lane(algo):
    g, source, _ = op.gen_grid(INSTANCES[0])
    assert op.run_pipeline(g, [source], algo).lane == "compiled"
    assert op.run_pipeline(g, [1, source], algo).lane == "compiled"


@pytest.mark.parametrize("algo", op.ALGORITHMS)
def test_debug_runs_and_other_algebras_route_to_the_reference_lane(
        algo, triangle, algebra):
    assert op.run_pipeline(triangle, [1], algo,
                           debug_invariants=True).lane == "reference"
    assert op.run_pipeline(triangle, [1], algo,
                           algebra=algebra).lane == "reference"


# -- the int64 bound: max_weight * n <= 2**63 - 1 ------------------------------

def path_graph(weights):
    arcs = [(i + 1, i + 2, w) for i, w in enumerate(weights)]
    return op.build_graph(len(weights) + 1, arcs, directed=True)


W_AT_BOUND = fastlane.INT64_MAX // 7  # 7 divides 2**63 - 1


@needs_lane
@pytest.mark.parametrize("algo", op.ALGORITHMS)
def test_both_lanes_exact_at_the_int64_bound(algo):
    g = path_graph([W_AT_BOUND] * 6)
    assert W_AT_BOUND * g.n == fastlane.INT64_MAX
    ref = reference_run(g, [1], algo)
    fast = fast_run(g, [1], algo)
    assert ref.state.cost[7] == 6 * W_AT_BOUND
    assert_states_equal(ref, fast)
    assert_counters_equal(ref, fast)
    assert op.run_pipeline(g, [1], algo).lane == "compiled"


def assert_refused_for_overflow(g):
    # the bound is checked by a kernel, so without the lane refusal names
    # the missing compiler instead
    why = "overflow" if fastlane.available() else "compiled lane unavailable"
    assert why in fastlane.refusal(g)
    with pytest.raises(GraphError, match=why):
        fastlane.FastRun(g, [1])


@pytest.mark.parametrize("weights", [[W_AT_BOUND] * 5 + [W_AT_BOUND + 1],
                                     [6 * 10**18] * 2])
def test_compiled_lane_refuses_one_above_the_bound(weights):
    g = path_graph(weights)
    assert max(weights) * g.n > fastlane.INT64_MAX
    assert_refused_for_overflow(g)
    # the default routes to the reference lane, which is exact
    res = op.run_pipeline(g, [1], "eom")
    assert res.lane == "reference"
    assert res.state.cost[g.n] == sum(weights)


def test_weights_changed_after_the_build_are_bounded():
    # weights raised after the build would let the kernels wrap 2**62 + 2**62
    g = path_graph([1, 1])
    for w in (g.fwd_w, g.rev_w):
        w[:] = array("q", [2**62] * 2)
    assert_refused_for_overflow(g)
    res = op.run_pipeline(g, [1], "ht")
    assert res.lane == "reference"
    assert res.state.cost[3] == 2**63
    # negative weights after the build would wrap downwards: both lanes
    # refuse them as a malformed CSR
    g = path_graph([1, 1, 1])
    for w in (g.fwd_w, g.rev_w):
        w[:] = array("q", [-2**62] * 3)
    if fastlane.available():
        with pytest.raises(GraphError, match="malformed CSR"):
            fastlane.refusal(g)
    for algebra in (None, op.min_plus_algebra()):
        with pytest.raises(GraphError, match="malformed CSR"):
            op.run_pipeline(g, [1], "ht", algebra=algebra)
    with pytest.raises(GraphError, match="malformed CSR"):
        op.verify_export(g, [0, 1, 2, 3, 4], [0, 0, 1, 2, 3], [0] * 5,
                         [0, 1, 1, 1, 1])


# -- building and loading the shared object ------------------------------------

def cache_files(tmp_path):
    cache = tmp_path / "optpaths"  # not made when no compiler is found
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


@needs_lane
def test_second_load_reuses_the_cached_object(fresh_lane, monkeypatch,
                                              tmp_path):
    assert fastlane.available()
    built = cache_files(tmp_path)
    assert len(built) == 1 and built[0].endswith(".so")

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler invoked: {args}")

    fresh_lane()
    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert fastlane.available()
    assert cache_files(tmp_path) == built


@needs_lane
def test_concurrent_builds_leave_one_complete_object(fresh_lane, tmp_path):
    errors = []

    def build():
        try:
            fastlane._load()
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads) and not errors
    built = cache_files(tmp_path)
    assert len(built) == 1 and built[0].startswith("kernels-")
    assert fastlane.available()


@pytest.mark.parametrize("command", ["/nonexistent/cc", "false"])
def test_missing_or_failing_compiler_disables_the_lane(
        command, broken_compiler, tmp_path, triangle, capsys):
    broken_compiler(command)
    assert not fastlane.available()
    assert not [f for f in cache_files(tmp_path) if f.startswith(".build-")]
    assert "compiled lane unavailable" in fastlane.refusal(triangle)
    # a direct compiled run never falls back to Python loops
    with pytest.raises(GraphError, match="compiled lane unavailable"):
        fastlane.FastRun(triangle, [1])
    # the default routes to the reference lane
    assert op.run_pipeline(triangle, [1], "ht").lane == "reference"
    inst = str(tmp_path / "tri.txt")
    # the triangle fixture's arcs
    op.write_instance_file(3, [1, 1, 3], [2, 3, 2], [10, 1, 1], False, inst)
    assert cli.main(["solve", "--instance", inst, "--algo", "eom"]) \
        == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("eom: BL=")


_MALFORMED_CSR = """
from array import array
import optpaths as op
from optpaths import GraphError

q = lambda *xs: array("q", xs)
# directed, 3 nodes, one arc 1 -> 2 whose leaf id reads 10**7
hand_built = op.Graph(3, True, (q(0, 0, 1, 1, 1), q(10**7), q(1)),
                      (q(0, 0, 0, 1, 1), q(1), q(1)), 1)
patched = op.build_graph(3, [(1, 2, 1), (2, 3, 1)])
patched.fwd_dst[0] = 10**7
export = ([0, 1, 2, 3], [0, 0, 1, 2], [0, 0, 1, 2], [0, 1, 1, 1])
for g in (hand_built, patched):
    for call in (lambda: op.run_pipeline(g, [1], "ht"),
                 lambda: op.verify_export(g, *export)):
        try:
            call()
            print("accepted")
        except GraphError as exc:
            print(exc)
"""


@needs_lane
def test_a_malformed_csr_reaches_no_kernel():
    # in a child process, since a kernel walking such a CSR may crash it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _MALFORMED_CSR], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["malformed CSR adjacency"] * 4


def test_a_malformed_csr_is_refused_on_the_reference_lane(broken_compiler):
    broken_compiler()
    g = op.build_graph(3, [(1, 2, 1), (2, 3, 1)])
    g.fwd_dst[0] = 10**7
    export = ([0, 1, 2, 3], [0, 0, 1, 2], [0, 0, 1, 2], [0, 1, 1, 1])
    for call in (lambda: op.run_pipeline(g, [1], "ht"),
                 lambda: op.run_pipeline(g, [1], "eom",
                                         debug_invariants=True),
                 lambda: op.verify_export(g, *export)):
        with pytest.raises(GraphError, match="^malformed CSR adjacency$"):
            call()


@needs_lane
@pytest.mark.parametrize("typecode", [None, "i"], ids=["list", "int32"])
def test_a_graph_of_other_arrays_is_refused(triangle, typecode):
    # a graph built by hand from lists or 32-bit arrays: the compiled lane
    # takes the address of no such array, and both lanes call it malformed
    convert = list if typecode is None else (lambda a: array(typecode, a))
    csr = tuple(map(convert, (triangle.fwd_ptr, triangle.fwd_dst,
                              triangle.fwd_w)))
    g = Graph(triangle.n, False, csr, csr, triangle.E)
    with pytest.raises(GraphError,
                       match="^the compiled lane needs int64 arrays$"):
        fastlane.FastRun(g, [1])
    for algebra in (None, op.min_plus_algebra()):
        with pytest.raises(GraphError, match="^malformed CSR adjacency$"):
            op.run_pipeline(g, [1], "ht", algebra=algebra)


#: a kernel definition in kernels.c: return type, name, parameter list
_KERNEL = re.compile(r"^(void|int64_t) (optpaths_\w+)\(([^)]*)\)",
                     re.MULTILINE)


def _ctype(param):
    """The ctypes type that passes one C parameter."""
    kind = param.split("*")[0].split()
    if "*" in param:
        return ctypes.c_char_p if kind == ["const", "char"] else ctypes.c_void_p
    return {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64}[kind[0]]


def test_signatures_match_the_kernel_source():
    # text only, no compiler: a ctypes signature that disagrees with its
    # kernel corrupts memory without an error
    kernels = {
        name: ([_ctype(p) for p in params.split(",")],
               {"void": None, "int64_t": ctypes.c_int64}[restype])
        for restype, name, params in _KERNEL.findall(
            fastlane._SOURCE.read_text())}
    assert kernels == {name: (list(argtypes), restype) for name,
                       (argtypes, restype) in fastlane._SIGNATURES.items()}
    # and every kernel has a caller: a dead one fails here.  Two are
    # handed to functools.partial, so a use is any ``lib.<name>``.
    used = set(re.findall(r"lib\.(optpaths_\w+)",
                          Path(fastlane.__file__).read_text()))
    assert set(kernels) <= used


#: a function definition of kernels.c: its name and its body, between a
#: "{" and a "}" that each stand alone at the start of a line
_FUNCTION = re.compile(r"^\w[^;{}]*?\b(\w+)\([^;{}]*\)\n\{\n(.*?)^\}",
                       re.MULTILINE | re.DOTALL)


def test_one_scanner_skips_comment_lines():
    # both file kinds share one comment rule, so one function holds it
    bodies = dict(_FUNCTION.findall(fastlane._SOURCE.read_text()))
    assert set(fastlane._SIGNATURES) <= set(bodies)
    assert [name for name, body in bodies.items() if "'#'" in body] \
        == ["next_row"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("std", [[], ["-std=c99", "-pedantic"]],
                         ids=["default", "c99-pedantic"])
def test_kernels_compile_without_warnings(tmp_path, std):
    # a full optimizing build, since some warnings (say, a variable that
    # may be used uninitialized) come only from the optimizer's analysis
    obj = tmp_path / "kernels.so"
    proc = subprocess.run(["cc", "-O2", *std, "-Wall", "-Wextra", "-Werror",
                           "-shared", "-fPIC", "-o", str(obj),
                           str(fastlane._SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert obj.stat().st_size > 0


#: the kernels built to stop at the first out-of-bounds access or
#: undefined behaviour
SANITIZED_BUILD = ("cc", "-O1", "-g", "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all", "-shared", "-fPIC")

# Builds the kernels with the command in argv and drives every kernel: all
# six algorithms on an undirected grid and a directed multi-source graph,
# each read from its instance bytes; the results reader on every prefix of
# an export and on the export with one byte spoiled; the audit on the clean
# export and on mutated ones; the formatter on int64's extremes; the draws
# with and without a skip column; and the instance reader on the arc
# blocks that it must refuse, read from stdin as a JSON list.
_UNDER_SANITIZERS = r"""
import io, json, os, sys
from array import array
import optpaths as op
from optpaths import fastlane, partition
from optpaths.generators import splitmix64
from optpaths.graph import parse_header

# the sanitizer runtime is preloaded into this process; the compiler
# that builds the kernels runs without it
del os.environ["LD_PRELOAD"]
fastlane._BUILD = tuple(sys.argv[1:])
assert fastlane.available(), fastlane._lane()[1]
LO, HI = -2**63, 2**63 - 1

def instance(n, head, tail, weight, directed):
    buf = io.BytesIO()
    op.write_instance(n, head, tail, weight, directed, buf)
    return buf.getvalue()

grid = op.GridSpec(12, 9, seed=3, plant_hzp=True)
cases = [(instance(grid.n, *op.grid_columns(grid)[:3], False), [1]),
         (instance(200, *op.random_columns(200, 900, 0, 9, seed=5), True),
          [1, 17, 150])]
for data, sources in cases:
    h = parse_header(data)
    g, _ = op.read_instance(data)
    for algo in op.ALGORITHMS:
        res = op.run_pipeline(g, sources, algo)
        assert res.lane == "compiled"
        buf = io.BytesIO()
        partition.export_results(res.state, res.regions, buf)
        export = buf.getvalue()
        cols = fastlane.read_results(export, g.n)
        region, parent, cost, has_cost, tags = cols
        audit = lambda: fastlane.block_is_clean(
            data, h, region, parent, cost, has_cost, True, tags)
        assert audit() == (algo != "hda")
        for v in range(1, g.n + 1, 23):
            for col in (region, parent, cost, has_cost, tags or region):
                old = col[v]
                for x in (old + 1, old - 1, 0, g.n + 1, LO, HI):
                    col[v] = x
                    audit()
                col[v] = old
        assert fastlane.block_is_clean(data, h, region[:-1], parent, cost,
                                       has_cost, True, tags) is False
    for i in range(len(export)):
        fastlane.read_results(export[:i], g.n)
        for b in (b"x", b"\xff", b"\r", b"-", b"9" * 20, b" UNREACHED"):
            fastlane.read_results(export[:i] + b + export[i + 1:], g.n)

for text in json.load(sys.stdin):
    data = text.encode()
    assert fastlane.read_graph(data, parse_header(data)) is None, text

cols = [array("q", [LO, -1, 0, 1, HI]), array("q", [HI, 9, 10, 99, LO])]
buf = io.BytesIO()
assert fastlane.write_rows(buf, cols)
assert buf.getvalue() == "".join(
    f"{a} {b}\n" for a, b in zip(*cols)).encode()

out, skip = array("q", [0]) * 300, array("q", range(300))
for args in ((7, 0, 1, 1, 10, None), (2**64 - 1, 5, 3, 1, 300, skip),
             (0, 0, 2**63, LO, 2**64 - 1, None)):
    seed, start, stride, lo, span, sk = args
    assert fastlane.draws(out, *args)
    for i, x in enumerate(out):
        y = lo + splitmix64(seed, (start + i * stride) % 2**64) % span
        assert x == (y if sk is None or y < sk[i] else y + 1)
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_every_kernel_runs_clean_under_the_sanitizers(tmp_path):
    # PYTHONMALLOC=malloc makes every bytes object a kernel reads a malloc
    # block, which the address sanitizer fences with redzones
    asan = subprocess.run(["cc", "-print-file-name=libasan.so"],
                          capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(asan):  # the bare name: cc found no library
        pytest.skip("no address sanitizer runtime")
    src = str(Path(op.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, LD_PRELOAD=asan,
               ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc",
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_SANITIZERS, *SANITIZED_BUILD],
        input=json.dumps([text for text, _ in HOSTILE]), env=env,
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


_CLI_WITHOUT_NUMPY = """
import os, sys
sys.modules["numpy"] = None  # every import of numpy now fails
import optpaths.cli
from optpaths import fastlane
STDLIB = ("argparse", "gettext", "locale", "heapq", "subprocess", "hashlib",
          "dataclasses")
LAZY = STDLIB + ("optpaths.generators", "optpaths.oracles", "optpaths.monarchy",
                 "optpaths.evolve")
print(sorted(m for m in LAZY if m in sys.modules),
      os.path.exists(fastlane._cache_dir()))
lane, d, *argv = sys.argv[1:]
if lane == "reference":
    fastlane._BUILD = ("/nonexistent/cc",) + fastlane._BUILD[1:]
os.chdir(d)
assert optpaths.cli.main(argv) == 0, argv
print(sorted([m[9:] for m in sys.modules if m.startswith("optpaths.")]
             + [m for m in STDLIB if m in sys.modules]))
print(fastlane.available())
"""

#: the modules ``import optpaths.cli`` loads: of the package's, and of the
#: standard library modules that some command loads and some does not
#: (``STDLIB`` above), none
CLI_MODULES = {"cli", "fastlane", "graph", "partition", "pipeline"}

#: the modules a process loads to compile the kernels: the first on the
#: compiled lane.  ``oracles`` loads ``heapq`` and ``subprocess`` loads
#: ``locale``.  With no compiler on the PATH (the reference lane here) no
#: process tries the compile.
COMPILE_MODULES = {"oracles", "heapq", "subprocess", "locale"}

#: each command, the modules it loads on top of CLI_MODULES, and those it
#: loads only on the reference lane, where ``oracles`` (with ``heapq``)
#: holds the reference readers, build, CSR check and audit, and where
#: ``verify`` runs ``oracles.verify_export`` since no compiled audit
#: certifies the export.
#: No well-formed command line loads argparse or its gettext and locale.
COMMAND_MODULES = [
    ("solve --instance tri --algo ht", set(),
     {"monarchy", "oracles", "heapq"}),
    ("gen grid --rows 6 --cols 5 --hzp --out grid", {"generators"}, set()),
    ("gen random --n 30 --arcs 120 --seed 3 --directed --out rand",
     {"generators"}, set()),
    ("solve --instance rand --algo multi --sources 1,17 --out res",
     set(), {"monarchy", "oracles", "heapq"}),
    ("solve --instance grid --algo eom", set(),
     {"evolve", "oracles", "heapq"}),
    ("verify --instance rand --results res --fixpoint", set(),
     {"oracles", "heapq"}),
    ("compare --instance grid", set(),
     {"evolve", "monarchy", "oracles", "heapq"}),
    ("bench --n-total 60 --kc 3,5 --algos eom,ht", {"generators"},
     {"evolve", "monarchy", "oracles", "heapq"}),
]


_SOLVE_THEN_VERIFY = """
import sys
from optpaths.cli import main
inst, res = sys.argv[1:]
assert main(["solve", "--instance", inst, "--algo", "multi",
             "--sources", "1,17", "--out", res]) == 0
assert main(["verify", "--instance", inst, "--results", res,
             "--fixpoint"]) == 0
print(sorted(m for m in ("numpy",) if m in sys.modules))
"""


@needs_lane
def test_solve_and_verify_do_not_load_numpy(tmp_path):
    # numpy stays importable here: nothing on the path may load it
    inst, res = tmp_path / "rand.txt", tmp_path / "res.txt"
    op.write_instance_file(30, *op.random_columns(30, 120, 0, 9, seed=3),
                           True, str(inst))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", _SOLVE_THEN_VERIFY,
                          str(inst), str(res)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-2:] == ["OK", "[]"]
    assert len(res.read_text().splitlines()) == 30


def test_import_builds_and_loads_nothing(tmp_path):
    # importing the CLI builds no kernels and loads neither argparse,
    # subprocess, hashlib, dataclasses nor any module a command may not
    # need; each command, in a fresh process, loads only the modules it
    # runs; and every command runs with numpy unimportable, on each lane
    lanes = ["reference"] + (["compiled"] if shutil.which("cc") else [])
    for lane in lanes:
        d = tmp_path / lane
        d.mkdir()
        (d / "tri").write_text("n 3 3 directed\n1 2 10\n1 3 1\n3 2 1\n")
        env = dict(os.environ, XDG_CACHE_HOME=str(d / "cache"),
                   PYTHONPATH=os.pathsep.join(sys.path))
        printed = []
        for i, (command, loads, reference_loads) in enumerate(COMMAND_MODULES):
            out = subprocess.run(
                [sys.executable, "-c", _CLI_WITHOUT_NUMPY, lane, str(d),
                 *command.split()], env=env, check=True,
                capture_output=True, text=True).stdout.splitlines()
            # no kernel cache until the first command has run
            assert out[0] in ("[] False", "[] True")[:i + 1], command
            want = CLI_MODULES | loads
            if lane == "reference":
                want |= reference_loads
            if lane == "compiled" and i == 0:
                want |= COMPILE_MODULES
            assert out[-2] == str(sorted(want)), command
            assert out[-1] == str(lane == "compiled")
            printed += out[1:-2]
        assert "OK" in printed and "all agree" in printed
        assert len((d / "res").read_text().splitlines()) == 30
        # without a compiler no process makes a kernel cache
        assert (d / "cache").exists() == (lane == "compiled")
    if len(lanes) == 2:
        for name in ("grid", "rand", "res"):
            assert (tmp_path / "reference" / name).read_bytes() \
                == (tmp_path / "compiled" / name).read_bytes()


_USAGE_ERROR = """
import sys
from optpaths.cli import main
try:
    main()
finally:
    print(sorted(m for m in ("argparse", "gettext", "locale")
                 if m in sys.modules))
"""


def test_a_usage_error_loads_argparse_and_exits_1():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _USAGE_ERROR, "solve",
                           "--instance", "tri"], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 1
    assert proc.stdout == "['argparse', 'gettext', 'locale']\n"
    assert proc.stderr.endswith("optpaths solve: error: the following "
                                "arguments are required: --algo\n")
