"""Exact two-lane equivalence: the compiled kernels must reproduce the
reference solvers bit for bit -- states, tags and counters alike -- so that
either lane certifies the other; and ``run_pipeline`` must route each run to
the lane that can take it.  The reference runs pass the min-plus algebra
explicitly, which routes them to the reference lane; the compiled runs take
the default and assert that it routed them to the compiled lane."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import GraphError, cli, fastlane

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
    assert a.hda_report.arc_inspections == b.hda_report.arc_inspections
    assert a.origins == b.origins
    ra, rb = a.opt_report, b.opt_report
    if ra is None:
        assert rb is None
        return
    assert ra.big_loops == rb.big_loops
    assert ra.improvements == rb.improvements
    assert ra.node_scans == rb.node_scans
    assert ra.regular_way == rb.regular_way
    assert ra.wrong_way == rb.wrong_way
    assert ra.arc_relaxations == rb.arc_relaxations


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
    assert origins == run.origin_count
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


@pytest.mark.parametrize("weights", [[W_AT_BOUND] * 5 + [W_AT_BOUND + 1],
                                     [6 * 10**18] * 2])
def test_compiled_lane_refuses_one_above_the_bound(weights):
    g = path_graph(weights)
    assert max(weights) * g.n > fastlane.INT64_MAX
    assert "overflow" in fastlane.refusal(g, [1])
    with pytest.raises(GraphError, match="overflow"):
        fastlane.FastRun(g, [1])
    # the default routes to the reference lane, which is exact
    res = op.run_pipeline(g, [1], "eom")
    assert res.lane == "reference"
    assert res.state.cost[g.n] == sum(weights)


# -- building and loading the shared object ------------------------------------

def cache_files(tmp_path):
    return sorted(p.name for p in (tmp_path / "optpaths").iterdir())


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
    assert "compiled lane unavailable" in fastlane.refusal(triangle, [1])
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
                      (q(0, 0, 0, 1, 1), q(1), q(1)), 1, 1)
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


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernels_compile_without_warnings():
    proc = subprocess.run(["cc", "-O2", "-Wall", "-Wextra", "-Werror",
                           "-fsyntax-only", str(fastlane._SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_CLI_WITHOUT_NUMPY = """
import os, sys
sys.modules["numpy"] = None  # every import of numpy now fails
import optpaths.cli
from optpaths import fastlane
LAZY = ("subprocess", "hashlib", "dataclasses", "optpaths.generators",
        "optpaths.oracles", "optpaths.monarchy", "optpaths.evolve")
print(sorted(m for m in LAZY if m in sys.modules),
      os.path.exists(fastlane._cache_dir()))
lane, d, *argv = sys.argv[1:]
if lane == "reference":
    fastlane._BUILD = ("/nonexistent/cc",) + fastlane._BUILD[1:]
os.chdir(d)
assert optpaths.cli.main(argv) == 0, argv
print(sorted(m[9:] for m in sys.modules if m.startswith("optpaths.")))
print(fastlane.available())
"""

#: the modules ``import optpaths.cli`` loads
CLI_MODULES = {"cli", "fastlane", "graph", "partition", "pipeline"}

#: each command, the modules it loads on top of CLI_MODULES, and those it
#: loads only on the reference lane
COMMAND_MODULES = [
    ("solve --instance tri --algo ht", set(), {"monarchy"}),
    ("gen grid --rows 6 --cols 5 --hzp --out grid", {"generators"}, set()),
    ("gen random --n 30 --arcs 120 --seed 3 --directed --out rand",
     {"generators"}, set()),
    ("solve --instance rand --algo multi --sources 1,17 --out res",
     set(), {"monarchy"}),
    ("solve --instance grid --algo eom", set(), {"evolve"}),
    ("verify --instance rand --results res --fixpoint", {"oracles"}, set()),
    ("compare --instance grid", set(), {"evolve", "monarchy"}),
    ("bench --n-total 60 --kc 3,5 --algos eom,ht", {"generators"},
     {"evolve", "monarchy"}),
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
    # importing the CLI builds no kernels and loads neither subprocess,
    # hashlib, dataclasses nor any module a command may not need; each
    # command, in a fresh process, loads only the modules it runs; and every
    # command runs with numpy unimportable, on each lane
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
            assert out[-2] == str(sorted(want)), command
            assert out[-1] == str(lane == "compiled")
            printed += out[1:-2]
        assert "OK" in printed and "all agree" in printed
        assert len((d / "res").read_text().splitlines()) == 30
    if len(lanes) == 2:
        for name in ("grid", "rand", "res"):
            assert (tmp_path / "reference" / name).read_bytes() \
                == (tmp_path / "compiled" / name).read_bytes()
