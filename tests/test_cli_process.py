"""The CLI as a process: the console-script entry against in-process ``main``.

Called with the process's own command line, ``main`` flushes stdio and
ends the process with ``os._exit``; called with an argv list it returns.
Each command must give the same exit code, stdout, stderr and ``--out``
file both ways, apart from the ``*_ms`` fields, on each lane.  A stdout
that cannot be flushed, or a closed one that a command writes to, ends the
process with one error line and exit 1, and a profiler still gets the
interpreter's normal exit.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

from optpaths import cli
from optpaths.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main

#: what the installed ``optpaths`` console script runs
ENTRY = "import sys; from optpaths.cli import main; sys.exit(main())"

LANES = ["reference"] + (["compiled"] if shutil.which("cc") else [])

#: (command, exit code, the file it writes); paths are relative to the
#: working directory, and the big ``gen`` to stdout overflows a pipe buffer
COMMANDS = [
    ("gen grid --rows 9 --cols 7 --hzp --seed 4 --out grid.txt", 0,
     "grid.txt"),
    ("gen random --n 40 --arcs 160 --seed 3 --directed --out rand.txt", 0,
     "rand.txt"),
    ("gen grid --rows 200 --cols 200 --seed 5 --out -", 0, None),
    ("solve --instance grid.txt --algo ht --out ht.res", 0, "ht.res"),
    ("solve --instance rand.txt --algo multi --sources 1,17 --out multi.res",
     0, "multi.res"),
    ("solve --instance grid.txt --algo eom --format csv", 0, None),
    ("verify --instance rand.txt --results multi.res --fixpoint", 0, None),
    ("verify --instance grid.txt --results tampered.res", 2, None),
    ("compare --instance grid.txt", 0, None),
    ("bench --n-total 60 --kc 3,5 --algos eom,ht --out sweep.csv", 0,
     "sweep.csv"),
    ("solve --instance bad.txt --algo ht", 1, None),
    ("solve --instance grid.txt --algo nope", 1, None),
]

#: the worked three-node example as an instance file
TRIANGLE = "n 3 3 directed\n1 2 10\n1 3 1\n3 2 1\n"

_MS = [cli.CSV_COLUMNS.index(c) for c in ("hda_ms", "classify_ms",
                                          "schedule_ms")]


def masked(data: bytes) -> str:
    """``data`` with the ``*_ms`` fields of text lines and CSV rows blanked."""
    lines = []
    for line in data.decode().split("\n"):
        fields = line.split(",")
        if len(fields) == len(cli.CSV_COLUMNS):
            for i in _MS:
                fields[i] = ""
        lines.append(re.sub(r"=[0-9.]+ms", "=ms", ",".join(fields)))
    return "\n".join(lines)


def run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def child_env(lane=None, cache=None):
    """The test's environment with ``src`` importable and stdout buffered,
    so that the final flush writes what is left; for a lane, a fresh kernel
    cache ``cache`` and, for the reference lane, no ``cc`` on ``PATH``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if lane is not None:
        env["XDG_CACHE_HOME"] = str(cache)
    if lane == "reference":
        env["PATH"] = os.pathsep.join(
            d for d in env.get("PATH", "").split(os.pathsep)
            if not os.access(os.path.join(d, "cc"), os.X_OK))
    return env


def run_child(argv, cwd, env, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=cwd,
                          env=env, stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120)


def tamper(results, dest):
    """Copy an export with the cost of its last row raised by one."""
    rows = results.read_text().splitlines()
    v, region, parent, cost = rows[-1].split()
    rows[-1] = f"{v} {region} {parent} {int(cost) + 1}"
    dest.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("lane", LANES)
def test_child_matches_in_process_main(lane, tmp_path, monkeypatch, capsys,
                                       request):
    if lane == "reference":
        request.getfixturevalue("broken_compiler")()
    inproc, child = tmp_path / "inproc", tmp_path / "child"
    for d in (inproc, child):
        d.mkdir()
        (d / "bad.txt").write_text("n 3 2 directed\n1 2 x\n2 3 1\n")
    env = child_env(lane, tmp_path / "cache")
    monkeypatch.chdir(inproc)
    for command, want, out in COMMANDS:
        argv = command.split()
        if "tampered.res" in argv:
            for d in (inproc, child):
                tamper(d / "ht.res", d / "tampered.res")
        code, stdout, stderr = run_in_process(argv, capsys)
        proc = run_child(argv, child, env)
        assert (code, proc.returncode) == (want, want), command
        assert masked(proc.stdout) == masked(stdout), command
        assert proc.stderr == stderr, command
        if out is not None:
            assert masked((child / out).read_bytes()) \
                == masked((inproc / out).read_bytes()), command
        if "-" in argv:
            assert len(proc.stdout) > 1 << 16  # a pipe holds 64 KiB
            assert proc.stdout.endswith(b"\n")
    kernels = list(tmp_path.glob("cache/optpaths/kernels-*.so"))
    assert bool(kernels) == (lane == "compiled")


_BAD_SOURCE = """
import sys
from optpaths.cli import main
code = main(sys.argv[1:])
print(code, "optpaths.oracles" in sys.modules)
"""


@pytest.mark.parametrize("lane", LANES)
def test_a_bad_source_is_refused_before_either_lane(lane, tmp_path):
    # run_pipeline checks the sources once, before it picks a lane, so no
    # lane falls through to the reference lane just to raise the error
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    env = child_env(lane, tmp_path / "cache")
    argv = "solve --instance tri.txt --algo ht --sources 4".split()
    for _ in range(2):  # the first run on the compiled lane compiles
        proc = subprocess.run([sys.executable, "-c", _BAD_SOURCE, *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
    assert proc.stderr == "optpaths: error: source 4 out of range 1..3\n"
    # without a compiler the instance reader itself is in oracles
    assert proc.stdout == f"{EXIT_USAGE} {lane == 'reference'}\n"


_VERIFY_LOADS = """
import sys
from optpaths.cli import main
code = main(sys.argv[1:])
print(code, [m for m in ("optpaths.oracles", "heapq") if m in sys.modules])
"""


@pytest.mark.skipif("compiled" not in LANES, reason="no C compiler")
def test_a_clean_verify_loads_no_reference_audit(tmp_path):
    # the compiled audit certifies a clean export straight from the arc
    # block; only a failing one loads the reference audit, which names
    # every failure
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    env = child_env("compiled", tmp_path / "cache")
    solve = "solve --instance tri.txt --algo ht --out tri.res".split()
    assert run_child(solve, tmp_path, env).returncode == EXIT_OK
    tamper(tmp_path / "tri.res", tmp_path / "tampered.res")
    outputs = []
    for res in ("tri.res", "tampered.res"):
        argv = ["verify", "--instance", "tri.txt", "--results", res,
                "--fixpoint"]
        proc = subprocess.run([sys.executable, "-c", _VERIFY_LOADS, *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == f"OK\n{EXIT_OK} []\n"
    assert outputs[1] == (
        "3 failure(s):\n"
        "  [parent-arc] node 2: expected arc (3,2) with weight 2-2, got "
        "absent\n"
        "  [parent-arc] node 3: expected arc (1,3) with weight 2-0, got "
        "absent\n"
        "  [fixpoint] arc (1,3,1): expected cost[3] <= 1, got 2\n"
        f"{EXIT_VERIFY} ['optpaths.oracles', 'heapq']\n")


def test_explicit_argv_always_returns(tmp_path, monkeypatch, capsys):
    # perfbench's traced run and library callers run main() in-process;
    # conftest makes os._exit raise, and no tracer may mask the argv rule
    monkeypatch.setattr(cli, "_watched", lambda: False)
    monkeypatch.chdir(tmp_path)
    assert main("gen grid --rows 4 --cols 3 --out g.txt".split()) == EXIT_OK
    assert main("solve --instance g.txt --algo ht --out r.res".split()) \
        == EXIT_OK
    assert main("solve --instance missing.txt --algo ht".split()) \
        == EXIT_USAGE
    tamper(tmp_path / "r.res", tmp_path / "t.res")
    assert main("verify --instance g.txt --results t.res".split()) \
        == EXIT_VERIFY
    assert capsys.readouterr().err.startswith("optpaths: error: ")


@pytest.mark.parametrize("command", [
    "solve --instance tri.txt --algo ht",  # one line, left for the flush
    "gen grid --rows 200 --cols 200 --out -",  # fails while writing
])
def test_closed_stdout_exits_one(command, tmp_path):
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    env = child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_child(command.split(), tmp_path, env, stdout=write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_USAGE, err
    assert err.count("\n") == 1 and err.startswith("optpaths: error: "), err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_no_stdout_at_all(tmp_path):
    # started with fd 1 closed, Python sets sys.stdout to None; the command
    # still runs and writes its --out file
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, "solve", "--instance", "tri.txt",
         "--algo", "ht", "--out", "res.txt"], cwd=tmp_path, env=child_env(),
        stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert len((tmp_path / "res.txt").read_text().splitlines()) == 3


@pytest.mark.parametrize("command", [
    "gen grid --rows 2 --cols 2",
    "compare --instance tri.txt --out -",
    "bench --n-total 12 --kc 3 --algos ht",
])
def test_no_stdout_for_an_output_to_stdout(command, tmp_path):
    # a command whose output goes to "-" names the closed stdout in one
    # error line, with no traceback
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *command.split()], cwd=tmp_path,
        env=child_env(), stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1), timeout=120)
    assert (proc.returncode, proc.stderr) == (
        EXIT_USAGE, b"optpaths: error: standard output is closed\n")


def test_profiler_report_follows_the_output(tmp_path):
    # under a profiler main() returns, so cProfile prints its report
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "optpaths.cli", "solve",
         "--instance", "tri.txt", "--algo", "ht"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("ht: BL=")
    assert any("function calls" in line for line in lines[1:])
    assert any("Ordered by" in line for line in lines[1:])
