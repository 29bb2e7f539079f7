"""The CLI transcript: every output byte of the command lines in
``transcript.txt``, pinned on both lanes.

The manifest holds, in order, command lines (``$ <argv>``, split as a
shell would), the files some of them read (``> <name> <bytes literal>``)
and comments.  Under each command line it records what the command did:
its exit code, the sha256 of its stdout and of its stderr, and the sha256
of each file it wrote, by name.  Wall times are masked first
(:func:`masked`).  A line that argparse settles -- help or a usage error --
records its exit code and the last line of each stream instead, since
argparse's usage block differs between Python versions.

Every entry runs in process, through ``cli.main(argv)``, in one fresh
directory, with relative file names, so no temporary path reaches a digest;
earlier entries write the files later ones read.  The transcript runs once
on the compiled lane and once with no compiler, on the reference lane; each
entry is then its own test on each lane, which must give the manifest's
digests and names the field that moved.

A change that moves an output on purpose regenerates the manifest::

    PYTHONPATH=src python tests/test_transcript.py --write

which runs every entry twice on each lane and writes nothing, naming the
entries, if the lanes or the two runs disagree.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import pathlib
import re
import shlex
import stat
import sys
import tempfile

import pytest

import optpaths as op
from conftest import forbid_process_exit, reload_lane
from optpaths import cli, fastlane

MANIFEST = pathlib.Path(__file__).with_name("transcript.txt")
LANES = ["compiled", "reference"]
#: the terminal width argparse wraps its help to
COLUMNS = "80"


def masked(data: bytes) -> bytes:
    """``data`` with its wall times masked: the ``*_ms`` columns of a CSV
    row and the ``hda=…ms classify=…ms schedule=…ms`` of a text line."""
    data = re.sub(rb",[0-9]+\.[0-9]{3},[0-9]+\.[0-9]{3},[0-9]+\.[0-9]{3},",
                  b",ms,ms,ms,", data)
    return re.sub(rb"=[0-9.]+ms", b"=ms", data)


def load(text: str) -> list:
    """The manifest's lines: each entry as a ``[command, recorded]`` pair,
    ``recorded`` being its result lines; any other line as a string."""
    items = []
    for line in text.splitlines():
        if line.startswith("$ "):
            items.append([line[2:], []])
        elif line.startswith("  ") and items and isinstance(items[-1], list):
            items[-1][1].append(line.strip())
        else:
            items.append(line)
    return items


def render(items: list, results: list) -> str:
    """The manifest of ``items`` with ``results``, one per entry."""
    lines, results = [], iter(results)
    for item in items:
        if isinstance(item, str):
            lines.append(item)
        else:
            lines.append(f"$ {item[0]}")
            lines += [f"  {line}" for line in next(results)]
    return "\n".join(lines) + "\n"


def _digest(data: bytes) -> str:
    return hashlib.sha256(masked(data)).hexdigest()


def _tail(data: bytes) -> str:
    lines = data.decode().splitlines()
    return repr(lines[-1] if lines else "")


def _files() -> dict:
    """Each regular file under the working directory, by name: the stat
    fields that a write changes."""
    found = {}
    for path in pathlib.Path().rglob("*"):
        st = path.lstat()
        if stat.S_ISREG(st.st_mode):
            found[str(path)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return found


def outcome(argv: list[str]) -> list[str]:
    """The result lines of ``cli.main(argv)``, run in the working directory."""
    before = _files()
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="",
                              write_through=True)
    stderr = io.TextIOWrapper(err, encoding="utf-8", newline="",
                              errors="backslashreplace", write_through=True)
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
            streams = [f"stdout {_digest(out.getvalue())}",
                       f"stderr {_digest(err.getvalue())}"]
        except SystemExit as exc:  # argparse: help or a usage error
            code = exc.code
            streams = [f"stdout-tail {_tail(out.getvalue())}",
                       f"stderr-tail {_tail(err.getvalue())}"]
    written = [f"file {name} {_digest(pathlib.Path(name).read_bytes())}"
               for name, fields in sorted(_files().items())
               if before.get(name) != fields]
    return [f"exit {code}", *streams, *written]


def run_all(items: list, where: pathlib.Path) -> list:
    """The result lines of every entry of ``items``, run in order in the
    empty directory ``where``."""
    results = []
    with pytest.MonkeyPatch.context() as m:
        m.chdir(where)
        m.setenv("COLUMNS", COLUMNS)
        for item in items:
            if isinstance(item, str):
                if item.startswith("> "):
                    name, literal = item[2:].split(" ", 1)
                    pathlib.Path(name).write_bytes(ast.literal_eval(literal))
                continue
            results.append(outcome(shlex.split(item[0])))
    return results


def _fields(lines: list[str]) -> dict:
    """Result lines by what they record: ``exit``, ``stdout``, ``file x``."""
    return {line.rsplit(" ", 1)[0] if line.startswith("file ")
            else line.split(" ", 1)[0]: line for line in lines}


def differences(entries: list, results: list, label: str = "") -> list[str]:
    """One line for each entry whose results differ from its recorded
    ones, naming what moved."""
    found = []
    for (command, recorded), got in zip(entries, results):
        want, have = _fields(recorded), _fields(got)
        moved = sorted(k for k in want.keys() | have.keys()
                       if want.get(k) != have.get(k))
        if moved:
            found.append(f"{label}$ {command}: {', '.join(moved)} moved")
    return found


def entries_of(items: list) -> list:
    return [item for item in items if isinstance(item, list)]


ITEMS = load(MANIFEST.read_text(encoding="utf-8"))
ENTRIES = entries_of(ITEMS)


def switch_lane(monkeypatch, lane):
    """Put ``lane`` in use: the compiled lane as loaded, or the reference
    lane, with the compile command pointed at a path that does not exist."""
    if lane == "reference":
        reload_lane(monkeypatch, "/nonexistent/cc")
    elif not fastlane.available():
        pytest.skip("no C compiler")
    assert fastlane.available() == (lane == "compiled")


@pytest.fixture(scope="module", params=LANES)
def transcript(request, tmp_path_factory):
    """The results of every entry, run in order on one lane: the lane is
    switched once, not once per entry."""
    with pytest.MonkeyPatch.context() as m:
        forbid_process_exit(m)
        switch_lane(m, request.param)
        return run_all(ITEMS, tmp_path_factory.mktemp(request.param))


@pytest.mark.parametrize("index", range(len(ENTRIES)),
                         ids=[command for command, _ in ENTRIES])
def test_output_bytes_are_pinned(transcript, index):
    moved = differences(ENTRIES[index:index + 1], transcript[index:index + 1])
    assert not moved, moved[0]


@pytest.mark.parametrize("lane", LANES)
def test_gen_builds_no_graph(lane, tmp_path, monkeypatch):
    # gen writes the generator's columns as they are drawn
    switch_lane(monkeypatch, lane)

    def no_build(*args, **kwargs):
        raise AssertionError("gen built a graph")

    for module in (op.graph, op.generators):
        monkeypatch.setattr(module, "graph_from_columns", no_build)
    monkeypatch.setattr(fastlane, "build", no_build)
    gens = [item for item in ENTRIES if item[0].startswith("gen ")]
    assert gens
    moved = differences(gens, run_all(gens, tmp_path))
    assert not moved, "\n".join(moved)


def write() -> int:
    """Regenerate the manifest, and name each entry whose results moved.
    Every entry runs twice on each lane, and the manifest is written only
    if all four runs agree."""
    if not fastlane.available():
        print("the compiled lane did not load", file=sys.stderr)
        return 1
    runs = {}
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as m:
        for lane in LANES:
            switch_lane(m, lane)
            for k in (1, 2):
                where = pathlib.Path(tmp) / f"{lane}-{k}"
                where.mkdir()
                runs[f"{lane} run {k}"] = run_all(ITEMS, where)
    first = runs["compiled run 1"]
    entries = [[command, lines] for (command, _), lines
               in zip(ENTRIES, first)]
    split = [line for label, results in list(runs.items())[1:]
             for line in differences(entries, results, f"{label}: ")]
    if split:
        print("not written: these entries differ from the compiled lane's "
              "first run", *split, sep="\n", file=sys.stderr)
        return 1
    MANIFEST.write_text(render(ITEMS, first), encoding="utf-8")
    for line in differences(ENTRIES, first):
        print(line)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    sys.exit(write())
