"""Differential test of ``read_instance`` against the line scanner it replaced.

``reference_read_instance`` is the per-line reader that ``read_instance``
used before the arc block went through one ``np.loadtxt`` call.  It is kept
verbatim except for ``to_int``: the reader now takes only ASCII
``[+-]?[0-9]+`` fields, where ``int()`` also took ``1_0`` and non-ASCII
digits, so the reference runs with ``strict_int`` and must then agree on
every drawn text: the same graph and comments, or the same error message.
"""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import GraphError, InstanceFormatError

INT64_MAX = 2**63 - 1


def strict_int(token: str) -> int:
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def reference_read_instance(src, to_int=int):
    comments = []
    header = None
    arcs = []
    n = arc_count = 0
    directed = False
    for lineno, raw in enumerate(src, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 4 or parts[0] != "n":
                raise InstanceFormatError(
                    f"line {lineno}: expected 'n <nodes> <arcs> <directed|undirected>'")
            try:
                n, arc_count = to_int(parts[1]), to_int(parts[2])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: non-integer count") from None
            if parts[3] not in ("directed", "undirected"):
                raise InstanceFormatError(
                    f"line {lineno}: orientation must be 'directed' or 'undirected'")
            directed = parts[3] == "directed"
            header = lineno
            continue
        if len(parts) != 3:
            raise InstanceFormatError(
                f"line {lineno}: expected '<head> <tail> <weight>'")
        try:
            arcs.append((to_int(parts[0]), to_int(parts[1]), to_int(parts[2])))
        except ValueError:
            raise InstanceFormatError(f"line {lineno}: non-integer field") from None
    if header is None:
        raise InstanceFormatError("line 1: missing header")
    if len(arcs) != arc_count:
        raise InstanceFormatError(
            f"header declares {arc_count} arcs but file contains {len(arcs)}")
    try:
        return op.build_graph(n, arcs, directed=directed), comments
    except GraphError as exc:
        raise InstanceFormatError(str(exc)) from exc


def outcome(read, *args):
    """Everything a caller can observe of one read: graph and comments, or
    the error message."""
    try:
        g, comments = read(*args)
    except InstanceFormatError as exc:
        return ("error", str(exc))
    arrays = (g.arc_head, g.arc_tail, g.arc_weight, g.fwd_ptr, g.fwd_dst,
              g.fwd_w, g.rev_ptr, g.rev_src, g.rev_w)
    assert all(a.dtype == np.int64 for a in arrays)
    return ("graph", g.n, g.directed, g.m, g.E,
            [a.tolist() for a in arrays], comments)


# -- drawn instance texts ------------------------------------------------------

SPACE = st.sampled_from([" "] * 8 + ["  ", "\t", " \t ", "\x0c", "\xa0", "\r"])
EOL = st.sampled_from(["\n"] * 12 + ["\r\n", "\r\n", "\r"])
NOTE = st.text(st.sampled_from("ab #\t\xe9"), max_size=6)
INT_EDGES = [INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, -INT64_MAX - 2, 2**64]
FIELD = st.one_of(
    st.integers(-1, 7).map(str),
    st.integers(1, 7).map(lambda i: f"+{i}"),
    st.integers(0, 7).map(lambda i: f"00{i}"),
    st.sampled_from(INT_EDGES).map(str),
    st.sampled_from(["-0", "1_0", "٣", "x", "1.0", "+", "3#", "#", "0x1"]),
)
COUNT = st.one_of(st.integers(-1, 7).map(str),
                  st.sampled_from([str(2**62), "+2", "1_0", "٣", "y"]))


@st.composite
def filler(draw):
    """A blank or whole-line comment line."""
    return draw(st.one_of(
        st.sampled_from(["", " ", "\t"]),
        st.builds(lambda pad, note: f"{pad}#{note}",
                  st.sampled_from(["", " ", "\t"]), NOTE)))


@st.composite
def arc_line(draw):
    head, step = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    fields = [str(head), str((head + step - 1) % 7 + 1),
              str(draw(st.integers(0, 9))), "5"]
    spoil = draw(st.sampled_from([None] * 12 + [0, 1, 2]))
    if spoil is not None:
        fields[spoil] = draw(FIELD)
    width = draw(st.sampled_from([3] * 30 + [2, 4]))
    lead, trail = draw(st.sampled_from(
        [("", "")] * 16 + [(" ", ""), ("\t", " "), ("", "\t"),
                           ("", " # note"), ("", "#")]))
    return lead + draw(SPACE).join(fields[:width]) + trail


@st.composite
def instance_text(draw):
    lines = draw(st.lists(filler(), max_size=3))
    arcs = draw(st.lists(st.one_of(arc_line(), arc_line(), filler()),
                         max_size=8))
    n_arcs = sum(1 for a in arcs if a.strip() and not a.strip().startswith("#"))
    header = draw(st.sampled_from(["ok"] * 8 + ["bad", "none"]))
    if header != "none":
        count = str(n_arcs + draw(st.sampled_from([0] * 8 + [-1, 1])))
        n = draw(st.sampled_from(["7"] * 6 + ["3", "0", str(2**62)]))
        orient = draw(st.sampled_from(["directed", "undirected"]))
        if header == "bad":
            n, count = draw(COUNT), draw(COUNT)
            orient = draw(st.sampled_from([orient, "sideways", orient + " x"]))
        lines.append(draw(st.sampled_from(["", " "])) + f"n {n} {count} {orient}")
    lines += arcs + draw(st.lists(filler(), max_size=2))
    text = "".join(line + draw(EOL) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=150, deadline=None)
@given(instance_text())
@example("# a\n\n n 3 3 undirected\r\n# b\n\t1 2 +3 \r\n  2\t3 -0\n#c\n3 1 007\n")
@example("n 3 2 directed\n1\r2 3\n2\xa03\u20284\n")  # in-line whitespace
@example("n 3 1 directed\n1 2 3 # trailing\n")
@example("n 3 1 directed\n1 2 3#\n")
@example(f"n 3 2 directed\n1 2 {INT64_MAX}\n2 3 {INT64_MAX + 1}\n")
@example(f"n 3 1 directed\n1 2 {-INT64_MAX - 2}\n")
@example("n 3 0 directed\n# only comments\n")
def test_read_instance_agrees_with_the_line_scanner(text):
    want = outcome(reference_read_instance, io.StringIO(text), strict_int)
    assert outcome(op.read_instance, io.StringIO(text)) == want


@settings(max_examples=50, deadline=None)
@given(instance_text())
def test_read_instance_file_agrees_with_the_line_scanner(tmp_path_factory,
                                                         text):
    # a file gets universal newlines: a lone '\r' ends a line there
    path = tmp_path_factory.mktemp("inst") / "inst.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = outcome(reference_read_instance, fh, strict_int)
    assert outcome(op.read_instance_file, str(path)) == want


def test_the_token_grammar_is_ascii_digits_with_a_sign():
    for field in ("1_0", "٣", "３"):
        text = f"n 3 1 directed\n1 2 {field}\n"
        g, _ = reference_read_instance(io.StringIO(text))  # int() took it
        assert g.arc_weight.tolist() == [int(field)]
        assert outcome(op.read_instance, io.StringIO(text)) \
            == ("error", "line 2: non-integer field")
    assert outcome(op.read_instance, io.StringIO("n 1_0 0 directed\n")) \
        == ("error", "line 1: non-integer count")


# Frees an 8 MB block, which lets glibc raise its mmap threshold, then fills
# 32 blocks of 1 MB, allocates a 600 KB block above them and frees the 1 MB
# ones.  Prints how many MB of them stay resident.
_RETAINED_AFTER_FREE = r"""
import io, sys
import optpaths as op

def rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) for l in fh if l.startswith("VmRSS:")) / 1024

if sys.argv[1] == "read":
    op.read_instance(io.StringIO("n 2 1 directed\n1 2 3\n"))
big = b"x" * (8 << 20)
del big
base = rss_mb()
blocks = [b"x" * (1 << 20) for _ in range(32)]
keep = b"x" * (600 << 10)
del blocks
print(rss_mb() - base)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the resident set size from /proc")
def test_reading_an_instance_returns_freed_large_blocks_to_the_system():
    src = str(Path(op.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def retained(mode):
        out = subprocess.run([sys.executable, "-c", _RETAINED_AFTER_FREE, mode],
                             env=env, capture_output=True, text=True, check=True)
        return float(out.stdout)

    if retained("control") < 16:
        pytest.skip("this C library returns the freed blocks by itself")
    assert retained("read") < 4
