"""The results file on the compiled lane: export, re-read and audit.

Each compiled kernel is checked against the Python code it stands in for,
which stays the reference and names every fault:

- the formatter (``fastlane.write_rows``) against the Python rows of
  ``partition.export_results`` and ``graph.write_instance``, with and
  without a compiler;
- the results reader (``fastlane.read_results``) against the reference
  reader ``oracles.scan_results``: wherever it accepts a file, its
  arrays must hold the reference's lists, and
  ``partition.read_results_file`` must give the same values or the same
  message;
- the audit (``fastlane.block_is_clean``), over the arc block of an
  instance, against the reference ``verify_export``: on solved exports,
  clean and with one mutation each, and on instances with every form of
  arc line, it must answer "clean" exactly when the reference reports no
  failure; ``verify`` on every form of an instance prints what it always
  has, and reads each file once.

The reader and the audit certify and refuse; they are not line-for-line
copies of the reference, and these tests are what certify them.
"""

import builtins
import io
from array import array

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import InstanceFormatError, cli, fastlane, oracles, partition
from optpaths.graph import parse_header, text_mode_bytes

INT64_MAX = 2**63 - 1
INT64_MIN = -2**63

needs_lane = pytest.mark.skipif(not fastlane.available(),
                                reason="no C compiler")


def fits_int64(*columns):
    return all(INT64_MIN <= x <= INT64_MAX
               for col in columns if col is not None for x in col)


# -- the audit ----------------------------------------------------------------

MUTATIONS = ["cost+1", "cost-1", "parent", "region", "tag", "unreached",
             "2-cycle", "root-cost", "near-max", "extra-root", "width"]


def instance(n, arcs, directed):
    """The text of the instance of ``arcs``, as ``graph.write_instance``
    writes it, and its graph."""
    buf = io.BytesIO()
    op.write_instance(n, *(list(zip(*arcs)) or [(), (), ()]), directed, buf)
    return buf.getvalue().decode(), op.build_graph(n, arcs, directed=directed)


@st.composite
def exports(draw):
    """The text of a small multigraph's instance, its graph and a solved
    export of it from 1..3 sources, as lists (cost 0 and has_cost 0 where
    unreached), clean or with one mutation; a third of the graphs have arc
    weights near 2**63 - 1."""
    n = draw(st.integers(1, 9))
    directed = draw(st.booleans())
    weight = (st.sampled_from([0, 1, 3, INT64_MAX - 1, INT64_MAX])
              if draw(st.integers(0, 2)) == 0 else st.integers(0, 4))
    arcs = []
    if n > 1:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda p: p[0] != p[1])
        arcs = [(u, v, draw(weight))
                for u, v in draw(st.lists(pairs, max_size=3 * n))]
    text, g = instance(n, arcs, directed)
    sources = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    algo = draw(st.sampled_from(["hda", "ht"]))
    # the reference lane keeps exact costs, even past int64
    res = op.run_pipeline(g, sources, algo, algebra=op.min_plus_algebra())
    region = list(res.regions.region_of)
    parent = list(res.state.parent)
    has_cost = [int(res.state.labeled(v)) for v in range(n + 1)]
    cost = [c if has_cost[v] else 0 for v, c in enumerate(res.state.cost)]
    tags = None if res.state.tags is None else list(res.state.tags)

    mutation = draw(st.sampled_from(MUTATIONS + [None] * 10))
    v = draw(st.integers(1, n))
    roots = [u for u in range(1, n + 1) if region[u] and not parent[u]]
    if mutation in ("cost+1", "cost-1"):
        cost[v] += 1 if mutation == "cost+1" else -1
        has_cost[v] = 1
    elif mutation == "parent":
        parent[v] = draw(st.integers(0, n))
    elif mutation == "region":
        region[v] += draw(st.sampled_from([-1, 1]))
    elif mutation == "tag" and tags is not None:
        tags[v] = draw(st.integers(0, n))
    elif mutation == "unreached":
        region[v], parent[v], cost[v], has_cost[v] = 0, 0, 0, 0
        if tags is not None:
            tags[v] = 0
    elif mutation == "2-cycle" and n > 1:
        u = draw(st.integers(1, n).filter(lambda u: u != v))
        parent[u], parent[v] = v, u
    elif mutation == "root-cost":
        cost[draw(st.sampled_from(roots))] = draw(
            st.sampled_from([1, -1, 7, INT64_MAX]))
    elif mutation == "near-max":
        cost[v] = draw(st.sampled_from([INT64_MAX, INT64_MAX - 1,
                                        INT64_MIN, INT64_MIN + 1]))
        has_cost[v] = 1
    elif mutation == "extra-root":
        region[v], parent[v], cost[v], has_cost[v] = 1, 0, 0, 1
        if tags is not None:
            tags[v] = v
    elif mutation == "width":
        tags = (None if tags is not None
                else [0] + [roots[0] if region[u] else 0
                            for u in range(1, n + 1)])
    return text, g, region, parent, cost, has_cost, tags


#: an export whose leaf 3 is written unreached although an arc from a
#: reached node enters it: only the region check can tell, since no
#: parent arc and, without --fixpoint, no cost check involves it
LEAF_UNREACHED = (*instance(3, [(1, 2, 1), (1, 3, 1)], True),
                  [0, 1, 2, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 1, 1, 0],
                  None)

#: a directed graph with an arc of weight INT64_MAX into node 2
OVERFLOW_INSTANCE = instance(3, [(1, 2, INT64_MAX), (2, 3, 1), (1, 3, 5)],
                             True)


def wrap_example():
    """Node 3 claims parent 2 at a cost that only a wrapped int64 sum
    INT64_MAX + 1 reaches; every other check passes."""
    return (*OVERFLOW_INSTANCE, [0, 1, 2, 2], [0, 0, 1, 2],
            [0, 0, INT64_MAX, INT64_MIN], [0, 1, 1, 1], None)


def overflow_example():
    """A clean export in which the arc (2, 3) sums past INT64_MAX: the sum
    must neither match cost[3] nor improve it."""
    return (*OVERFLOW_INSTANCE, [0, 1, 2, 2], [0, 0, 1, 1],
            [0, 0, INT64_MAX, 5], [0, 1, 1, 1], None)


def block_audit(text, *export):
    """``fastlane.block_is_clean`` on the instance ``text``."""
    data = text.encode()
    return fastlane.block_is_clean(data, parse_header(data), *export)


@needs_lane
@settings(max_examples=400, deadline=None)
@given(export=exports(), fixpoint=st.booleans())
@example(export=wrap_example(), fixpoint=False)
@example(export=wrap_example(), fixpoint=True)
@example(export=overflow_example(), fixpoint=True)
@example(export=LEAF_UNREACHED, fixpoint=False)
def test_compiled_audit_is_clean_exactly_when_the_reference_is(export,
                                                               fixpoint):
    text, g, region, parent, cost, has_cost, tags = export
    ref = op.verify_export(g, region, parent, cost, has_cost,
                           op.min_plus_algebra(), fixpoint=fixpoint, tags=tags)
    clean = block_audit(text, region, parent, cost, has_cost, fixpoint, tags)
    assert clean == (ref.ok and fits_int64(region, parent, cost, tags))
    # without an algebra the audit is the min-plus one
    rep = op.verify_export(g, region, parent, cost, has_cost,
                           fixpoint=fixpoint, tags=tags)
    assert rep.failures == ref.failures


def test_the_overflow_examples_are_what_they_claim():
    alg = op.min_plus_algebra()
    _, *export, tags = overflow_example()
    assert op.verify_export(*export, alg, fixpoint=True, tags=tags).ok
    _, *export, tags = wrap_example()
    rep = op.verify_export(*export, alg, fixpoint=True, tags=tags)
    assert [check for check, *_ in rep.failures] == ["parent-arc"]


@needs_lane
@pytest.mark.parametrize("algo", ["hda", "ht"])
@pytest.mark.parametrize("sources", [[1], [1, 17], [3, 30, 50]])
def test_compiled_audit_certifies_solved_exports(algo, sources):
    arcs = list(zip(*op.random_columns(60, 240, 0, 9, seed=len(sources))))
    text, g = instance(60, arcs, True)
    res = op.run_pipeline(g, sources, algo)
    has_cost = [res.state.labeled(v) for v in range(g.n + 1)]
    export = (res.regions.region_of, res.state.parent, res.state.cost,
              has_cost)
    tags = res.state.tags
    assert block_audit(text, *export, False, tags)
    at_fixpoint = op.verify_export(g, *export, op.min_plus_algebra(),
                                   fixpoint=True, tags=tags).ok
    assert at_fixpoint or algo == "hda"
    assert block_audit(text, *export, True, tags) == at_fixpoint


# -- the audit over every form of an arc block ------------------------------

#: the one field a drawn export may have tampered with
TAMPERS = ["region+1", "region-1", "parent", "cost+1", "cost-1", "swap-tags",
           "unreached-row", "unreached-cost", "extra-root"]


@st.composite
def instance_exports(draw):
    """The text of a small instance, directed or not, and a solved export of
    it from 1..4 sources, clean or with one field tampered.  The arc block
    has blank lines, whole-line comments and tab separators, all of
    which the compiled reader accepts."""
    n = draw(st.integers(2, 9))
    directed = draw(st.booleans())
    weight = (st.sampled_from([0, 1, 3, INT64_MAX])
              if draw(st.integers(0, 3)) == 0 else st.integers(0, 4))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda p: p[0] != p[1])
    arcs = [(u, v, draw(weight))
            for u, v in draw(st.lists(pairs, max_size=3 * n))]
    g = op.build_graph(n, arcs, directed=directed)
    sources = draw(st.lists(st.integers(1, n), min_size=1, max_size=4,
                            unique=True))
    res = op.run_pipeline(g, sources, draw(st.sampled_from(["hda", "ht"])),
                          algebra=op.min_plus_algebra())
    region = list(res.regions.region_of)
    parent = list(res.state.parent)
    has_cost = [int(res.state.labeled(v)) for v in range(n + 1)]
    cost = [c if has_cost[v] else 0 for v, c in enumerate(res.state.cost)]
    tags = None if res.state.tags is None else list(res.state.tags)

    tamper = draw(st.sampled_from(TAMPERS + [None] * 4))
    v = draw(st.integers(1, n))
    if tamper in ("region+1", "region-1"):
        region[v] += 1 if tamper == "region+1" else -1
    elif tamper == "parent":
        parent[v] = draw(st.integers(0, n).filter(lambda p: p != parent[v]))
    elif tamper in ("cost+1", "cost-1"):
        cost[v] += 1 if tamper == "cost+1" else -1
    elif tamper == "swap-tags" and tags is not None:
        u = draw(st.integers(1, n))
        tags[u], tags[v] = tags[v], tags[u]
    elif tamper == "unreached-row":  # "v 0 0 UNREACHED [0]"
        region[v], parent[v], cost[v], has_cost[v] = 0, 0, 0, 0
        if tags is not None:
            tags[v] = 0
    elif tamper == "unreached-cost":  # "v <region> <parent> UNREACHED"
        cost[v], has_cost[v] = 0, 0
    elif tamper == "extra-root":
        region[v], parent[v], cost[v], has_cost[v] = 1, 0, 0, 1
        if tags is not None:
            tags[v] = v

    lines = [f"n {n} {len(arcs)} {'directed' if directed else 'undirected'}"]
    for arc in arcs:
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", "# a note", "  #", "\t"])))
        sep = draw(st.sampled_from([" "] * 4 + ["\t", " \t ", "  "]))
        lines.append(sep.join(map(str, arc)))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return text, region, parent, cost, has_cost, tags


@needs_lane
@settings(max_examples=300, deadline=None)
@given(case=instance_exports(), fixpoint=st.booleans())
@example(case=("n 2 0 undirected", [0, 1, 0], [0, 0, 0], [0, 0, 1],
               [0, 1, 0], None), fixpoint=False)  # a header without '\n'
@example(case=(LEAF_UNREACHED[0],) + LEAF_UNREACHED[2:], fixpoint=False)
def test_block_audit_agrees_with_the_reference_on_every_line_form(case,
                                                                  fixpoint):
    text, *export, tags = case
    g, _ = op.read_instance(text.encode())
    ref = op.verify_export(g, *export, op.min_plus_algebra(), fixpoint, tags)
    assert block_audit(text, *export, fixpoint, tags) == (
        ref.ok and fits_int64(*export, tags))


#: the triangle's export, "1 1 0 0\n2 2 3 2\n3 2 1 1\n", with node 2's
#: cost raised to 3
RAISED_COST = "1 1 0 0\n2 2 3 3\n3 2 1 1\n"
#: what ``verify`` prints for RAISED_COST on the directed triangle
RAISED_COST_FAILURES = (
    "2 failure(s):\n"
    "  [parent-arc] node 2: expected arc (3,2) with weight 3-1, got "
    "absent\n"
    "  [fixpoint] arc (3,2,1): expected cost[2] <= 2, got 3\n")

#: the triangle's instance in forms that ``verify`` reads, each with what
#: it prints for the triangle's export, or for the results text given
#: fifth (None: no results file; ``<inst>`` and ``<res>`` in stderr stand
#: for the two paths):
#: stream refusals name the fault as the full reader always has, and a
#: fault of the instance is named before one of the results
TRIANGLE_FORMS = {
    "comments-in-block": (b"# top\nn 3 3 directed\n1 2 10\n  # mid\n"
                          b"1 3 1\n\n3 2 1\n# end", 0, "OK\n", ""),
    "crlf": (b"n 3 3 directed\r\n1 2 10\r\n1 3 1\r\n3 2 1\r\n", 0,
             "OK\n", ""),
    "non-ascii-comment": ("# caf\u00e9\nn 3 3 directed\n1 2 10\n"
                          "# \u00fcber\n1 3 1\n3 2 1\n".encode(), 0,
                          "OK\n", ""),
    "not-utf8": (b"n 3 3 directed\r\n1 2 10\n# \xff\n1 3 1\n3 2 1\n", 1,
                 "", "optpaths: error: <inst>: line 3: not UTF-8 "
                 "text\n"),
    "arc-count": (b"n 3 4 directed\n1 2 10\n1 3 1\n3 2 1\n", 1, "",
                  "optpaths: error: <inst>: header declares 4 arcs but "
                  "file contains 3\n"),
    "self-loop": (b"n 3 3 directed\n1 2 10\n1 3 1\n3 3 1\n", 1, "",
                  "optpaths: error: <inst>: arc 2 (3,3): self-loop\n"),
    "negative-weight": (b"n 3 3 directed\n1 2 10\n1 3 -1\n3 2 1\n", 1, "",
                        "optpaths: error: <inst>: arc 1 (1,3,-1): negative "
                        "weight\n"),
    # the export's parent arcs are written tail first: an undirected line
    # serves both directions, a directed one only its own
    "reversed-undirected": (b"n 3 3 undirected\n2 1 10\n3 1 1\n2 3 1\n", 0,
                            "OK\n", ""),
    "reversed-directed": (
        b"n 3 3 directed\n2 1 10\n3 1 1\n2 3 1\n", 2,
        "4 failure(s):\n"
        "  [parent-arc] node 2: expected arc (3,2) with weight 2-1, got "
        "absent\n"
        "  [parent-arc] node 3: expected arc (1,3) with weight 1-0, got "
        "absent\n"
        "  [region] node 2: expected 0, got 2\n"
        "  [region] node 3: expected 0, got 2\n", ""),
    "self-loop-no-results": (b"n 3 3 directed\n1 2 10\n1 3 1\n3 3 1\n", 1,
                             "", "optpaths: error: <inst>: arc 2 (3,3): "
                             "self-loop\n", None),
    "no-results": (b"n 3 3 directed\n1 2 10\n1 3 1\n3 2 1\n", 1, "",
                   "optpaths: error: [Errno 2] No such file or directory: "
                   "'<res>'\n", None),
    "non-integer-results": (b"n 3 3 directed\n1 2 10\n1 3 1\n3 2 1\n", 1,
                            "", "optpaths: error: <res>: line 2: non-integer "
                            "field\n", "1 1 0 0\n2 2 x 2\n3 2 1 1\n"),
    "huge-node-count": (b"n 100000000000000000000 0 directed\n", 1, "",
                        "optpaths: error: <inst>: node count "
                        "100000000000000000000 is too large to allocate\n"),
    # separators that only the reference reader takes: the compiled audit
    # refuses the block and the reference audit decides
    "nbsp": ("n 3 3 directed\n1 2 10\n1\u00a03 1\n3 2 1\n".encode(), 0,
             "OK\n", ""),
    "vertical-tab": (b"n 3 3 directed\n1 2 10\n1\x0b3 1\n3 2 1\n", 0,
                     "OK\n", ""),
    "nbsp-raised-cost": (
        "n 3 3 directed\n1 2 10\n1\u00a03 1\n3 2 1\n".encode(), 2,
        RAISED_COST_FAILURES, "", RAISED_COST),
}


@pytest.mark.parametrize("lane", ["compiled", "reference"])
@pytest.mark.parametrize("form", sorted(TRIANGLE_FORMS))
def test_verify_reads_every_form_of_an_instance_as_before(
        form, lane, tmp_path, capsys, request):
    if lane == "reference":
        request.getfixturevalue("broken_compiler")()
    elif not fastlane.available():
        pytest.skip("no C compiler")
    data, code, out, err, *results = TRIANGLE_FORMS[form]
    results = results[0] if results else "1 1 0 0\n2 2 3 2\n3 2 1 1\n"
    res = tmp_path / "tri.res"
    (tmp_path / "tri.txt").write_bytes(data)
    if results is not None:
        res.write_text(results)
    argv = ["verify", "--instance", str(tmp_path / "tri.txt"),
            "--results", str(res), "--fixpoint"]
    assert cli.main(argv) == code
    assert capsys.readouterr() == (out, err.replace("<res>", str(res))
                                   .replace("<inst>", argv[2]))


@needs_lane
def test_a_failing_verify_reads_each_file_once(tmp_path, monkeypatch, capsys):
    calls = []

    def spy(name):
        def call(*args):
            calls.append(name)
            return real(*args)
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, call)

    for name in ("read_data", "read_instance_file",
                 "read_results_file", "block_is_clean"):
        spy(name)
    (tmp_path / "tri.txt").write_text(
        "n 3 3 directed\n1 2 10\n1 3 1\n3 2 1\n")
    (tmp_path / "tri.res").write_text(RAISED_COST)
    argv = ["verify", "--instance", str(tmp_path / "tri.txt"),
            "--results", str(tmp_path / "tri.res"), "--fixpoint"]
    assert cli.main(argv) == cli.EXIT_VERIFY
    assert capsys.readouterr() == (RAISED_COST_FAILURES, "")
    assert calls == ["read_data", "read_results_file",
                     "block_is_clean"]


@needs_lane
def test_a_clean_crlf_verify_reads_each_file_once(tmp_path, monkeypatch,
                                                  capsys):
    # the compiled reader takes the export as text mode reads it
    inst, res = tmp_path / "g.txt", tmp_path / "g.res"
    assert cli.main(["gen", "grid", "--rows", "6", "--cols", "5", "--seed",
                     "3", "--out", str(inst)]) == cli.EXIT_OK
    assert cli.main(["solve", "--instance", str(inst), "--algo", "ht",
                     "--out", str(res)]) == cli.EXIT_OK
    res.write_bytes(res.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    opened = []

    def spy(file, *args, **kwargs):
        if file in (str(inst), str(res)):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", spy)
    argv = ["verify", "--instance", str(inst), "--results", str(res),
            "--fixpoint"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr() == ("OK\n", "")
    assert opened == [str(inst), str(res)]


# -- the results reader ---------------------------------------------------------

FIELD = st.one_of(
    st.integers(-1, 6).map(str),
    st.sampled_from(["+3", "+0", "-0", "007", "00", str(INT64_MAX),
                     str(-INT64_MAX), str(2**63), str(INT64_MIN),
                     str(INT64_MIN - 1), "1_0", "５", "٣", "x",
                     "UNREACHED", "unreached", "UNREACHEDx", "1.0", "#",
                     "3#"]))
#: separators, line ends and comment text the compiled reader accepts, and
#: those it refuses
SPACE = st.sampled_from([" "] * 6 + ["  ", "\t", " \t"])
BAD_SPACE = st.sampled_from(["\r", "\x0b", "\x0c", "\xa0", "\x00"])
BAD_EOL = st.sampled_from(["\r\n", "\r"])
NOTE = st.text(st.sampled_from("ab #\t"), max_size=5)
BAD_NOTE = st.text(st.sampled_from("ab\xe9\r\x7f"), min_size=1, max_size=3)


#: the one fault a drawn results file may carry
SPOILS = ["field", "width", "space", "eol", "note", "trail", "dup", "gap",
          "byte"]


@st.composite
def results_files(draw):
    """The bytes of a results file for n nodes, in the form the compiled
    reader accepts, or in that form with one spoil."""
    n = draw(st.integers(1, 5))
    width = draw(st.sampled_from([4, 5]))
    spoil = draw(st.sampled_from(SPOILS + [None] * len(SPOILS)))
    at = draw(st.integers(0, n - 1))  # the row the spoil is in or next to
    num = st.sampled_from(["{}"] * 6 + ["+{}", "0{}"])
    # the padding lets short rows past the reader's length check
    lines = ["# " + "x" * 24] if draw(st.booleans()) else []
    for i, v in enumerate(draw(st.permutations(range(1, n + 1)))):
        here = i == at
        if here and spoil == "note":
            lines.append(draw(st.sampled_from(["", " "])) + "#"
                         + draw(BAD_NOTE))
        elif draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"]))
                         + draw(st.sampled_from(["", "#"])) + draw(NOTE))
        unreached = draw(st.integers(0, 4)) == 0
        fields = [draw(num).format(v),
                  "0" if unreached else draw(num).format(
                      draw(st.integers(1, 3))),
                  "0" if unreached else draw(num).format(
                      draw(st.integers(0, n))),
                  "UNREACHED" if unreached else draw(num).format(
                      draw(st.integers(0, 40))),
                  draw(num).format(draw(st.integers(0, n)))][:width]
        if here and spoil == "field":
            fields[draw(st.integers(0, width - 1))] = draw(FIELD)
        if here and spoil == "width":
            fields = (fields + ["1", "1"])[:draw(st.sampled_from([3, 6]))]
        lead, trail = draw(st.sampled_from([("", "")] * 4
                                           + [(" ", ""), ("\t", " ")]))
        if here and spoil == "trail":
            trail = " # x"
        sep = draw(BAD_SPACE if here and spoil == "space" else SPACE)
        lines.append(lead + sep.join(fields) + trail)
    if spoil == "dup":
        lines.append(lines[-1])
    elif spoil == "gap":
        lines.pop()
    eols = [draw(BAD_EOL) if spoil == "eol" and i == at else "\n"
            for i in range(len(lines))]
    text = "".join(map(str.__add__, lines, eols))
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    data = text.encode("utf-8")
    if spoil == "byte":
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[i:]
    return n, data


def as_lists(columns):
    """A reader's columns as lists, whether it gave arrays or lists."""
    return tuple(None if c is None else list(c) for c in columns)


def outcome(read, path, n):
    try:
        return ("rows", as_lists(read(path, n)))
    except InstanceFormatError as exc:
        return ("error", str(exc))


def reference_read(path, n):
    """The reference reader on the file at ``path``, read as text mode
    would read it."""
    return oracles.scan_results(text_mode_bytes(path.read_bytes()).decode(),
                                 n)


def results_examples(test):
    for n, text in reversed([
        (2, "1 1 0 0\r\n2 2 1 4\r\n"),
        (2, "1 1 0 0\r2 2 1 4\n"),
        (2, "# c\n\n  # d\n1 1 0 0\n \t\n2\t2  1 +4 \n"),
        (2, "+1 1 0 0\n002 2 01 -0\n"),
        (2, f"1 1 0 0\n2 2 1 {INT64_MAX}\n"),
        (2, f"1 1 0 0\n2 2 1 {2**63}\n"),
        (2, f"1 1 0 0\n2 2 1 {INT64_MIN}\n"),
        (2, f"1 1 0 0\n2 2 1 {-INT64_MAX}\n"),
        (2, "1 1 0\n2 2 1 4\n"),
        (2, "# long enough to pass the length check\n1 1 0\n2 2 1\n"),
        (2, "1\r1\r0\r0\n2 2 1 4\n"),
        (2, "1 1 0 0 1 1\n2 2 1 4 1 1\n"),
        (2, "1 1 0 0 1\n2 2 1 4\n"),
        (2, "1 1 0 0\n2 2 1 1_0\n"),
        (2, "1 1 0 0\n2 2 1 ５\n"),
        (3, "1 1 0 0 1\n3 0 0 UNREACHED 0\n2 2 1 4 1\n"),
        (2, "1 1 0 0\n2 2 1 4\n# \xe9\n"),
        (2, "1 1 0 0\n1 1 0 0\n"),
        (2, "1 1 0 0\n2 2 3 4\n"),
        # comments the compiled reader refuses, passed to it as they are
        (2, "1 1 0 0\n# a\rb\n2 2 1 4\n"),
        (2, "1 1 0 0\n# a\x00b\n2 2 1 4\n"),
    ]):
        test = example((n, text.encode("utf-8")))(test)
    test = example((2, b"1 1 0 0\n# \xff\n2 2 1 4\n"))(test)
    return example((2, b"1 1 0 0\n2 2 1 4\xff\n"))(test)


@needs_lane
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=results_files())
@results_examples
def test_results_reader_agrees_with_the_reference_reader(tmp_path, case):
    n, data = case
    path = tmp_path / "res.txt"
    path.write_bytes(data)
    want = outcome(reference_read, path, n)
    rows = fastlane.read_results(data, n)
    if rows is not None:
        assert ("rows", as_lists(rows)) == want
    assert outcome(partition.read_results_file, str(path), n) == want


@needs_lane
def test_the_compiled_reader_reads_solve_exports(tmp_path):
    g = op.gen_random_graph(50, 150, 0, 9, seed=4, directed=True)
    for sources in ([1], [1, 7, 30]):
        buf = io.BytesIO()
        res = op.run_pipeline(g, sources, "ht")
        op.export_results(res.state, res.regions, buf)
        data = buf.getvalue()
        assert b"UNREACHED" in data
        rows = fastlane.read_results(data, g.n)
        assert rows is not None
        assert as_lists(rows) == oracles.scan_results(data.decode(), g.n)


# -- the formatter: exports and instance files -----------------------------------

def state_and_regions(region, parent, cost, tags=None):
    n = len(region) - 1
    order = [v for v in range(1, n + 1) if region[v]]
    position = [0] * (n + 1)
    for i, v in enumerate(order, start=1):
        position[v] = i
    state = op.SolverState(
        n=n, sources=tuple(v for v in order if not parent[v]),
        parent=parent, cost=cost,
        is_source=[bool(region[v]) and not parent[v] for v in range(n + 1)])
    state.tags = tags  # as run_pipeline tags a run
    return state, op.Regions(order, region, position)


EXPORTS = {
    "untagged": ((
        [0, 1, 2, 0, 3], [0, 0, 1, 0, 2], [0, 0, 4, 0, 9]),
        "1 1 0 0\n2 2 1 4\n3 0 0 UNREACHED\n4 3 2 9\n"),
    "tagged": ((
        [0, 1, 2, 1, 0], [0, 0, 3, 0, 0], [0, 0, 1, 0, 0], [0, 1, 3, 3, 0]),
        "1 1 0 0 1\n2 2 3 1 3\n3 1 0 0 3\n4 0 0 UNREACHED 0\n"),
    "int64-max": ((
        [0, 1, 2], [0, 0, 1], [0, 0, INT64_MAX]),
        f"1 1 0 0\n2 2 1 {INT64_MAX}\n"),
    "negative": ((
        [0, 1, 2, -3], [0, 0, 1, 1], [0, 0, -5, INT64_MIN]),
        f"1 1 0 0\n2 2 1 -5\n3 -3 1 {INT64_MIN}\n"),
    "big-int": ((
        [0, 1, 2, 0], [0, 0, 1, 0], [0, 0, 2**64 + 3, 0]),
        f"1 1 0 0\n2 2 1 {2**64 + 3}\n3 0 0 UNREACHED\n"),
}


def written_rows(columns):
    """What ``fastlane.write_rows`` writes of an export's columns, as text,
    or None if it declines and writes nothing."""
    buf = io.BytesIO()
    if not fastlane.write_rows(buf, columns, results=True):
        assert buf.getvalue() == b""
        return None
    return buf.getvalue().decode()


def export_text(columns):
    buf = io.BytesIO()
    op.export_results(*state_and_regions(*columns), buf)
    return buf.getvalue().decode()


def without_a_compiler(request):
    """Disable the compiler from here on; requested only now, so that the
    compiled part of a test runs on the lane already built."""
    request.getfixturevalue("broken_compiler")()
    assert not fastlane.available()


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_rows_with_and_without_a_compiler(name, request):
    columns, want = EXPORTS[name]
    if fastlane.available():
        assert written_rows(columns) == (None if name == "big-int" else want)
    assert export_text(columns) == want
    without_a_compiler(request)
    assert written_rows(columns) is None
    assert export_text(columns) == want


@needs_lane
@pytest.mark.parametrize("results", [False, True])
def test_rows_span_chunks_in_every_kind_of_sink(results, tmp_path):
    # rows past several chunks, with the widest fields, between bytes
    # written before and after, to a buffer in memory and to a file
    step = fastlane._CHUNK_BYTES // (fastlane._FIELD_BYTES * (3 + results))
    count = 2 * step + 3
    cols = [array("q", [i % 3 for i in range(count)]),
            array("q", [INT64_MIN + i for i in range(count)]),
            array("q", [INT64_MAX - i for i in range(count)])]
    if results:  # index 0 is no node
        want = "".join(
            f"{v} {cols[0][v]} {cols[1][v]} {cols[2][v]}\n" if cols[0][v]
            else f"{v} 0 0 UNREACHED\n" for v in range(1, count))
    else:
        want = "".join(f"{h} {t} {w}\n" for h, t, w in zip(*cols))
    want = f"before\n{want}after\n".encode()
    buf, path = io.BytesIO(), tmp_path / "rows.txt"
    with open(path, "wb") as fh:
        for sink in (buf, fh):
            sink.write(b"before\n")
            assert fastlane.write_rows(sink, cols, results=results)
            sink.write(b"after\n")
    assert buf.getvalue() == path.read_bytes() == want
def instance_text(n, columns, directed):
    buf = io.BytesIO()
    op.write_instance(n, *columns, directed, buf, ["a comment"])
    return buf.getvalue().decode()


def test_instance_rows_with_and_without_a_compiler(request, tmp_path):
    instances = [(3, ([1, 3], [2, 1], [INT64_MAX, 0]), True),
                 (1, ([], [], []), False),
                 (30, op.random_columns(30, 90, 0, 10**12, seed=1), False)]
    want = [("# a comment\nn 3 2 directed\n"
             f"1 2 {INT64_MAX}\n3 1 0\n"),
            "# a comment\nn 1 0 undirected\n"]
    arcs = zip(*instances[2][1])
    want.append("# a comment\nn 30 90 undirected\n"
                + "".join(f"{h} {t} {w}\n" for h, t, w in arcs))
    gen = ["gen", "random", "--n", "40", "--arcs", "200", "--seed", "3",
           "--directed"]
    compiled = tmp_path / "compiled.txt"
    assert cli.main(gen + ["--out", str(compiled)]) == cli.EXIT_OK
    assert [instance_text(*inst) for inst in instances] == want
    without_a_compiler(request)
    assert [instance_text(*inst) for inst in instances] == want
    reference = tmp_path / "reference.txt"
    assert cli.main(gen + ["--out", str(reference)]) == cli.EXIT_OK
    assert compiled.read_bytes() == reference.read_bytes()
