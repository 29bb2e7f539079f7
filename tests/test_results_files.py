"""The results file on the compiled lane: export, re-read and audit.

Each compiled kernel is checked against the Python code it stands in for,
which stays the reference and names every fault:

- the formatter (``fastlane.format_rows``) against the Python rows of
  ``partition.export_results`` and ``graph.write_instance``, with and
  without a compiler;
- the results reader (``fastlane.read_results``) against the reference
  reader ``partition._scan_results``: wherever it accepts a file, its
  arrays must hold the reference's lists, and
  ``partition.read_results_file`` must give the same values or the same
  message;
- the audit (``fastlane.export_is_clean``) against the reference
  ``verify_export``: on solved exports, clean and with one mutation each,
  it must answer "clean" exactly when the reference reports no failure.

The reader and the audit certify and refuse; they are not line-for-line
copies of the reference, and these tests are what certify them.
"""

import io

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import InstanceFormatError, cli, fastlane, oracles, partition

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


@st.composite
def exports(draw):
    """A solved export of a small multigraph from 1..3 sources, as lists
    (cost 0 and has_cost 0 where unreached), clean or with one mutation; a
    third of the graphs have arc weights near 2**63 - 1."""
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
    g = op.build_graph(n, arcs, directed=directed)
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
    return g, region, parent, cost, has_cost, tags


def wrap_example():
    """Node 3 claims parent 2 at a cost that only a wrapped int64 sum
    INT64_MAX + 1 reaches; every other check passes."""
    g = op.build_graph(3, [(1, 2, INT64_MAX), (2, 3, 1), (1, 3, 5)],
                       directed=True)
    return (g, [0, 1, 2, 2], [0, 0, 1, 2], [0, 0, INT64_MAX, INT64_MIN],
            [0, 1, 1, 1], None)


def overflow_example():
    """A clean export in which the arc (2, 3) sums past INT64_MAX: the sum
    must neither match cost[3] nor improve it."""
    g = op.build_graph(3, [(1, 2, INT64_MAX), (2, 3, 1), (1, 3, 5)],
                       directed=True)
    return (g, [0, 1, 2, 2], [0, 0, 1, 1], [0, 0, INT64_MAX, 5],
            [0, 1, 1, 1], None)


@needs_lane
@settings(max_examples=400, deadline=None)
@given(export=exports(), fixpoint=st.booleans())
@example(export=wrap_example(), fixpoint=False)
@example(export=wrap_example(), fixpoint=True)
@example(export=overflow_example(), fixpoint=True)
def test_compiled_audit_is_clean_exactly_when_the_reference_is(export,
                                                               fixpoint):
    g, region, parent, cost, has_cost, tags = export
    ref = op.verify_export(g, region, parent, cost, has_cost,
                           op.min_plus_algebra(), fixpoint=fixpoint, tags=tags)
    clean = fastlane.export_is_clean(g, region, parent, cost, has_cost,
                                     fixpoint, tags)
    assert clean == (ref.ok and fits_int64(region, parent, cost, tags))
    # without an algebra the report is the same, whichever lane wrote it
    rep = op.verify_export(g, region, parent, cost, has_cost,
                           fixpoint=fixpoint, tags=tags)
    assert rep.failures == ref.failures


def test_the_overflow_examples_are_what_they_claim():
    alg = op.min_plus_algebra()
    *export, tags = overflow_example()
    assert op.verify_export(*export, alg, fixpoint=True, tags=tags).ok
    *export, tags = wrap_example()
    rep = op.verify_export(*export, alg, fixpoint=True, tags=tags)
    assert [check for check, *_ in rep.failures] == ["parent-arc"]


@needs_lane
@pytest.mark.parametrize("algo", ["hda", "ht"])
@pytest.mark.parametrize("sources", [[1], [1, 17], [3, 30, 50]])
def test_compiled_audit_certifies_solved_exports(algo, sources):
    g = op.gen_random_graph(60, 240, 0, 9, seed=len(sources), directed=True)
    res = op.run_pipeline(g, sources, algo)
    has_cost = [res.state.labeled(v) for v in range(g.n + 1)]
    export = (g, res.regions.region_of, res.state.parent, res.state.cost,
              has_cost)
    tags = res.state.tags
    assert fastlane.export_is_clean(*export, False, tags)
    at_fixpoint = op.verify_export(*export, op.min_plus_algebra(),
                                   fixpoint=True, tags=tags).ok
    assert at_fixpoint or algo == "hda"
    assert fastlane.export_is_clean(*export, True, tags) == at_fixpoint


@needs_lane
def test_verify_export_lane_rule(monkeypatch, triangle):
    res = op.run_pipeline(triangle, [1], "ht")
    export = (triangle, res.regions.region_of, res.state.parent,
              res.state.cost, [0, 1, 1, 1])

    def reference_audit(*args, **kwargs):
        raise AssertionError("the reference audit ran")

    monkeypatch.setattr(oracles, "_arc_pass", reference_audit)
    assert op.verify_export(*export, fixpoint=True).ok
    # an explicit algebra, min-plus included, gets the reference audit
    with pytest.raises(AssertionError, match="reference audit ran"):
        op.verify_export(*export, op.min_plus_algebra(), fixpoint=True)


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
    ]):
        test = example((n, text.encode("utf-8")))(test)
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
    want = outcome(partition._scan_results, str(path), n)
    rows = fastlane.read_results(data, n)
    if rows is not None:
        assert ("rows", as_lists(rows)) == want
    assert outcome(partition.read_results_file, str(path), n) == want


@needs_lane
def test_the_compiled_reader_reads_solve_exports(tmp_path):
    g = op.gen_random_graph(50, 150, 0, 9, seed=4, directed=True)
    for sources in ([1], [1, 7, 30]):
        buf = io.StringIO()
        res = op.run_pipeline(g, sources, "ht")
        op.export_results(res.state, res.regions, buf)
        data = buf.getvalue().encode()
        assert "UNREACHED" in buf.getvalue()
        path = tmp_path / "res.txt"
        path.write_bytes(data)
        rows = fastlane.read_results(data, g.n)
        assert rows is not None
        assert as_lists(rows) == partition._scan_results(str(path), g.n)


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
        is_source=[bool(region[v]) and not parent[v] for v in range(n + 1)],
        tags=tags)
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


def export_text(columns):
    buf = io.StringIO()
    op.export_results(*state_and_regions(*columns), buf)
    return buf.getvalue()


def without_a_compiler(request):
    """Disable the compiler from here on; requested only now, so that the
    compiled part of a test runs on the lane already built."""
    request.getfixturevalue("broken_compiler")()
    assert not fastlane.available()


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_rows_with_and_without_a_compiler(name, request):
    columns, want = EXPORTS[name]
    if fastlane.available():
        formatted = fastlane.format_rows(columns, results=True)
        assert formatted == (None if name == "big-int" else want)
    assert export_text(columns) == want
    without_a_compiler(request)
    assert fastlane.format_rows(columns, results=True) is None
    assert export_text(columns) == want


def instance_text(n, columns, directed):
    buf = io.StringIO()
    op.write_instance(n, *columns, directed, buf, ["a comment"])
    return buf.getvalue()


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
