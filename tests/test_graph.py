import contextlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optpaths as op
from optpaths import GraphError, InstanceFormatError, fastlane, graph
from optpaths.graph import text_mode_bytes


#: the fields of a graph, all compared by ==
GRAPH_FIELDS = ("n", "directed",
                "fwd_ptr", "fwd_dst", "fwd_w", "rev_ptr", "rev_src", "rev_w",
                "E")


def fields(g):
    return {name: getattr(g, name) for name in GRAPH_FIELDS}


def max_out_degree(g):
    """The largest out-degree, from the forward CSR."""
    ptr = g.fwd_ptr
    return max((ptr[u + 1] - ptr[u] for u in range(1, g.n + 1)), default=0)


def arc_columns(arcs):
    """The head, tail and weight columns of a list of triples."""
    return [array("q", c) for c in zip(*arcs)] or [array("q")] * 3


class TestBuildValidation:
    def test_rejects_bad_node_count(self):
        with pytest.raises(GraphError, match="node count"):
            op.build_graph(0, [])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError, match=r"arc 1 \(1,5,2\)"):
            op.build_graph(3, [(1, 2, 1), (1, 5, 2)])

    def test_rejects_negative_weight(self):
        with pytest.raises(GraphError, match=r"arc 0 .*negative"):
            op.build_graph(3, [(1, 2, -1)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match=r"arc 2 \(3,3\).*self-loop"):
            op.build_graph(3, [(1, 2, 1), (2, 3, 1), (3, 3, 1)])

    def test_rejects_value_outside_int64(self):
        with pytest.raises(GraphError,
                           match=r"arc 1 \(2,3,9223372036854775808\).*int64"):
            op.build_graph(3, [(1, 2, 1), (2, 3, 2**63)])
        g = op.build_graph(3, [(1, 2, 1), (2, 3, 2**63 - 1)])
        assert op.leaves(g, 2)[-1] == (3, 2**63 - 1)

    def test_zero_weight_allowed(self):
        g = op.build_graph(2, [(1, 2, 0)])
        assert op.leaves(g, 1) == [(2, 0)]

    @pytest.mark.parametrize("arcs", [[(1, 2)], [(1, 2, 3, 4)], [1, 2, 3],
                                      [(1, 2, 3), (2, 3)], [(1, 2, 0.5)],
                                      [(1, 2, "3")], [()]])
    def test_rejects_non_triples(self, arcs):
        with pytest.raises(GraphError, match="sequence of .* triples"):
            op.build_graph(3, arcs)

    def test_columns_need_a_node_and_equal_lengths(self):
        cols = arc_columns([(1, 2, 3)])
        with pytest.raises(GraphError,
                           match="^node count must be >= 1, got 0$"):
            op.graph_from_columns(0, *cols)
        with pytest.raises(GraphError, match="^arc columns differ in length$"):
            op.graph_from_columns(3, cols[0], cols[1], array("q"))

    def test_empty_graph(self):
        g = op.build_graph(4, [])
        assert g.E == 0 and max_out_degree(g) == 0
        assert op.leaves(g, 1) == []


class TestAdjacency:
    def test_undirected_interleaves_both_directions(self):
        # per-node entry order must equal "append both ends while reading
        # the arc list"
        g = op.build_graph(3, [(1, 2, 5), (2, 3, 7), (1, 3, 9)])
        assert op.leaves(g, 1) == [(2, 5), (3, 9)]
        assert op.leaves(g, 2) == [(1, 5), (3, 7)]
        assert op.leaves(g, 3) == [(2, 7), (1, 9)]
        assert op.in_neighbors(g, 2) == op.leaves(g, 2)

    def test_directed_forward_and_reverse(self):
        g = op.build_graph(3, [(1, 2, 5), (3, 2, 7)], directed=True)
        assert op.leaves(g, 1) == [(2, 5)]
        assert op.leaves(g, 2) == []
        assert op.in_neighbors(g, 2) == [(1, 5), (3, 7)]
        assert op.in_neighbors(g, 1) == []

    def test_parallel_arcs_kept_verbatim(self):
        g = op.build_graph(2, [(1, 2, 3), (1, 2, 8), (1, 2, 3)])
        assert op.leaves(g, 1) == [(2, 3), (2, 8), (2, 3)]
        assert g.E == 6

    def test_counts(self):
        g = op.build_graph(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
        assert g.E == 6          # undirected arcs count twice
        assert max_out_degree(g) == 3   # hub out-degree
        gd = op.build_graph(4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)],
                            directed=True)
        assert gd.E == 3 and max_out_degree(gd) == 3

    def test_node_range_checked_on_lookup(self):
        g = op.build_graph(2, [(1, 2, 1)])
        with pytest.raises(GraphError):
            op.leaves(g, 0)
        with pytest.raises(GraphError):
            op.in_neighbors(g, 3)

    def test_written_columns_read_back_as_the_built_graph(self):
        arcs = [(2, 1, 4), (1, 3, 0)]
        g = op.build_graph(3, arcs, directed=True)
        buf = io.BytesIO()
        op.write_instance(3, *arc_columns(arcs), True, buf)
        assert buf.getvalue() == b"n 3 2 directed\n2 1 4\n1 3 0\n"
        g2, _ = op.read_instance(buf.getvalue())
        assert fields(g2) == fields(g)

    def test_repr_names_the_shape(self):
        g = op.build_graph(3, [(2, 1, 4), (1, 3, 0)], directed=True)
        assert repr(g) == "Graph(n=3, directed, E=2)"


class TestInstanceFormat:
    def roundtrip(self, n, arcs, directed, comments=()):
        buf = io.BytesIO()
        op.write_instance(n, *arc_columns(arcs), directed, buf, comments)
        text = buf.getvalue()
        g2, c2 = op.read_instance(text)
        buf2 = io.BytesIO()
        op.write_instance(n, *arc_columns(arcs), directed, buf2, c2)
        return text, buf2.getvalue(), g2, c2

    def test_roundtrip_byte_identical(self):
        arcs = [(1, 2, 5), (2, 3, 0)]
        first, second, g2, c2 = self.roundtrip(3, arcs, True, ["hello world"])
        assert first == second
        assert c2 == ["hello world"]
        assert fields(g2) == fields(op.build_graph(3, arcs, directed=True))

    def test_missing_header(self):
        with pytest.raises(InstanceFormatError, match="line 1"):
            op.read_instance(b"1 2 3\n")

    def test_bad_header_line_number(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            op.read_instance(b"# ok\nnope\n")

    def test_bad_orientation(self):
        with pytest.raises(InstanceFormatError, match="orientation"):
            op.read_instance(b"n 2 1 sideways\n1 2 3\n")

    def test_bad_arc_line(self):
        with pytest.raises(InstanceFormatError, match="line 3"):
            op.read_instance(b"n 2 1 directed\n# c\n1 2\n")

    def test_non_integer_field(self):
        with pytest.raises(InstanceFormatError, match="line 2"):
            op.read_instance(b"n 2 1 directed\n1 2 x\n")

    def test_arc_count_mismatch(self):
        with pytest.raises(InstanceFormatError, match="declares 2"):
            op.read_instance(b"n 2 2 directed\n1 2 3\n")

    def test_structural_errors_become_format_errors(self):
        with pytest.raises(InstanceFormatError, match="self-loop"):
            op.read_instance(b"n 2 1 directed\n1 1 3\n")

    def test_file_roundtrip(self, tmp_path):
        arcs = [(1, 2, 7)]
        path = str(tmp_path / "inst.txt")
        op.write_instance_file(2, *arc_columns(arcs), False, path, ["c1"])
        g2, comments = op.read_instance_file(path)
        assert comments == ["c1"]
        assert fields(g2) == fields(op.build_graph(2, arcs))

    def test_a_file_is_made_text_mode_bytes_once(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "inst.txt"
        path.write_bytes(b"# crlf\r\nn 2 1 directed\r\n1 2 7\r\n")
        calls = []

        def counted(data):
            calls.append(len(data))
            return text_mode_bytes(data)

        monkeypatch.setattr(graph, "text_mode_bytes", counted)
        g, comments = op.read_instance_file(str(path))
        assert calls == [len(path.read_bytes())]
        assert comments == ["crlf"]
        assert fields(g) == fields(op.build_graph(2, [(1, 2, 7)], True))

    def test_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        # every reader decodes UTF-8, so the writer must not use the
        # locale's encoding; a hard-linked file is written in place, a new
        # one through a temp file
        fresh, linked = tmp_path / "fresh.txt", tmp_path / "linked.txt"
        linked.write_text("old\n")
        os.link(linked, tmp_path / "other.txt")
        code = ("import sys, optpaths as op\n"
                "for path in sys.argv[1:]:\n"
                "    op.write_instance_file(2, [1], [2], [7], False, path,\n"
                "                           ['caf\\xe9'])\n"
                "    print(ascii(op.read_instance_file(path)[1]))\n")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code, str(fresh),
                               str(linked)], env=env, capture_output=True,
                              text=True, encoding="utf-8")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["['caf\\xe9']"] * 2
        for path in (fresh, linked):
            assert path.read_bytes() == "# café\nn 2 1 undirected\n1 2 7\n" \
                .encode("utf-8")

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(GraphError, match="differ in length"):
            op.write_instance(3, [1, 2], [2], [5, 6], True, io.BytesIO())


def csr_bytes(g):
    arrays = {id(a): a for a in (g.fwd_ptr, g.fwd_dst, g.fwd_w,
                                 g.rev_ptr, g.rev_src, g.rev_w)}
    return sum(len(a) * a.itemsize for a in arrays.values())


@pytest.fixture()
def traced_read(tmp_path):
    """The graph of a 1.2 MB instance read on the compiled lane, the file's
    size, and tracemalloc's current and peak traced bytes of the read."""
    path = tmp_path / "inst.txt"
    op.write_instance_file(20000, *op.random_columns(20000, 90000, 0, 9,
                                                     seed=5),
                           True, str(path))
    op.read_instance_file(str(path))  # load the lane first
    tracemalloc.start()
    try:
        g, _ = op.read_instance_file(str(path))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, path.stat().st_size, current, peak


@pytest.mark.skipif(not fastlane.available(), reason="no C compiler")
def test_reading_holds_one_copy_of_the_text_beside_the_graph(traced_read):
    # the decoded text is dropped before the compiled reader builds the
    # graph, so the peak is the graph and its three parse columns, which
    # are freed once the build returns, plus about one encoded copy of the
    # file
    g, size, _, peak = traced_read
    assert size > 10**6
    held = csr_bytes(g) + 3 * 90000 * 8
    assert peak - held < 1.5 * size


@pytest.mark.skipif(not fastlane.available(), reason="no C compiler")
def test_a_read_graph_holds_only_its_csr_arrays(traced_read):
    g, _, current, _ = traced_read
    assert csr_bytes(g) < current < csr_bytes(g) + 64 * 1024


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.data())
def test_roundtrip_random(n, data):
    arcs = data.draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n), st.integers(0, 50))
        .filter(lambda a: a[0] != a[1]),
        max_size=30))
    directed = data.draw(st.booleans())
    g = op.build_graph(n, arcs, directed=directed)
    buf = io.BytesIO()
    op.write_instance(n, *arc_columns(arcs), directed, buf)
    g2, _ = op.read_instance(buf.getvalue())
    assert g2.n == g.n and g2.directed == g.directed and g2.E == g.E
    for u in range(1, n + 1):
        assert op.leaves(g2, u) == op.leaves(g, u)
        assert op.in_neighbors(g2, u) == op.in_neighbors(g, u)


def python_csr(n, keys, entries):
    """CSR by plain stable bucketing: the order build_graph must give."""
    buckets = [[] for _ in range(n + 1)]
    for k, e in zip(keys, entries):
        buckets[k].append(e)
    ptr = [0, 0]
    for u in range(1, n + 1):
        ptr.append(ptr[-1] + len(buckets[u]))
    return ptr, [e for b in buckets for e in b]


@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 70_000])
@pytest.mark.parametrize("directed", [False, True])
def test_csr_order_on_both_sides_of_the_16_bit_key_width(n, directed):
    # node ids on both sides of 2**16 keep plain bucketing order, on the
    # compiled build where present and on the reference build
    rng = random.Random(n)
    arcs = []
    for _ in range(3000):
        h = rng.choice([1, 2, n - 1, n, rng.randint(1, n)])
        t = rng.randint(1, n - 1)
        arcs.append((h, t + (t >= h), rng.randint(0, 9)))
    if directed:
        fwd = python_csr(n, [h for h, _, _ in arcs], [(t, w) for _, t, w in arcs])
        rev = python_csr(n, [t for _, t, _ in arcs], [(h, w) for h, _, w in arcs])
    else:
        keys = [x for h, t, _ in arcs for x in (h, t)]
        entries = [e for h, t, w in arcs for e in ((t, w), (h, w))]
        fwd = rev = python_csr(n, keys, entries)
    graphs = []
    for lane in (True, False):
        off = mock.patch.object(fastlane, "_lane", lambda: (None, "disabled"))
        with contextlib.nullcontext() if lane else off:
            graphs.append(op.build_graph(n, arcs, directed=directed))
    for g in graphs:
        for ptr, idx, wts, (want_ptr, want) in (
                (g.fwd_ptr, g.fwd_dst, g.fwd_w, fwd),
                (g.rev_ptr, g.rev_src, g.rev_w, rev)):
            assert ptr.tolist() == want_ptr
            assert list(zip(idx, wts)) == want
        lib = fastlane._lane()[0]
        if lib is not None:  # the weight the int64 bound is checked against
            assert fastlane._check_csr(lib, g) == max(w for _, _, w in arcs)
    # the reader, compiled where present, builds the same arrays
    buf = io.BytesIO()
    op.write_instance(n, *arc_columns(arcs), directed, buf)
    g2, _ = op.read_instance(buf.getvalue())
    assert fields(g2) == fields(graphs[0])


def built(n, arcs, directed, lane=True):
    """The fields of ``build_graph(n, arcs)``, or the GraphError message;
    without ``lane``, the compiled lane is unavailable."""
    off = mock.patch.object(fastlane, "_lane", lambda: (None, "disabled"))
    try:
        with contextlib.nullcontext() if lane else off:
            g = op.build_graph(n, arcs, directed=directed)
    except GraphError as exc:
        return str(exc)
    return fields(g)


#: what may sit in an arc list that is no triple of integers
NON_TRIPLES = [(1, 2), (1, 2, 3, 4), 3, (1, 2, 0.5), "123"]


@st.composite
def build_inputs(draw):
    """A node count and an arc list that is valid but for up to three
    faults: an endpoint out of range, a negative weight, a field outside
    int64, a self-loop, an entry that is no triple, or a node count below
    1 or too large to allocate."""
    n = draw(st.integers(2, 9))
    arcs = draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n - 1),
                  st.integers(0, 9) | st.just(2**63 - 1))
        .map(lambda a: (a[0], a[1] + (a[1] >= a[0]), a[2])),
        max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ["endpoint", "weight", "int64", "loop", "entry", "n"]))
        if fault == "n":
            n = draw(st.sampled_from([0, 1, 2**62]))
        elif fault == "entry":
            arcs.insert(draw(st.integers(0, len(arcs))),
                        draw(st.sampled_from(NON_TRIPLES)))
        elif arcs:
            i = draw(st.integers(0, len(arcs) - 1))
            arc = [1, 2, 3] if arcs[i] in NON_TRIPLES else list(arcs[i])
            if fault == "endpoint":
                arc[draw(st.integers(0, 1))] = draw(
                    st.sampled_from([-1, 0, n + 1, -(2**63), 2**63 - 1]))
            elif fault == "weight":
                arc[2] = draw(st.sampled_from([-1, -(2**63)]))
            elif fault == "int64":
                arc[draw(st.integers(0, 2))] = draw(
                    st.sampled_from([2**63, -(2**63) - 1]))
            else:
                arc[1] = arc[0]
            arcs[i] = tuple(arc)
    return n, arcs


@pytest.mark.skipif(not fastlane.available(), reason="no C compiler")
@settings(max_examples=300, deadline=None)
@given(build_inputs())
@example((3, [(1, 4, 1), (2, 2, -1)]))          # out-of-range endpoint first
@example((3, [(2, 2, 1), (1, 2, -1)]))          # negative weight first
@example((3, [(1, 2, 1), (3, 3, 0)]))           # self-loop
@example((3, [(1, 2, 2**63)]))                  # beyond int64
@example((3, [(1, 2, 1), (1, 2)]))              # no triple
@example((2**62, [(1, 2, 3)]))                  # pointers too large
@example((70_000, [(1, 70_000, 5), (70_000, 2, 0), (1, 70_000, 7)]))
def test_compiled_build_equals_reference_build(instance):
    n, arcs = instance
    for directed in (False, True):
        want = built(n, arcs, directed, lane=False)
        assert built(n, arcs, directed) == want
        if isinstance(want, str):
            continue
        # the kernel itself accepted the arcs, in plain bucketing order
        cols = arc_columns(arcs)
        g = fastlane.build(n, *cols, directed)
        assert fields(g) == want
        if directed:
            fwd = python_csr(n, cols[0], list(zip(cols[1], cols[2])))
            rev = python_csr(n, cols[1], list(zip(cols[0], cols[2])))
        else:
            keys = [x for h, t, _ in arcs for x in (h, t)]
            entries = [e for h, t, w in arcs for e in ((t, w), (h, w))]
            fwd = rev = python_csr(n, keys, entries)
        for ptr, idx, wts, (want_ptr, entries) in (
                (g.fwd_ptr, g.fwd_dst, g.fwd_w, fwd),
                (g.rev_ptr, g.rev_src, g.rev_w, rev)):
            assert ptr.tolist() == want_ptr
            assert list(zip(idx, wts)) == entries
        # the compiled reader builds the same graph from the written file
        buf = io.BytesIO()
        op.write_instance(n, *cols, directed, buf)
        g2, _ = op.read_instance(buf.getvalue())
        assert fields(g2) == want
