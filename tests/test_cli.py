import ast
import hashlib
import os
import pathlib
import re
import stat
import threading
import time

import pytest

import optpaths as op
from optpaths import cli, fastlane
from optpaths.graph import open_output
from optpaths.pipeline import InvariantViolation
from optpaths.cli import (CSV_COLUMNS, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                          main)

needs_lane = pytest.mark.skipif(not fastlane.available(),
                                reason="no C compiler")


def run(argv):
    # argparse-level usage failures raise SystemExit; fold them into the
    # same exit-code surface the console script presents
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def make_grid_instance(tmp_path, rows=6, cols=5, hzp=True, seed=3):
    path = str(tmp_path / "grid.txt")
    argv = ["gen", "grid", "--rows", str(rows), "--cols", str(cols),
            "--seed", str(seed), "--out", path]
    if hzp:
        argv.append("--hzp")
    assert run(argv) == EXIT_OK
    return path


def solve_on_both_lanes(argv, tmp_path, capsys, broken_compiler):
    """Run ``solve ... --out`` with the compiled lane loaded, then with no
    compiler; returns each run's text output (times masked) and export."""
    outputs = []
    for lane in ("compiled", "reference"):
        if lane == "reference":
            broken_compiler()
        assert fastlane.available() == (lane == "compiled")
        out = tmp_path / f"{lane}.txt"
        assert run(["solve", *argv, "--out", str(out)]) == EXIT_OK
        text = re.sub(r"=[0-9.]+ms", "=ms", capsys.readouterr().out)
        outputs.append((text, out.read_bytes()))
    return outputs


#: gen arguments and the sha256 of the bytes the numpy-based generators
#: wrote for them; both lanes must keep writing exactly these bytes
GEN_DIGESTS = [
    ("grid --rows 200 --cols 200 --seed 5",
     "ae8638405b33c80c63a8ffe5c751aa9ebfcbac82efcf1ffe50b01975a075caaa"),
    ("grid --rows 37 --cols 11 --seed 3 --hzp",
     "c9c625ac544e7a5f5c024a23a2120a2bae32ca36028602de295fe6933e620904"),
    ("grid --rows 6 --cols 9 --seed -3 --hzp",
     "7ec8d92b02038f7ee043532d7402439882eaa11db354ea28b95166285fe2e9eb"),
    ("grid --rows 3 --cols 4 --wmin 9223372036854775800 "
     "--wmax 9223372036854775807",
     "4916430fc37fd5dfc4f947e4d3cad7d1a8976d3fe10e637ba5a1decf5a93a8c1"),
    ("random --n 20000 --arcs 100000 --directed --seed 9",
     "b0a9cef87876da41f6a058183f519d4d7dc0972b2be3ceb03706fd956c055d22"),
    ("random --n 50 --arcs 300 --seed 2 --wmin 5 --wmax 9223372036854775807",
     "967802a5683cc46bf3db64a896b8446b17561e65b92eb82a84c0ab4a9f90b998"),
    ("random --n 40 --arcs 200 --seed 18446744073709551621 --directed",
     "3f305456003219ab4c85416a90607199498d585cc20a4174c6376e34f05d7fc8"),
]


class TestGen:
    def test_grid_matches_library_generator(self, tmp_path):
        path = make_grid_instance(tmp_path, rows=4, cols=7, hzp=True, seed=9)
        g, comments = op.read_instance_file(path)
        spec = op.GridSpec(k_r=4, k_c=7, seed=9, plant_hzp=True)
        expected, _, plan = op.gen_grid(spec)
        assert g.n == expected.n
        for name in ("fwd_ptr", "fwd_dst", "fwd_w"):
            assert getattr(g, name) == getattr(expected, name), name
        assert comments[-1] == "hzp-path " + " ".join(map(str, plan.path))

    def test_random_roundtrip(self, tmp_path):
        path = str(tmp_path / "rand.txt")
        assert run(["gen", "random", "--n", "12", "--arcs", "30",
                    "--seed", "4", "--directed", "--out", path]) == EXIT_OK
        g, comments = op.read_instance_file(path)
        assert g.n == 12 and g.E == 30 and g.directed
        assert any(c.startswith("random ") for c in comments)

    def test_gen_to_stdout(self, capsys):
        assert run(["gen", "grid", "--rows", "2", "--cols", "2"]) == EXIT_OK
        header = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("n ")]
        assert header == ["n 4 4 undirected"]

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        assert run(["gen", "grid", "--rows", "0", "--cols", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("kind", [["grid", "--rows", "2", "--cols", "2"],
                                      ["random", "--n", "5", "--arcs", "3"]])
    @pytest.mark.parametrize("bounds", [
        ["--wmax", "99999999999999999999999"],
        ["--wmin", "9223372036854775800", "--wmax", "9223372036854775900"],
    ])
    def test_weights_outside_int64_are_usage_errors(self, kind, bounds,
                                                    capsys):
        assert run(["gen", *kind, *bounds]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad weight range" in err and "9223372036854775807" in err
        assert "Traceback" not in err

    @needs_lane
    @pytest.mark.parametrize("argv,digest", GEN_DIGESTS)
    def test_output_bytes_are_pinned_on_both_lanes(self, argv, digest,
                                                   capsys, broken_compiler,
                                                   monkeypatch):
        # gen writes the generator's columns and builds no graph
        def no_build(*args, **kwargs):
            raise AssertionError("gen built a graph")

        monkeypatch.setattr(op.graph, "graph_from_columns", no_build)
        monkeypatch.setattr(fastlane, "build", no_build)
        for lane in ("compiled", "reference"):
            if lane == "reference":
                broken_compiler()
            assert fastlane.available() == (lane == "compiled")
            assert run(["gen", *argv.split()]) == EXIT_OK
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest() == digest, lane

    @pytest.mark.parametrize("argv,err", [
        ("grid --rows 4294967296 --cols 4294967296",
         "node count 18446744073709551616 is too large to allocate"),
        ("random --n 5 --arcs 4611686018427387904",
         "arc count 4611686018427387904 is too large to allocate"),
    ])
    def test_oversize_spec_is_usage_error(self, argv, err, capsys):
        # the arc columns are sized first, and these exceed 2^63 bytes, so
        # they are refused before anything is allocated
        assert run(["gen", *argv.split()]) == EXIT_USAGE
        assert capsys.readouterr().err == f"optpaths: error: {err}\n"

    def test_node_count_too_large_to_solve_is_still_generated(self, tmp_path,
                                                              capsys):
        # gen writes the arcs without allocating per-node arrays; solve
        # needs them and refuses the file
        path = tmp_path / "huge.txt"
        assert run(["gen", "random", "--n", str(2**62), "--arcs", "1",
                    "--out", str(path)]) == EXIT_OK
        rows = [l for l in path.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == f"n {2**62} 1 undirected" and len(rows) == 2
        assert run(["solve", "--instance", str(path), "--algo", "ht"]) \
            == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"optpaths: error: node count {2**62} is too large to allocate\n")

    def test_largest_int64_weight_is_accepted(self, tmp_path):
        path = str(tmp_path / "rand.txt")
        assert run(["gen", "random", "--n", "5", "--arcs", "3",
                    "--wmin", "9223372036854775800",
                    "--wmax", "9223372036854775807", "--out", path]) == EXIT_OK
        g, _ = op.read_instance_file(path)
        assert min(g.fwd_w) >= 9223372036854775800


class TestSolve:
    def test_text_output_and_export(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path)
        out = str(tmp_path / "res.txt")
        assert run(["solve", "--instance", inst, "--algo", "ht",
                    "--out", out]) == EXIT_OK
        text = capsys.readouterr().out
        assert text.startswith("ht: BL=")
        with open(out) as fh:
            rows = fh.read().splitlines()
        g, _ = op.read_instance_file(inst)
        assert len(rows) == g.n

    def test_csv_schema(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path)
        assert run(["solve", "--instance", inst, "--algo", "eom",
                    "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = lines[1].split(",")
        assert len(row) == len(CSV_COLUMNS)
        assert row[1] == "eom"
        # snoa column reproduces node_scans / arcs
        scans = int(row[CSV_COLUMNS.index("node_scans")])
        arcs = int(row[CSV_COLUMNS.index("arcs")])
        assert float(row[CSV_COLUMNS.index("snoa")]) == scans / arcs
        assert row[CSV_COLUMNS.index("lambda")] == row[CSV_COLUMNS.index("snoa")]

    def test_debug_invariants_flag(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path, rows=4, cols=4)
        assert run(["solve", "--instance", inst, "--algo", "fr",
                    "--debug-invariants"]) == EXIT_OK

    def test_multi_source_export_has_tags(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path, rows=3, cols=3, hzp=False)
        out = str(tmp_path / "res.txt")
        assert run(["solve", "--instance", inst, "--algo", "multi",
                    "--sources", "1,9", "--out", out]) == EXIT_OK
        with open(out) as fh:
            first = fh.readline().split()
        assert len(first) == 5 and first[4] == "1"

    def test_single_source_multi_export_has_no_tags(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path, rows=3, cols=3, hzp=False)
        out = tmp_path / "res.txt"
        assert run(["solve", "--instance", inst, "--algo", "multi",
                    "--sources", "4,4", "--out", str(out)]) == EXIT_OK
        assert all(len(row.split()) == 4
                   for row in out.read_text().splitlines())

    def test_sources_apply_to_every_algorithm(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path, rows=4, cols=4, hzp=False)
        exports = []
        for algo in (["ht"], ["multi"]):
            out = tmp_path / f"{algo[0]}.txt"
            assert run(["solve", "--instance", inst, "--algo", *algo,
                        "--sources", "5,9", "--out", str(out)]) == EXIT_OK
            exports.append(out.read_text())
        assert exports[0] == exports[1]
        rows = [r.split() for r in exports[0].splitlines()]
        assert all(len(r) == 5 for r in rows)
        assert {r[4] for r in rows} == {"5", "9"}

    @needs_lane
    def test_multi_export_is_the_same_on_both_lanes(self, tmp_path, capsys,
                                                    broken_compiler):
        inst = make_grid_instance(tmp_path, rows=9, cols=7, hzp=False)
        argv = ["--instance", inst, "--algo", "multi", "--sources", "1,9,40"]
        compiled, reference = solve_on_both_lanes(argv, tmp_path, capsys,
                                                  broken_compiler)
        assert compiled == reference
        rows = [r.split() for r in compiled[1].decode().splitlines()]
        assert {r[4] for r in rows} == {"1", "9", "40"}
        assert run(["solve", *argv, "--debug-invariants"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("multi: BL=")

    @needs_lane
    def test_solve_output_is_the_same_without_a_compiler(
            self, tmp_path, capsys, broken_compiler):
        inst = make_grid_instance(tmp_path, rows=12, cols=10, hzp=False)
        compiled, reference = solve_on_both_lanes(
            ["--instance", inst, "--algo", "ht"], tmp_path, capsys,
            broken_compiler)
        assert compiled == reference
        assert compiled[0].startswith("ht: BL=")

    @needs_lane
    def test_multi_reports_measured_classify_time(self, tmp_path, capsys,
                                                  monkeypatch):
        lib = fastlane._lane()[0]

        class SlowClassify:
            """The kernels, with classification 20 ms slower."""

            def __getattr__(self, name):
                return getattr(lib, name)

            def optpaths_classify(self, *args):
                time.sleep(0.02)
                return lib.optpaths_classify(*args)

        # --algo multi routes to the compiled lane, which times the kernel
        monkeypatch.setattr(fastlane, "_lane", lambda: (SlowClassify(), ""))
        inst = make_grid_instance(tmp_path, rows=3, cols=3, hzp=False)
        assert run(["solve", "--instance", inst, "--algo", "multi",
                    "--sources", "1,9", "--format", "csv"]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[CSV_COLUMNS.index("classify_ms")]) >= 20.0

    def test_weight_beyond_int64_is_usage_error(self, tmp_path, capsys):
        inst = tmp_path / "huge.txt"
        inst.write_text(f"n 3 2 directed\n1 2 1\n2 3 {2**63}\n")
        assert run(["solve", "--instance", str(inst),
                    "--algo", "eom"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "arc 1 (2,3,9223372036854775808)" in err
        assert "Traceback" not in err

    def test_non_utf8_instance_is_usage_error(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path)
        with open(inst, "rb") as fh:
            lines = len(fh.read().splitlines())
        with open(inst, "ab") as fh:
            fh.write(b"\xff\xfe")
        assert run(["solve", "--instance", inst, "--algo", "ht"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"line {lines + 1}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_huge_node_count_is_usage_error(self, tmp_path, capsys):
        # 2^62 nodes: the CSR pointer arrays are refused without allocating
        inst = tmp_path / "huge-n.txt"
        inst.write_text(f"n {2**62} 1 directed\n1 2 3\n")
        assert run(["solve", "--instance", str(inst),
                    "--algo", "ht"]) == EXIT_USAGE
        assert f"node count {2**62} is too large" in capsys.readouterr().err

    def test_empty_source_list_is_usage_error(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path)
        assert run(["solve", "--instance", inst, "--algo", "multi",
                    "--sources", ""]) == EXIT_USAGE
        assert "expected at least one integer" in capsys.readouterr().err

    def test_fast_lane_refuses_beyond_int64_bound(self, tmp_path, capsys):
        # two arcs of 6e18: the sum would wrap in int64, so the compiled
        # lane refuses and the run goes to the exact reference lane
        inst = tmp_path / "big.txt"
        inst.write_text("n 3 2 directed\n1 2 6000000000000000000\n"
                        "2 3 6000000000000000000\n")
        out = tmp_path / "res.txt"
        assert run(["compare", "--instance", str(inst)]) == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("all agree")
        assert run(["solve", "--instance", str(inst), "--algo", "eom",
                    "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[2].split()[3] \
            == "12000000000000000000"

    def test_unknown_algo_is_usage_error(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path)
        assert run(["solve", "--instance", inst,
                    "--algo", "bogus"]) == EXIT_USAGE

    def test_missing_instance_file(self, tmp_path, capsys):
        assert run(["solve", "--instance", str(tmp_path / "nope.txt"),
                    "--algo", "eom"]) == EXIT_USAGE


class TestVerify:
    def solve_to(self, tmp_path, algo):
        inst = make_grid_instance(tmp_path)
        out = str(tmp_path / f"{algo}.txt")
        assert run(["solve", "--instance", inst, "--algo", algo,
                    "--out", out]) == EXIT_OK
        return inst, out

    def test_clean_export_verifies(self, tmp_path, capsys):
        inst, out = self.solve_to(tmp_path, "ht")
        assert run(["verify", "--instance", inst, "--results", out,
                    "--fixpoint"]) == EXIT_OK
        assert capsys.readouterr().out.strip().endswith("OK")

    def test_min_hop_export_fails_fixpoint_only(self, tmp_path, capsys):
        inst, out = self.solve_to(tmp_path, "hda")
        assert run(["verify", "--instance", inst,
                    "--results", out]) == EXIT_OK
        assert run(["verify", "--instance", inst, "--results", out,
                    "--fixpoint"]) == EXIT_VERIFY

    def test_tampered_cost_detected(self, tmp_path, capsys):
        inst, out = self.solve_to(tmp_path, "ht")
        with open(out) as fh:
            rows = fh.read().splitlines()
        v, reg, par, cost = rows[-1].split()
        rows[-1] = f"{v} {reg} {par} {int(cost) + 1}"
        with open(out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        assert run(["verify", "--instance", inst, "--results", out]) \
            == EXIT_VERIFY
        assert "failure" in capsys.readouterr().out

    def tamper(self, path, rows):
        lines = {int(l.split()[0]): l
                 for l in path.read_text(encoding="utf-8").splitlines()}
        lines.update(rows)
        path.write_text("".join(lines[v] + "\n" for v in sorted(lines)),
                        encoding="utf-8")

    def test_planted_two_cycle_fails_acyclic(self, tmp_path, capsys):
        inst, out = self.solve_to(tmp_path, "ht")
        res = tmp_path / "ht.txt"
        rows = {int(l.split()[0]): l.split()
                for l in res.read_text().splitlines()}
        a, b = 8, 9  # adjacent in the column-major grid, neither a source
        self.tamper(res, {a: f"{a} {rows[a][1]} {b} {rows[a][3]}",
                          b: f"{b} {rows[b][1]} {a} {rows[b][3]}"})
        assert run(["verify", "--instance", inst, "--results", out]) \
            == EXIT_VERIFY
        assert "[acyclic]" in capsys.readouterr().out

    def test_dead_end_chain_fails_acyclic(self, tmp_path, capsys):
        # node 4 is unreachable from 1; hanging node 3 off it dead-ends
        inst = tmp_path / "dir.txt"
        inst.write_text("n 4 3 directed\n1 2 1\n2 3 1\n4 3 1\n")
        res = tmp_path / "res.txt"
        assert run(["solve", "--instance", str(inst), "--algo", "eom",
                    "--out", str(res)]) == EXIT_OK
        self.tamper(res, {3: "3 3 4 2"})
        assert run(["verify", "--instance", str(inst),
                    "--results", str(res)]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "[acyclic]" in out and "dead end at 4" in out

    def test_parent_out_of_range_is_usage_error(self, tmp_path, capsys):
        inst, out = self.solve_to(tmp_path, "ht")
        for parent in (31, -1):
            self.tamper(tmp_path / "ht.txt", {2: f"2 2 {parent} 5"})
            assert run(["verify", "--instance", inst,
                        "--results", out]) == EXIT_USAGE
            assert "out of range" in capsys.readouterr().err

    def solve_multi_to(self, tmp_path, capsys):
        inst = tmp_path / "tri.txt"
        inst.write_text("n 3 2 directed\n1 2 1\n3 2 1\n")
        res = tmp_path / "res.txt"
        assert run(["solve", "--instance", str(inst), "--algo", "multi",
                    "--sources", "1,3", "--out", str(res)]) == EXIT_OK
        assert res.read_text() == "1 1 0 0 1\n2 2 1 1 1\n3 1 0 0 3\n"
        assert run(["verify", "--instance", str(inst),
                    "--results", str(res)]) == EXIT_OK
        capsys.readouterr()
        return str(inst), res

    @pytest.mark.parametrize("row, want", [
        ({2: "2 2 1 1 3"}, "[tag] node 2: expected 1, got 3"),
        ({3: "3 1 0 0 1"}, "[tag] node 3: expected 3, got 1"),
    ])
    def test_wrong_tag_fails(self, tmp_path, capsys, row, want):
        inst, res = self.solve_multi_to(tmp_path, capsys)
        self.tamper(res, row)
        assert run(["verify", "--instance", inst,
                    "--results", str(res)]) == EXIT_VERIFY
        assert want in capsys.readouterr().out

    def test_tag_on_unreached_node_fails(self, tmp_path, capsys):
        inst = tmp_path / "dir.txt"
        inst.write_text("n 4 2 directed\n1 2 1\n3 2 1\n")
        res = tmp_path / "res.txt"
        assert run(["solve", "--instance", str(inst), "--algo", "multi",
                    "--sources", "1,3", "--out", str(res)]) == EXIT_OK
        assert res.read_text().splitlines()[3] == "4 0 0 UNREACHED 0"
        self.tamper(res, {4: "4 0 0 UNREACHED 1"})
        assert run(["verify", "--instance", str(inst),
                    "--results", str(res)]) == EXIT_VERIFY
        assert "[tag] node 4: expected 0, got 1" in capsys.readouterr().out

    def test_mixed_column_counts_are_usage_error(self, tmp_path, capsys):
        inst, res = self.solve_multi_to(tmp_path, capsys)
        self.tamper(res, {2: "2 2 1 1"})
        assert run(["verify", "--instance", inst,
                    "--results", str(res)]) == EXIT_USAGE
        assert "line 2: 4 columns where earlier rows have 5" \
            in capsys.readouterr().err

    def test_malformed_results_are_usage_error(self, tmp_path, capsys):
        inst, out = self.solve_to(tmp_path, "ht")
        with open(out, "a") as fh:
            fh.write("1 1 0 0\n")  # duplicate node id
        assert run(["verify", "--instance", inst,
                    "--results", out]) == EXIT_USAGE

    # int() takes both; result files, like instance files, hold ASCII
    # [+-]?[0-9]+ integers only
    @pytest.mark.parametrize("row", ["9 5 6 1_4", "9 5 6 \uff15"])
    def test_non_ascii_integers_are_usage_error(self, tmp_path, capsys, row):
        inst, out = self.solve_to(tmp_path, "ht")
        self.tamper(tmp_path / "ht.txt", {9: row})
        assert run(["verify", "--instance", inst, "--results", out,
                    "--fixpoint"]) == EXIT_USAGE
        assert "line 9: non-integer field" in capsys.readouterr().err

    # every cost is off by 7, consistently, and so is the source's
    @pytest.mark.parametrize("lane", ["compiled", "reference"])
    @pytest.mark.parametrize("rows, want", [
        ("1 1 0 7\n2 2 1 11\n3 3 2 16\n",
         "[root-cost] node 1: expected 0, got 7"),
        ("1 1 0 0\n2 2 1 4\n3 1 0 0\n",
         "[roots] export: expected one parentless reached node without a "
         "tag column, got 2"),
        ("1 1 0 0 1\n2 2 1 4 1\n3 3 2 9 1\n",
         "[roots] export: expected two or more parentless reached nodes "
         "with a tag column, got 1"),
    ], ids=["source-cost", "second-untagged-source", "one-tagged-source"])
    def test_sources_are_checked(self, tmp_path, capsys, request, lane,
                                 rows, want):
        if lane == "reference":
            request.getfixturevalue("broken_compiler")()
        inst = tmp_path / "path.txt"
        inst.write_text("n 3 2 directed\n1 2 4\n2 3 5\n")
        res = tmp_path / "res.txt"
        res.write_text(rows)
        assert run(["verify", "--instance", str(inst), "--results", str(res),
                    "--fixpoint"]) == EXIT_VERIFY
        assert capsys.readouterr().out == f"1 failure(s):\n  {want}\n"

    def test_non_utf8_results_are_usage_error(self, tmp_path, capsys):
        inst, out = self.solve_to(tmp_path, "ht")
        with open(out, "rb") as fh:
            lines = len(fh.read().splitlines())
        with open(out, "ab") as fh:
            fh.write(b"\xff\xfe")
        assert run(["verify", "--instance", inst,
                    "--results", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"line {lines + 1}: not UTF-8 text" in err
        assert "Traceback" not in err


class TestCompare:
    def test_agreement(self, tmp_path, capsys):
        inst = make_grid_instance(tmp_path)
        assert run(["compare", "--instance", inst]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().endswith("all agree")
        for algo in ("eom", "eom2", "hrp", "fr", "ht"):
            assert f"{algo}: BL=" in out

    def test_csv_format(self, tmp_path):
        inst = make_grid_instance(tmp_path, rows=4, cols=4)
        out = str(tmp_path / "cmp.csv")
        assert run(["compare", "--instance", inst, "--format", "csv",
                    "--out", out]) == EXIT_OK
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 7  # header + 5 algos + verdict
        assert lines[-1] == "all agree"

    @needs_lane
    def test_fast_lane_agrees_too(self, tmp_path, capsys, broken_compiler):
        # the same rows with the lane loaded and with no compiler, timings
        # aside
        inst = make_grid_instance(tmp_path, rows=9, cols=7, hzp=False)
        timing = {CSV_COLUMNS.index(c)
                  for c in ("hda_ms", "classify_ms", "schedule_ms")}
        outputs = []
        for lane in ("compiled", "reference"):
            if lane == "reference":
                broken_compiler()
            assert fastlane.available() == (lane == "compiled")
            assert run(["compare", "--instance", inst, "--format", "csv"]) \
                == EXIT_OK
            outputs.append([
                [f for i, f in enumerate(line.split(",")) if i not in timing]
                for line in capsys.readouterr().out.splitlines()])
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 7 and outputs[0][-1] == ["all agree"]


class TestBench:
    def test_small_sweep_csv(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert run(["bench", "--n-total", "144", "--kc", "4,12",
                    "--algos", "eom,ht", "--out", out]) == EXIT_OK
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            assert int(row["regular_way"]) + int(row["wrong_way"]) \
                == int(row["improvements"])
            arcs = int(row["arcs"])
            assert float(row["snoa"]) == int(row["node_scans"]) / arcs
            assert float(row["ooa"]) == int(row["origins"]) / arcs
            assert float(row["onoa"]) == int(row["improvements"]) / arcs

    def test_non_divisor_is_usage_error(self, capsys):
        assert run(["bench", "--n-total", "100", "--kc", "7"]) == EXIT_USAGE

    @pytest.mark.parametrize("n_total,kc", [("0", "1"), ("-6", "2")])
    def test_empty_grid_fails_before_any_output(self, tmp_path, capsys,
                                                n_total, kc):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--n-total", n_total, "--kc", kc,
                    "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "grid dims must be >= 1" in capsys.readouterr().err

    def test_unknown_algorithm_fails_before_any_output(self, tmp_path,
                                                       capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--n-total", "144", "--kc", "4,12",
                    "--algos", "eom,bogus", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "unknown algorithm 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("algos", ["", ",", " , "])
    def test_empty_algorithm_list_fails_before_any_output(self, tmp_path,
                                                          capsys, algos):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--n-total", "144", "--kc", "4,12",
                    "--algos", algos, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "expected at least one algorithm" in capsys.readouterr().err

    @needs_lane
    def test_fast_lane_agrees_too(self, tmp_path, broken_compiler):
        # the same CSV with the lane loaded and with no compiler, timings
        # aside
        timing = {CSV_COLUMNS.index(c)
                  for c in ("hda_ms", "classify_ms", "schedule_ms")}
        outputs = []
        for lane in ("compiled", "reference"):
            if lane == "reference":
                broken_compiler()
            assert fastlane.available() == (lane == "compiled")
            out = tmp_path / f"{lane}.csv"
            assert run(["bench", "--n-total", "60", "--kc", "3,6,20",
                        "--algos", ",".join(op.ALGORITHMS),
                        "--out", str(out)]) == EXIT_OK
            outputs.append([
                [f for i, f in enumerate(line.split(",")) if i not in timing]
                for line in out.read_text().splitlines()])
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 1 + 3 * len(op.ALGORITHMS)


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["solve", "--algo", "ht", "--sources", "1_0,\uff15"],
        ["solve", "--algo", "ht", "--source", "\uff15"],
        ["compare", "--source", "\uff15"],
        ["bench", "--n-total", "1_00", "--kc", "10"],
        ["bench", "--n-total", "100", "--kc", "\uff15,1_0"],
        ["gen", "grid", "--rows", "1_0", "--cols", "3"],
    ], ids=["solve-sources", "solve-source", "compare-source",
            "bench-n-total", "bench-kc", "gen-rows"])
    def test_integer_options_take_ascii_digits_only(self, tmp_path, capsys,
                                                    argv):
        # int() alone would read '1_0' as 10 and a fullwidth five as 5
        if argv[0] in ("solve", "compare"):
            argv = [*argv, "--instance", make_grid_instance(tmp_path)]
        out = tmp_path / "out.txt"
        assert run([*argv, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "expected an integer" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert run(["bench", "--n-total", "100", "--kc", "x"]) == EXIT_USAGE


#: for each kind of output file, the arguments that write it to ``{out}``
#: from an instance ``g.txt``; CSV rows carry times, which are masked
WRITERS = {
    "instance": "gen grid --rows 9 --cols 7 --seed 4 --hzp --out {out}",
    "results": "solve --instance g.txt --algo multi --sources 1,40 "
               "--out {out}",
    "csv": "bench --n-total 24 --kc 2,6 --algos ht,fr --out {out}",
    "compare": "compare --instance g.txt --format csv --out {out}",
}
COMMANDS = {
    "gen": ["gen", "grid", "--rows", "3", "--cols", "3"],
    "solve": ["solve", "--instance", "g.txt", "--algo", "ht"],
    "compare": ["compare", "--instance", "g.txt"],
    "bench": ["bench", "--n-total", "12", "--kc", "3"],
}


def _masked(data: bytes) -> bytes:
    return re.sub(rb",[0-9]+\.[0-9]{3},[0-9]+\.[0-9]{3},[0-9]+\.[0-9]{3},",
                  b",ms,ms,ms,", data)


class TestOutputFiles:
    """Every ``--out`` goes through ``graph.open_output``: a regular file is
    replaced by a renamed sibling once complete; other targets are written
    in place.  Every test stays under ``tmp_path``: a faulty writer pointed
    at a shared device such as /dev/null would unlink it."""

    @pytest.fixture
    def work(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["gen", "grid", "--rows", "8", "--cols", "6", "--seed", "2",
                    "--out", "g.txt"]) == EXIT_OK
        capsys.readouterr()
        return tmp_path

    def write(self, kind, out, capsys):
        assert run(WRITERS[kind].format(out=out).split()) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    @pytest.mark.parametrize("out,err", [
        ("nodir/x", "[Errno 2] No such file or directory: 'nodir/x'"),
        ("d", "[Errno 21] Is a directory: 'd'"),
        # realpath() resolves these, open() does not
        ("x/", "[Errno 21] Is a directory: 'x/'"),
        ("x/.", "[Errno 2] No such file or directory: 'x/.'"),
        ("nodir/../x", "[Errno 2] No such file or directory: 'nodir/../x'"),
        ("g.txt/", "[Errno 21] Is a directory: 'g.txt/'"),
        ("g.txt/x", "[Errno 20] Not a directory: 'g.txt/x'"),
    ])
    def test_failure_messages_name_the_path_as_given(self, work, capsys,
                                                     cmd, out, err):
        (work / "d").mkdir()
        before = {p: p.read_bytes() for p in work.iterdir() if p.is_file()}
        assert run([*COMMANDS[cmd], "--out", out]) == EXIT_USAGE
        assert capsys.readouterr().err == f"optpaths: error: {err}\n"
        assert {p: p.read_bytes() for p in work.iterdir() if p.is_file()} \
            == before

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_read_only_file_is_refused(self, work, capsys, monkeypatch, cmd):
        # open(path, "w") refuses a 0444 file for any user but root; the
        # writer could unlink it instead, so it asks os.access first
        ro = work / "ro.txt"
        ro.write_bytes(b"keep\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode, **kw: (
            os.path.basename(p) != "ro.txt" and access(p, mode, **kw)))
        assert run([*COMMANDS[cmd], "--out", "ro.txt"]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "optpaths: error: [Errno 13] Permission denied: 'ro.txt'\n"
        assert ro.read_bytes() == b"keep\n"
        assert sorted(os.listdir(work)) == ["g.txt", "ro.txt"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_overwrite_equals_a_fresh_write_and_keeps_the_mode(
            self, work, capsys, kind):
        self.write(kind, "fresh", capsys)
        old = work / "old"
        old.write_bytes(b"x" * 100_000)  # longer than any new content
        old.chmod(0o640)
        inode = old.stat().st_ino
        self.write(kind, "old", capsys)
        assert _masked(old.read_bytes()) == _masked((work / "fresh").read_bytes())
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert old.stat().st_ino != inode  # replaced, not truncated
        assert sorted(os.listdir(work)) == ["fresh", "g.txt", "old"]

    @pytest.mark.parametrize("exists", [True, False])
    def test_symlink_survives_and_its_target_gets_the_bytes(
            self, work, capsys, exists):
        self.write("results", "fresh", capsys)
        (work / "sub").mkdir()
        target = work / "sub" / "target"
        if exists:
            target.write_bytes(b"old\n")
        (work / "link").symlink_to("sub/target")
        self.write("results", "link", capsys)
        assert os.readlink(work / "link") == "sub/target"
        assert target.read_bytes() == (work / "fresh").read_bytes()
        assert os.listdir(work / "sub") == ["target"]

    def test_hard_linked_file_is_written_in_place(self, work, capsys):
        self.write("instance", "fresh", capsys)
        a, b = work / "a", work / "b"
        a.write_bytes(b"old\n" * 10_000)
        os.link(a, b)
        self.write("instance", "a", capsys)
        assert a.read_bytes() == b.read_bytes() == (work / "fresh").read_bytes()
        assert os.path.samefile(a, b) and a.stat().st_nlink == 2

    @pytest.mark.parametrize("patch", ["read-only directory", "other owner",
                                       "other group"])
    def test_file_replacing_would_change_is_written_in_place(
            self, work, capsys, monkeypatch, patch):
        # as any user but root: open(path, "w") can write a writable file in
        # a directory it cannot create files in, and replacing a file owned
        # by another user or group would make it ours
        self.write("results", "fresh", capsys)
        res = work / "res"
        res.write_bytes(b"old\n")
        inode = res.stat().st_ino
        if patch == "other owner":
            monkeypatch.setattr(os, "geteuid", lambda: os.getuid() + 1)
        elif patch == "other group":
            monkeypatch.setattr(os, "getegid", lambda: os.getgid() + 1)
        else:
            access = os.access
            monkeypatch.setattr(os, "access", lambda p, mode, **kw: (
                p != str(work) and access(p, mode, **kw)))
        self.write("results", "res", capsys)
        assert res.read_bytes() == (work / "fresh").read_bytes()
        assert res.stat().st_ino == inode

    def test_fifo_gets_the_bytes(self, work, capsys):
        self.write("instance", "fresh", capsys)
        fifo = work / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        self.write("instance", "fifo", capsys)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [(work / "fresh").read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_solve_writes_a_file_named_dash(self, work, capsys):
        self.write("results", "fresh", capsys)
        self.write("results", "-", capsys)
        assert (work / "-").read_bytes() == (work / "fresh").read_bytes()

    def test_a_stale_temp_file_is_left_alone(self, work, capsys):
        self.write("results", "fresh", capsys)
        stale = work / f"res.{os.getpid()}.0.tmp"
        stale.write_bytes(b"stale\n")
        self.write("results", "res", capsys)
        assert stale.read_bytes() == b"stale\n"
        assert (work / "res").read_bytes() == (work / "fresh").read_bytes()
        assert sorted(os.listdir(work)) == ["fresh", "g.txt", "res",
                                            stale.name]

    @pytest.mark.parametrize("exists", [True, False])
    def test_a_failed_writer_keeps_the_old_file(self, tmp_path, exists):
        path = tmp_path / "out.txt"
        if exists:
            path.write_bytes(b"old\n")
        with pytest.raises(RuntimeError, match="boom"):
            with open_output(str(path)) as fh:
                fh.write("new\n" * 100_000)
                raise RuntimeError("boom")
        assert os.listdir(tmp_path) == (["out.txt"] if exists else [])
        if exists:
            assert path.read_bytes() == b"old\n"

    def test_a_failed_bench_keeps_the_old_csv(self, work, capsys,
                                              monkeypatch):
        self.write("csv", "sweep.csv", capsys)
        before = (work / "sweep.csv").read_bytes()
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise InvariantViolation("planted")
            return run_pipeline(*args, **kwargs)

        run_pipeline = cli.run_pipeline
        monkeypatch.setattr(cli, "run_pipeline", failing)
        assert run(WRITERS["csv"].format(out="sweep.csv").split()) \
            == EXIT_VERIFY
        assert capsys.readouterr().err == \
            "optpaths: invariant violation: planted\n"
        assert (work / "sweep.csv").read_bytes() == before
        assert sorted(os.listdir(work)) == ["g.txt", "sweep.csv"]


#: os.open flags that open a file only for reading
_READ_FLAGS = {"os", "O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW", "O_DIRECTORY",
               "O_NONBLOCK"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` is an open(), os.open(), os.fdopen(), Path.open(),
    write_text() or write_bytes() call that may write; a mode or flags
    argument that is not a literal counts as writing."""
    fn = call.func
    name = getattr(fn, "attr", getattr(fn, "id", None))
    owner = getattr(getattr(fn, "value", None), "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name == "open" and owner == "os":
        flags = call.args[1] if len(call.args) > 1 else call.keywords[0].value
        names = {getattr(n, "attr", getattr(n, "id", None))
                 for n in ast.walk(flags) if isinstance(n, (ast.Attribute,
                                                            ast.Name))}
        return not names <= _READ_FLAGS or not names
    if name not in ("open", "fdopen"):
        return False
    # builtin open, io.open and os.fdopen take the mode second, Path.open first
    at = 0 if isinstance(fn, ast.Attribute) and owner not in ("io", "os") else 1
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[at] if len(call.args) > at else None)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or any(c in mode.value
                                                     for c in "wax+")


def _writing_opens(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every call in ``source`` that opens a
    file for writing."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.append((child.lineno, func))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(ast.parse(source), None)
    return found


def test_the_writer_check_sees_every_kind_of_open():
    src = ("import io, os\n"
           "def f(p, m):\n"
           "    open(p, 'w'); open(p, mode='a'); open(p, m); io.open(p, 'x')\n"
           "    os.open(p, os.O_WRONLY | os.O_CREAT); os.fdopen(3, 'r+')\n"
           "    p.open('w'); p.write_text('x'); os.open(p, flags)\n"
           "    open(p); open(p, 'rb'); p.open(); os.open(p, os.O_RDONLY)\n")
    assert _writing_opens(src) == [(3, "f")] * 4 + [(4, "f")] * 2 \
        + [(5, "f")] * 3


def test_every_file_is_written_through_open_output():
    # a later open(path, "w") would bring back the close-time flush of a
    # truncated file, and a partial file on failure
    package = pathlib.Path(op.__file__).parent
    found = {path.name: _writing_opens(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(found) >= 10
    elsewhere = {name: [(line, func) for line, func in calls
                        if func != "open_output"]
                 for name, calls in found.items()}
    assert all(not calls for calls in elsewhere.values()), elsewhere
    # the writer's own three opens: in place, the temp file, its text layer
    assert [func for _, func in found["graph.py"]] == ["open_output"] * 3
