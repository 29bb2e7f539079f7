import re
import time

import pytest

import optpaths as op
from optpaths import fastlane
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


class TestGen:
    def test_grid_matches_library_generator(self, tmp_path):
        path = make_grid_instance(tmp_path, rows=4, cols=7, hzp=True, seed=9)
        g, comments = op.read_instance_file(path)
        spec = op.GridSpec(k_r=4, k_c=7, seed=9, plant_hzp=True)
        expected, _, plan = op.gen_grid(spec)
        assert g.n == expected.n
        assert g.arc_weight.tolist() == expected.arc_weight.tolist()
        assert op.generators.parse_hzp_comment(comments) == plan

    def test_random_roundtrip(self, tmp_path):
        path = str(tmp_path / "rand.txt")
        assert run(["gen", "random", "--n", "12", "--arcs", "30",
                    "--seed", "4", "--directed", "--out", path]) == EXIT_OK
        g, comments = op.read_instance_file(path)
        assert g.n == 12 and len(g.arc_head) == 30 and g.directed
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

    def test_largest_int64_weight_is_accepted(self, tmp_path):
        path = str(tmp_path / "rand.txt")
        assert run(["gen", "random", "--n", "5", "--arcs", "3",
                    "--wmin", "9223372036854775800",
                    "--wmax", "9223372036854775807", "--out", path]) == EXIT_OK
        g, _ = op.read_instance_file(path)
        assert g.arc_weight.min() >= 9223372036854775800


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
        # 2^62 nodes: numpy refuses the CSR arrays without allocating
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
        lines = {int(l.split()[0]): l for l in path.read_text().splitlines()}
        lines.update(rows)
        path.write_text("".join(lines[v] + "\n" for v in sorted(lines)))

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
            assert float(row["snoa"]) == \
                int(row["node_scans"]) / int(row["arcs"])

    def test_non_divisor_is_usage_error(self, capsys):
        assert run(["bench", "--n-total", "100", "--kc", "7"]) == EXIT_USAGE


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        assert run(["bench", "--n-total", "100", "--kc", "x"]) == EXIT_USAGE
