"""Command line interface, exercised in-process through main(argv).

Each command prints one JSON record (or CSV for scan), so the tests
parse stdout and check the shapes and a few frozen values.  Exit codes:
0 success, 1 validation problems, 2 failed reproduction.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from bellmp import cli
from bellmp.cli import main

ME_MAX = 2.896243218458708
FLAT_ANGLES = {"d": 4, "A1": [0] * 4, "A2": [0] * 4, "B1": [0] * 4, "B2": [0] * 4}
# An integer literal past Python's 4300-digit int-string limit, which
# neither json.loads nor json.dumps converts.
HUGE_INT = "1" + "0" * 5000


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_flat_state_zero_angles(self, capsys):
        code, out, err = run(capsys, ["eval", "--state", "1,1,1,1"])
        assert code == 0
        record = json.loads(out)
        assert record["I"] == 2.0
        assert record["Q11"] == 1.0
        assert record["d"] == 4
        assert record["noise"] == 0.0
        # no violation at zero angles, so no threshold is reported
        assert "threshold_noise" not in record
        table = record["probabilities"]["11"]
        assert table[0][0] == 0.25
        assert table[1][3] == 0.25

    def test_zero_correlations_print_unsigned(self, capsys):
        # |1000>: every outcome is equally likely, so every Q is zero;
        # the subtracted Q21 must not print as -0.0
        code, out, _ = run(capsys, ["eval", "--state", "1,0,0,0"])
        assert code == 0
        assert "-0.0" not in out
        record = json.loads(out)
        assert [record[f"Q{i}{j}"] for i in (1, 2) for j in (1, 2)] == [0.0] * 4
        assert record["I"] == 0.0

    def test_noise_scales_value(self, capsys):
        code, out, _ = run(capsys, ["eval", "--state", "1,1,1,1",
                                    "--noise", "0.25"])
        assert code == 0
        record = json.loads(out)
        assert record["I"] == 1.5
        assert record["noise"] == 0.25

    @pytest.mark.parametrize("argv", [
        ["eval", "--state", "1,1,1,1", "--noise", "1.2"],
        ["eval", "--state", "1,,1"],
        ["eval", "--state", "0,0,0,0"],
        ["eval"],
    ])
    def test_validation_failures(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.strip()


    def test_state_whose_squares_overflow_or_underflow(self, capsys):
        # 1e200^2 overflows and 1e-200^2 underflows; both states normalize
        # to the one that 1,1,0,0 gives.
        records = []
        for state in ("1e200,1e200,1,1", "1e-200,1e-200,0,0", "1,1,0,0"):
            code, out, err = run(capsys, ["eval", "--state", state])
            assert (code, err) == (0, "")
            records.append(json.loads(out))
        assert records[0]["I"] == records[1]["I"] == records[2]["I"] == 0.666666666667
        assert records[1] == records[2]

    def test_all_zero_state_is_degenerate(self, capsys):
        code, out, err = run(capsys, ["eval", "--state", "0,-0,0,0"])
        assert (code, out) == (1, "")
        assert err == "error: cannot normalize the all-zero state\n"

    @pytest.mark.parametrize("argv,message", [
        (["eval", "--state", ",".join(["1"] * 65)], "state coefficients"),
    ])
    def test_rejects_oversized_dimension_before_evaluating(self, capsys,
                                                           monkeypatch, argv,
                                                           message):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluation must not start")

        monkeypatch.setattr(cli, "joint_probabilities", refuse)
        code, _, err = run(capsys, argv)
        assert code == 1
        assert message in err

    def test_angle_file_that_is_not_utf8_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, ["eval", "--state", "1,1,1,1", "--angles", str(path)])
        assert code == 1
        assert out == ""
        assert "is not UTF-8 text" in err

    @pytest.mark.parametrize("state,content", [
        ("1,1,1,1", None),
        ("1,1,1,1", "{"),
        ("1,1,1,1", "[]"),
        ("1,1,1,1", {"d": 4, "A1": [0] * 4, "A2": [0] * 4, "B1": [0] * 4}),
        ("1,1,1,1", {**FLAT_ANGLES, "d": True}),
        ("1,1,1,1", {**FLAT_ANGLES, "d": 1}),
        ("1,1,1,1", {**FLAT_ANGLES, "d": 4.0}),
        ("1,1,1", FLAT_ANGLES),
        ("1,1,1,1", {**FLAT_ANGLES, "A1": [0] * 3}),
        ("1,1,1,1", {**FLAT_ANGLES, "A2": [0, True, 0, 0]}),
        ("1,1,1,1", {**FLAT_ANGLES, "B1": [0, "1", 0, 0]}),
        ("1,a,1", FLAT_ANGLES),
        ("1,1,1,1", json.dumps({**FLAT_ANGLES, "A1": [1, 0, 0, 0]}).replace("[1,", f"[{HUGE_INT},")),
        ("1,1,1,1", json.dumps({**FLAT_ANGLES, "d": 0}).replace("0", HUGE_INT, 1)),
    ], ids=["missing-file", "invalid-json", "json-list", "missing-key", "d-bool",
            "d-one", "d-float", "d-mismatch", "short-entry", "bool-entry",
            "string-entry", "non-numeric-state", "huge-int-entry", "huge-int-d"])
    def test_rejected_angle_file_or_state_is_one_error_line(self, capsys, tmp_path,
                                                            state, content):
        path = tmp_path / "angles.json"
        if content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content),
                            encoding="utf-8")
        code, out, err = run(capsys, ["eval", "--state", state, "--angles", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_angle_too_large_for_a_float_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"d": 2, "A1": [10**400, 0], "A2": [0, 0],
                                    "B1": [0, 0], "B2": [0, 0]}), encoding="utf-8")
        code, out, err = run(capsys, ["eval", "--state", "1,1", "--angles", str(path)])
        assert code == 1
        assert out == ""
        assert err == f"error: angle file {str(path)!r}: A1: phase entries must be real " \
            "numbers: int too large to convert to float\n"

    @pytest.mark.parametrize("state,content,message", [
        ("1,1,1,1", {**FLAT_ANGLES, "d": 1}, "dimension must be an int >= 2, got 1"),
        ("1,1,1,1", {**FLAT_ANGLES, "d": 4.0}, "dimension must be an int >= 2, got 4.0"),
        ("1,1,1", FLAT_ANGLES, "dimension 4 does not match expected 3"),
        ("1,1,1,1", {**FLAT_ANGLES, "A1": [0] * 3}, "A1: expected 4 phases, got 3"),
        ("1,1,1,1", {**FLAT_ANGLES, "A2": [0, True, 0, 0]},
         "A2: phase entries must be real numbers, got True"),
        ("1,1,1,1", {**FLAT_ANGLES, "B1": [0, "1", 0, 0]},
         "B1: phase entries must be real numbers, got '1'"),
        ("1,1,1,1", {**FLAT_ANGLES, "B2": [0, 0, 0, 0, 0]}, "B2: expected 4 phases, got 5"),
    ], ids=["d-one", "d-float", "d-mismatch", "short-entry", "bool-entry", "string-entry",
            "long-entry"])
    def test_model_errors_in_an_angle_file_name_the_file(self, capsys, tmp_path,
                                                         state, content, message):
        path = tmp_path / "angles.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        code, out, err = run(capsys, ["eval", "--state", state, "--angles", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: angle file {str(path)!r}: {message}\n"


class TestLhv:
    def test_four_outcome_bounds(self, capsys):
        code, out, _ = run(capsys, ["lhv", "--d", "4"])
        assert code == 0
        record = json.loads(out)
        assert record["max"] == "2"
        assert record["min"] == "-10/3"
        assert record["argmax"] == [0, 0, 0, 0]
        assert record["argmin"] == [0, 1, 3, 1]
        assert record["strategies_scanned"] == 256

    def test_dimension_guard(self, capsys):
        code, _, err = run(capsys, ["lhv", "--d", "13"])
        assert code == 1
        assert err.strip()


class TestOptimize:
    def test_flat_state_search(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--state", "1,1,1,1",
                                    "--restarts", "4"])
        assert code == 0
        record = json.loads(out)
        assert abs(record["value"] - ME_MAX) < 1e-6
        assert record["converged"] is True
        assert record["direction"] == "max"
        assert len(record["per_restart_values"]) == 4
        assert record["state"] == [1.0, 1.0, 1.0, 1.0]
        assert record["d"] == 4
        assert record["A1"][0] == 0.0
        assert record["per_restart_values"][record["best_restart"]] == record["value"]
        # the eigengaps belong to the joint search alone
        assert "per_restart_eigengaps" not in record

    def test_export_angles_round_trip(self, capsys, tmp_path):
        # The saved record is an angle file: eval reads its d and phase rows.
        path = tmp_path / "angles.json"
        code, out, _ = run(capsys, ["optimize", "--state", "1,1,1,1", "--restarts", "4"])
        assert code == 0
        path.write_text(out, encoding="utf-8")
        record = json.loads(out)
        assert {"A1", "A2", "B1", "B2", "d"} <= set(record)
        assert "angles" not in record
        assert record["d"] == 4

        code, out, _ = run(capsys, ["eval", "--state", "1,1,1,1",
                                    "--angles", str(path)])
        assert code == 0
        assert abs(json.loads(out)["I"] - record["value"]) < 1e-9

    def test_joint_optimum_is_exported_in_the_gauge_b1_zero(self, capsys, tmp_path):
        # The printed angles, at the printed state, give the printed value.
        path = tmp_path / "angles.json"
        code, out, _ = run(capsys, ["optimize", "--free-state", "4"])
        assert code == 0
        path.write_text(out, encoding="utf-8")
        record = json.loads(out)
        assert record["B1"] == [0, 0, 0, 0]
        state = ",".join(repr(c) for c in record["state"])
        code, out, _ = run(capsys, ["eval", "--state", state, "--angles", str(path)])
        assert code == 0
        assert json.loads(out)["I"] == record["value"]

    def test_search_at_a_given_state(self, capsys, tmp_path):
        # At this state `analytic --state` prints Imax 2.2127, which the
        # search does not attain; the printed angles give the printed value.
        path = tmp_path / "angles.json"
        code, out, _ = run(capsys, ["optimize", "--state", "1,0.2,0.9,0.1",
                                    "--restarts", "6"])
        assert code == 0
        path.write_text(out, encoding="utf-8")
        record = json.loads(out)
        assert record["value"] == 1.59439912361
        code, out, _ = run(capsys, ["eval", "--state", "1,0.2,0.9,0.1",
                                    "--angles", str(path)])
        assert code == 0
        assert json.loads(out)["I"] == record["value"]

    def test_search_frees_only_the_columns_the_state_reaches(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--state", "1,0,1,0",
                                    "--restarts", "4", "--direction", "min"])
        assert code == 0
        record = json.loads(out)
        assert record["value"] == -0.942809041582
        for key in ("A1", "A2", "B1", "B2"):
            assert [p for k, p in enumerate(record[key]) if k != 2] == [0.0] * 3

    @pytest.mark.parametrize("argv", [
        ["optimize", "--free-state", "4", "--state", "1,1,1,1"],
        ["optimize", "--free-state"],
        ["optimize"],
    ])
    def test_argument_guards(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("argv,flag", [
        (["optimize", "--state", ",".join(["1"] * 65)], "state coefficients"),
        (["optimize", "--free-state", "65"], "--free-state"),
        (["optimize", "--state", "1,1,1,1", "--restarts", "1001"], "--restarts"),
        (["optimize", "--free-state", "4", "--restarts", "100000"], "--restarts"),
    ])
    def test_rejects_oversized_inputs_before_searching(self, capsys, monkeypatch,
                                                       argv, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("the search must not start")

        monkeypatch.setattr(cli, "optimize_angles", refuse)
        monkeypatch.setattr(cli, "optimize_joint", refuse)
        code, _, err = run(capsys, argv)
        assert code == 1
        assert flag in err

    @pytest.mark.parametrize("argv", [
        ["optimize", "--free-state", "64", "--restarts", "1000"],
        ["optimize", "--free-state", "32", "--restarts", "64"],
        ["optimize", "--state", ",".join(["1"] * 64), "--restarts", "8"],
    ])
    def test_rejects_oversized_work_before_searching(self, capsys, monkeypatch,
                                                     argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the search must not start")

        for name in ("optimize_angles", "optimize_joint"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "--restarts" in err and "budget" in err

    @pytest.mark.parametrize("d,restarts", [
        (4, 1000), (8, 50), (12, 1000), (32, 63), (64, 7),
    ])
    def test_work_budget_admits_documented_runs(self, d, restarts):
        cli._check_work(d, restarts)

    def test_per_restart_counters(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--free-state", "3", "--restarts", "5"])
        assert code == 0
        record = json.loads(out)
        for key in ("per_restart_values", "per_restart_iterations",
                    "per_restart_converged", "per_restart_gradient_norms",
                    "per_restart_rejected", "per_restart_mu"):
            assert len(record[key]) == 5
        assert sum(record["per_restart_iterations"]) == record["iterations_used"]
        for iterations, rejected, mu in zip(record["per_restart_iterations"],
                                            record["per_restart_rejected"],
                                            record["per_restart_mu"]):
            assert isinstance(rejected, int) and 0 <= rejected <= iterations
            assert mu >= 1e-10
        assert all(isinstance(c, bool) for c in record["per_restart_converged"])
        assert record["per_restart_values"][record["best_restart"]] == record["value"]
        assert len(record["per_restart_eigengaps"]) == 5
        for converged, value, gap in zip(record["per_restart_converged"],
                                         record["per_restart_values"],
                                         record["per_restart_eigengaps"]):
            assert not converged or gap > 1e-9 * (1.0 + abs(value))
        evaluations = record["evaluations"]
        assert 0 < evaluations["calls"] <= evaluations["rows"]
        assert evaluations["hessians"] <= (evaluations["rows"]
                                           - sum(record["per_restart_rejected"]))

    def test_minimize_flat_state(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--state", "1,1,1,1", "--restarts", "4",
                                    "--direction", "min"])
        assert code == 0
        record = json.loads(out)
        assert abs(record["value"] + 10.0 / 3.0) < 1e-6
        assert record["direction"] == "min"


class TestAnalytic:
    def test_constant_summary(self, capsys):
        code, out, _ = run(capsys, ["analytic"])
        assert code == 0
        record = json.loads(out)
        assert abs(record["gamma1"] - 0.871041976584) < 1e-12
        assert abs(record["noise_resistance_gain"] - 0.0573930694711) < 1e-12
        assert abs(record["max_entangled"]["value"] - 2.89624321846) < 1e-11
        assert abs(record["optimal_max"]["value"] - 2.9726982671) < 1e-10
        assert abs(record["optimal_min"]["value"] + 3.46423825339) < 1e-11
        assert record["optimal_max"]["state"][0] == pytest.approx(
            1.137145255099279, abs=1e-10)

    def test_state_breakdown(self, capsys):
        code, out, _ = run(capsys, ["analytic", "--state", "1,1,1,1"])
        assert code == 0
        record = json.loads(out)
        assert abs(record["Imax"] - 2.89624321846) < 1e-11
        assert abs(record["Imin"] + 10.0 / 3.0) < 1e-11
        assert record["vertex_max_witness"] == {
            "table": 1, "row": 1, "assignment": [0, 1, 2, 3]}
        assert record["vertex_min_witness"] == {
            "table": 3, "row": 1, "assignment": [0, 1, 2, 3]}
        assert abs(record["Fthr"] - 0.309450260512) < 1e-12
        assert record["sorted_magnitudes"] == [1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("state,ring_sorted", [
        ("1,0.2,0.9,0.1", False),  # Imax 2.21265 exceeds the classical bound 2
        ("1,0.9,0.2,0.1", True),
        ("1,0.8,0.6,0.4", True),
        ("0.6,0.4,1,0.8", True),  # a rotation
        ("0.4,0.6,0.8,1", True),  # a reflection
        ("1,1,0.5,1", True),  # ties count as sorted
    ])
    def test_state_says_whether_it_is_ring_sorted(self, capsys, state, ring_sorted):
        code, out, _ = run(capsys, ["analytic", "--state", state])
        assert code == 0
        assert json.loads(out)["ring_sorted"] is ring_sorted

    def test_rejects_bad_state(self, capsys):
        code, _, err = run(capsys, ["analytic", "--state", "1,1,1"])
        assert code == 1
        assert err.strip()


class TestScan:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, ["scan"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,B1,B2,Imax,S1,S2,Imin,Fthr"
        assert len(lines) == 12  # header + 11 steps
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[0] == "0"
        assert first[3] == "1.74208395317"
        assert last[0] == "1"
        assert last[3] == "2.89624321846"

    def test_csv_lines_end_with_crlf(self, capsys):
        # csv.writer's default terminator, on stdout as in a file.
        code, out, _ = run(capsys, ["scan", "--steps", "3"])
        assert code == 0
        assert out.endswith("\r\n")
        assert out.count("\r\n") == out.count("\n") == 4

    def test_csv_goes_to_stdout_only(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, err = run(capsys, ["scan", "--csv", str(path)])
        assert code == 1
        assert out == ""
        assert f"error: unrecognized arguments: --csv {path}" in err
        assert not path.exists()

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["scan", "--steps", "3", "--json"])
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"rows"}
        assert len(record["rows"]) == 3
        assert record["rows"][0]["r"] == 0.0

    @pytest.mark.parametrize("argv, rows", [
        (["scan", "--from", "0", "--to", "1e308", "--steps", "3"], 3),
        (["scan", "--from=-1e308", "--to", "1e308", "--steps", "2"], 2),
        (["scan", "--json", "--from", "1e300", "--to", "1e308", "--steps", "5"], 5),
    ])
    def test_far_apart_finite_ends(self, capsys, argv, rows):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        if "--json" in argv:
            assert len(json.loads(out)["rows"]) == rows
        else:
            assert len(out.strip().splitlines()) == 1 + rows

    @pytest.mark.parametrize("argv", [
        ["scan", "--steps", "1"],
        ["scan", "--from", "1", "--to", "0"],
    ])
    def test_bad_grid(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_reader_closing_stdout_ends_the_output_quietly(self, flags):
        # Far more output than a pipe buffer holds, so the writer meets
        # the closed pipe, as it does under `| head -1`.
        proc = subprocess.Popen(
            [sys.executable, "-m", "bellmp", "scan", "--steps", "20000", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == ""

    def test_rejects_oversized_steps_before_scanning(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan must not start")

        monkeypatch.setattr(cli, "scan_rows", refuse)
        code, out, err = run(capsys, ["scan", "--steps", "1000000000"])
        assert code == 1
        assert out == ""
        assert "--steps" in err


class TestSample:
    def test_flat_state_estimate(self, capsys):
        code, out, _ = run(capsys, ["sample", "--state", "1,1,1,1",
                                    "--shots", "400"])
        assert code == 0
        record = json.loads(out)
        assert record["estimate"] == 2.0
        assert record["std_error"] > 0.0
        assert record["shots_per_setting"] == 400
        for key in ("11", "12", "21", "22"):
            counts = record["counts"][key]
            assert sum(sum(row) for row in counts) == 400

    def test_seed_reproducibility(self, capsys):
        argv = ["sample", "--state", "1,2,1,1", "--shots", "500",
                "--seed", "42"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        _, other, _ = run(capsys, ["sample", "--state", "1,2,1,1",
                                   "--shots", "500", "--seed", "43"])
        assert other != first

    def test_rejects_zero_shots(self, capsys):
        code, _, err = run(capsys, ["sample", "--state", "1,1,1,1",
                                    "--shots", "0"])
        assert code == 1
        assert err.strip()

    def test_rejects_shots_beyond_int64_counts(self, capsys):
        code, out, err = run(capsys, ["sample", "--state", "1,1,1,1",
                                      "--shots", "10000000000000000000"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "shots" in err

    def test_huge_shot_count_estimates_the_bell_value(self, capsys, tmp_path):
        state = "1,0.7,0.4,0.9"
        angles = tmp_path / "angles.json"
        angles.write_text(json.dumps({
            "d": 4, "A1": [0.0, 0.3, 1.1, 2.0], "A2": [0.0, 1.7, 0.2, 0.9],
            "B1": [0.0, 2.5, 0.6, 1.4], "B2": [0.0, 0.8, 2.9, 0.1],
        }))
        code, out, _ = run(capsys, ["eval", "--state", state, "--angles", str(angles)])
        assert code == 0
        exact = json.loads(out)["I"]
        code, out, _ = run(capsys, ["sample", "--state", state, "--angles", str(angles),
                                    "--shots", "1000000000000"])
        assert code == 0
        record = json.loads(out)
        assert record["shots_per_setting"] == 10**12
        assert abs(record["estimate"] - exact) <= 5.0 * record["std_error"]

    def test_rejects_oversized_dimension_before_sampling(self, capsys,
                                                         monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling must not start")

        monkeypatch.setattr(cli, "sample_experiment", refuse)
        code, _, err = run(capsys, ["sample", "--state", ",".join(["1"] * 65),
                                    "--shots", "10"])
        assert code == 1
        assert "state coefficients" in err


class TestReproduce:
    def test_json_record_passes(self, capsys):
        code, out, _ = run(capsys, ["reproduce", "--json"])
        assert code == 0
        record = json.loads(out)
        assert record["overall_pass"] is True
        assert len(record["rows"]) == 34
        labels = [row["label"] for row in record["rows"]]
        assert len(labels) == len(set(labels))
        assert any("reference angle" in note for note in record["diagnostics"])

    def test_text_mode_reports_pass(self, capsys):
        code, out, _ = run(capsys, ["reproduce"])
        assert code == 0
        assert out.strip().endswith("overall: PASS")

    # The report is one fixed computation; its search options are the
    # defaults of build_reproduction_report.
    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--restarts", "10"]])
    def test_search_options_are_unrecognized(self, capsys, monkeypatch, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("the report must not start")

        monkeypatch.setattr(cli, "build_reproduction_report", refuse)
        code, out, err = run(capsys, ["reproduce", *flag])
        assert code == 1
        assert out == ""
        assert f"error: unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("argv", [
    ["optimize", "--state", "1,1", "--restarts", "2", "--seed", "-1"],
    ["sample", "--state", "1,1", "--shots", "10", "--seed", "-1"],
])
def test_negative_seed_is_a_validation_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "seed" in err
    assert "Traceback" not in err


class TestTopLevel:
    def test_no_arguments(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "eval" in out and "reproduce" in out

    @pytest.mark.parametrize("argv", [
        ["eval", "--state", "1,1,1,1"],
        ["lhv", "--d", "4"],
        ["optimize", "--state", "1,1,1,1"],
        ["sample", "--state", "1,1,1,1", "--shots", "10"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_variant_flag_is_rejected_before_any_work(self, capsys, monkeypatch, argv,
                                                      variant):
        # Every subcommand evaluates the paper's kernel; there is no flag
        # to choose another.
        def refuse(*args, **kwargs):
            raise AssertionError("no command may run")

        for name in ("cmd_eval", "cmd_lhv", "cmd_optimize", "cmd_sample"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run(capsys, [*argv, "--variant", variant])
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --variant" in err

    @pytest.mark.parametrize("argv,message", [
        (["eval", "--state", "1,1,1,1", "--d", "4"], "unrecognized arguments: --d 4"),
        (["sample", "--state", "1,1,1,1", "--d", "4", "--shots", "10"],
         "unrecognized arguments: --d 4"),
        (["optimize", "--state", "1,1,1,1", "--d", "4"], "unrecognized arguments: --d 4"),
    ], ids=["eval", "sample", "optimize"])
    def test_dimension_comes_from_the_state_or_from_d_alone(self, capsys, monkeypatch,
                                                            argv, message):
        # A state fixes its own dimension, so --d beside it is refused.
        def refuse(*args, **kwargs):
            raise AssertionError("no command may run")

        for name in ("cmd_eval", "cmd_optimize", "cmd_sample"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("argv,message", [
        (["optimize", "--state", "1,1,1,1", "--rest", "2"], "unrecognized arguments: --rest 2"),
        (["optimize", "--free", "4"], "one of the arguments --state --free-state is required"),
        (["sample", "--state", "1,1,1,1", "--sh", "10"],
         "the following arguments are required: --shots"),
        (["optimize", "--state", "1,1,1,1", "--d", "min"], "unrecognized arguments: --d min"),
        (["optimize", "--state", "1,1,1,1", "--export-angles", "f.json"],
         "unrecognized arguments: --export-angles f.json"),
    ], ids=["rest", "free", "sh", "d-min", "export-angles"])
    def test_flags_are_spelled_in_full_and_removed_ones_are_refused(
            self, capsys, monkeypatch, tmp_path, argv, message):
        # No prefix of a flag stands for it, and optimize writes no file.
        def refuse(*args, **kwargs):
            raise AssertionError("no search may start")

        for name in ("optimize_angles", "optimize_joint", "sample_experiment"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert f"error: {message}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["eval", "--state", "1,1,1,1"],
                                      ["scan", "--steps", "3"]])
    def test_failing_output_is_an_error_without_traceback(self, argv):
        # stdout is full: a JSON and a CSV command
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bellmp", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write output: No space left on device\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bellmp", "eval", "--state", "1,1,1,1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["I"] == 2.0
