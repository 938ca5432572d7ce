"""Reproduction report and parameter scans."""

import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from bellmp import (
    SCAN_COLUMNS,
    Dimension,
    OptimizerConfig,
    ValidationError,
    gamma_constants,
    maximally_entangled_state,
    optimize_angles,
    optimize_joint,
)
from bellmp import report as report_module
from bellmp.report import ScanSpec, build_reproduction_report, scan_rows

ME_MAX = 2.896243218458708
IMAX = 2.972698267102243
AP = 1.137145255099279
AM = 0.8407738511664092


# The report bellmp reproduce prints (50 restarts, seed 7), shared by
# the checks below; it takes about 0.05 s.
@pytest.fixture(scope="module")
def report():
    return build_reproduction_report()


def _rule_tolerance(row):
    # The tolerance that the rule the row's provenance names gives.
    if row.provenance.endswith("; exact"):
        return 0.0
    if row.provenance.endswith("; value, second order in the gradient test"):
        return 1e-12
    if row.provenance.endswith("; state, first order in the gradient test"):
        return 1e-7
    printed, = re.findall(r"; paper prints (\S+), half a unit of its last digit$",
                          row.provenance)
    assert float(printed) == row.expected
    return 0.5 * 10.0 ** -len(printed.split(".")[1])


class TestReproductionReport:
    def test_overall_pass(self, report):
        assert report.overall_pass
        assert report.overall_pass == all(row.passed for row in report.rows)

    def test_labels_unique(self, report):
        labels = [row.label for row in report.rows]
        assert len(labels) == len(set(labels))

    def test_each_tolerance_is_the_one_its_rule_gives(self, report):
        assert len(report.rows) == 34
        for row in report.rows:
            assert row.tolerance == pytest.approx(_rule_tolerance(row), rel=1e-15), row.label
        rules = [re.match(r"\w+", row.provenance.rpartition("; ")[2])[0]
                 for row in report.rows]
        assert Counter(rules) == {"exact": 10, "paper": 15, "value": 7, "state": 2}

    def test_each_joint_search_is_checked_against_its_closed_form(self, report):
        labels = [row.label for row in report.rows]
        rows = {row.label: row for row in report.rows}
        for side in ("max", "min"):
            found = labels.index(f"global {side}, joint optimizer")
            assert labels[found + 1] == f"global {side}, joint optimizer vs closed form"
            against = rows[labels[found + 1]]
            assert against.expected == rows[f"global {side}, closed form"].computed
            assert against.computed == rows[labels[found]].computed

    @pytest.mark.parametrize("seed", range(10))
    def test_default_restarts_pass_at_every_seed(self, seed):
        assert build_reproduction_report(50, seed).overall_pass

    def test_enumerated_rows_are_exact(self, report):
        exact = {row.label: row for row in report.rows if row.tolerance == 0}
        for d, minimum in ((2, -2.0), (3, -4.0), (4, -10.0 / 3.0), (5, -3.0), (6, -2.8)):
            assert exact[f"LHV max d={d}"].computed == 2.0
            assert abs(exact[f"LHV min d={d}"].computed - minimum) < 1e-15

    def test_rows_carry_provenance(self, report):
        assert all(row.provenance for row in report.rows)

    def test_diagnostics_mention_reference_angles(self, report):
        assert any("reference angle" in note for note in report.diagnostics)

    def test_reference_note_quotes_the_measured_optima(self, report):
        # The note quotes the report's own joint and flat-state maxima
        # (restarts 50, seed 7), not fixed decimals.
        joint = optimize_joint(Dimension(4), OptimizerConfig(restarts=50, seed=7))
        flat = optimize_angles(maximally_entangled_state(Dimension(4)),
                               OptimizerConfig(restarts=50, seed=7))
        note, = (note for note in report.diagnostics if "reference angle" in note)
        assert f"the optimizer reaches {joint.best.value:.6f} and {flat.best.value:.6f}" in note

    @pytest.mark.parametrize("kwargs,message", [
        ({"restarts": 0}, "restarts must be an int >= 1, got 0"),
        ({"seed": -1}, "seed must be an int >= 0, got -1"),
    ])
    def test_bad_optimizer_input_is_rejected_before_any_row(self, monkeypatch, kwargs,
                                                            message):
        def no_work(*_, **__):
            raise AssertionError("the report started its rows")

        monkeypatch.setattr(report_module, "gamma_constants", no_work)
        monkeypatch.setattr(report_module, "lhv_bounds", no_work)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build_reproduction_report(**kwargs)


class TestScanSpec:
    def test_accepts_plain_range(self):
        ScanSpec(r_from=0.0, r_to=1.0, steps=5)

    @pytest.mark.parametrize("kwargs", [
        {"r_from": 0.0, "r_to": 1.0, "steps": 1},
        {"r_from": 1.0, "r_to": 1.0, "steps": 3},
        {"r_from": 1.0, "r_to": 0.0, "steps": 3},
        {"r_from": float("nan"), "r_to": 1.0, "steps": 3},
        {"r_from": "a", "r_to": 1.0, "steps": 3},
        {"r_from": 0.0, "r_to": None, "steps": 3},
        {"r_from": 0.0, "r_to": 10**400, "steps": 3},
        {"r_from": 0.0, "r_to": 1.0, "steps": 3.0},
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValidationError):
            ScanSpec(**kwargs)

    @pytest.mark.parametrize("steps", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_int_steps_are_stored_as_an_int(self, steps):
        # One integer rule, model._as_int, for every integer input.
        spec = ScanSpec(0.0, 1.0, steps)
        assert type(spec.steps) is int
        assert spec == ScanSpec(0.0, 1.0, 5)


class TestScanRows:
    def test_grid_and_columns(self):
        rows = scan_rows(ScanSpec(r_from=0.0, r_to=1.0, steps=3))
        assert [row["r"] for row in rows] == [0.0, 0.5, 1.0]
        for row in rows:
            assert tuple(row.keys()) == SCAN_COLUMNS

    def test_endpoints(self):
        rows = scan_rows(ScanSpec(r_from=0.0, r_to=1.0, steps=3))
        g = gamma_constants()
        # r=0 collapses the state onto two equal coefficients, where
        # the first branch degenerates to 2 Gamma1
        assert abs(rows[0]["Imax"] - 2.0 * g.gamma1) < 1e-12
        assert abs(rows[2]["Imax"] - ME_MAX) < 1e-12
        assert abs(rows[2]["S1"] + 3.195137571237352) < 1e-12
        assert abs(rows[2]["Imin"] + 10.0 / 3.0) < 1e-12
        assert abs(rows[2]["Fthr"] - (1.0 - 2.0 / ME_MAX)) < 1e-12

    def test_default_grid_is_index_over_ten(self):
        rows = scan_rows(ScanSpec(r_from=0.0, r_to=1.0, steps=11))
        assert [row["r"] for row in rows] == [index / 10 for index in range(11)]

    # Ends whose difference r_to - r_from overflows to inf.
    @pytest.mark.parametrize("r_from, r_to, steps",
                             [(0.0, 1e308, 3), (-1e308, 1e308, 2), (1e300, 1e308, 5)])
    def test_far_apart_finite_ends_give_a_finite_grid(self, r_from, r_to, steps):
        grid = [row["r"] for row in scan_rows(ScanSpec(r_from, r_to, steps))]
        assert len(grid) == steps
        assert grid[0] == r_from and grid[-1] == r_to
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_grid_stays_within_its_ends(self):
        # Unclamped, r_from (1 - t) + r_to t rounds one ulp below r_from
        # at index 1 of this grid.
        r_to = sys.float_info.max
        r_from = math.nextafter(r_to, 0.0)
        grid = [row["r"] for row in scan_rows(ScanSpec(r_from, r_to, 10))]
        assert grid[0] == r_from and grid[-1] == r_to
        assert all(r_from <= r <= r_to for r in grid)

    def test_branch_consistency(self):
        for row in scan_rows(ScanSpec(r_from=0.1, r_to=0.9, steps=9)):
            assert row["Imax"] == max(row["B1"], row["B2"])
            assert row["Imax"] >= row["B2"]
            assert row["Imin"] <= row["S1"] + 1e-15
            assert row["Imin"] <= row["S2"] + 1e-15

    def test_optimal_ratio_recovers_global_maximum(self):
        rows = scan_rows(ScanSpec(r_from=AM / AP, r_to=1.0, steps=2))
        assert abs(rows[0]["Imax"] - IMAX) < 1e-12
