"""Reproduction report and parameter-scan helpers for the CLI.

The reproduction report recomputes every headline quantity through an
independent path (radical closed forms, exact enumeration, or the
numeric optimizer) and compares each against its expected decimal at a
stated tolerance.  Exact rational rows carry tolerance zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Dimension,
    PureState,
    make_state,
    maximally_entangled_state,
    ValidationError,
    _as_float_tuple,
    _as_int,
)
from .analytic import (
    branch_values_max,
    branch_values_min,
    gamma_constants,
    max_entangled_value,
    noise_resistance_gain,
    optimal_max_state,
    optimal_min_state,
    reference_optimal_angles,
    sorted_magnitudes,
    threshold_noise,
)
from .engine import bell_value
from .lhv import lhv_bounds
from .optimize import (
    Direction,
    OptimizerConfig,
    max_abs_t_coefficient,
    optimize_angles,
    optimize_joint,
)

__all__ = [
    "ReproductionRow",
    "ReproductionReport",
    "build_reproduction_report",
    "ScanSpec",
    "SCAN_COLUMNS",
    "branch_record",
    "scan_rows",
]

_D4 = Dimension(4)


@dataclass(frozen=True)
class ReproductionRow:
    label: str
    expected: float
    computed: float
    tolerance: float
    passed: bool
    provenance: str


@dataclass(frozen=True)
class ReproductionReport:
    rows: tuple[ReproductionRow, ...]
    diagnostics: tuple[str, ...]

    @property
    def overall_pass(self) -> bool:
        return all(row.passed for row in self.rows)


def _row(label: str, expected: float, computed: float, tolerance: float,
         provenance: str) -> ReproductionRow:
    passed = abs(computed - expected) <= tolerance
    return ReproductionRow(label, float(expected), float(computed), tolerance,
                           passed, provenance)


def build_reproduction_report(restarts: int = 50, seed: int = 7) -> ReproductionReport:
    """Recompute the headline numbers and compare at fixed tolerances.

    restarts/seed feed the optimizer-backed rows; the defaults match
    the documented engineering defaults.  With them each d = 4 joint
    search takes about 11 ms and the whole report about 0.04-0.05 s
    (best of 7 calls in-process, shared 2-vCPU host, Python 3.11,
    numpy 2.4.6).  Both are checked before any row is computed.
    """
    # Built first, so a bad restarts or seed is rejected before any work.
    maximize = OptimizerConfig(restarts=restarts, seed=seed, direction=Direction.MAXIMIZE)
    minimize = OptimizerConfig(restarts=restarts, seed=seed, direction=Direction.MINIMIZE)
    g = gamma_constants()
    rows: list[ReproductionRow] = []

    rows.append(_row("Gamma1 radical", 0.87104, g.gamma1, 1e-5, "radical constant"))
    rows.append(_row("Gamma2 radical", 0.4714, g.gamma2, 1e-4, "radical constant"))
    rows.append(_row("Gamma3 radical", 0.36080, g.gamma3, 1e-4, "radical constant"))

    for d in range(2, 7):
        # The maximum is CGLMP's local bound 2 at every d.
        expected_min = Fraction(-2) if d == 2 else Fraction(-2 * (d + 1), d - 1)
        report = lhv_bounds(Dimension(d))
        source = f"exhaustive {d ** 4}-strategy enumeration"
        rows.append(_row(f"LHV max d={d}", Fraction(2), report.max_value, 0.0, source))
        rows.append(_row(f"LHV min d={d}", expected_min, report.min_value, 0.0, source))

    me = maximally_entangled_state(_D4)
    run_max_me = optimize_angles(me, maximize)
    rows.append(_row("max at maximally entangled", 2.89624,
                     run_max_me.best.value, 1e-4,
                     f"multi-start phase search, {restarts} restarts"))
    rows.append(_row("max at maximally entangled vs closed form", max_entangled_value(),
                     run_max_me.best.value, 1e-10,
                     "optimizer against Gamma1 + 2 Gamma2 + 3 Gamma3"))
    rows.append(_row("noise threshold, maximally entangled", 0.30945,
                     threshold_noise(run_max_me.best.value), 1e-4,
                     "1 - 2/I at the optimized value"))

    run_min_me = optimize_angles(me, minimize)
    rows.append(_row("min at maximally entangled", -10.0 / 3.0,
                     run_min_me.best.value, 1e-6,
                     f"multi-start phase search, {restarts} restarts"))

    opt_state, opt_value = optimal_max_state()
    ap, am = opt_state.coefficients[0], opt_state.coefficients[2]
    rows.append(_row("optimal max coefficient, high", 1.13715, ap, 1e-5,
                     "closed-form radical"))
    rows.append(_row("optimal max coefficient, low", 0.84077, am, 1e-5,
                     "closed-form radical"))
    rows.append(_row("global max, closed form", 2.9727, opt_value, 1e-4,
                     "radical closed form"))

    run_joint_max = optimize_joint(_D4, maximize)
    rows.append(_row("global max, joint optimizer", 2.9727,
                     run_joint_max.best.value, 1e-3,
                     f"eigenvalue-reduced phase search, {restarts} restarts"))
    deviation = max(abs(found - want) for found, want
                    in zip(sorted_magnitudes(run_joint_max.best.state), (ap, ap, am, am)))
    rows.append(_row("joint max state vs radical coefficients", 0.0,
                     deviation, 1e-3, "optimizer state against radicals"))
    rows.append(_row("noise threshold, optimal state", 0.3272,
                     threshold_noise(run_joint_max.best.value), 1e-3,
                     "1 - 2/I at the joint optimum"))
    rows.append(_row("relative noise-resistance gain", 0.057,
                     noise_resistance_gain(run_joint_max.best.value,
                                           run_max_me.best.value), 0.01,
                     "thresholds of the two optima"))

    kopt_state, kopt_value = optimal_min_state()
    kp, km = kopt_state.coefficients[0], kopt_state.coefficients[2]
    rows.append(_row("optimal min coefficient, high", 1.19038, kp, 1e-5,
                     "closed-form radical"))
    rows.append(_row("optimal min coefficient, low", 0.76354, km, 1e-5,
                     "closed-form radical"))
    rows.append(_row("global min, closed form", -3.46424, kopt_value, 1e-4,
                     "radical closed form"))

    run_joint_min = optimize_joint(_D4, minimize)
    rows.append(_row("global min, joint optimizer", -3.46424,
                     run_joint_min.best.value, 1e-3,
                     f"eigenvalue-reduced phase search, {restarts} restarts"))
    deviation = max(abs(found - want) for found, want
                    in zip(sorted_magnitudes(run_joint_min.best.state), (kp, kp, km, km)))
    rows.append(_row("joint min state vs radical coefficients", 0.0,
                     deviation, 1e-3, "optimizer state against radicals"))

    t01, _ = max_abs_t_coefficient((0, 1), restarts=max(4, restarts // 8), seed=seed)
    t02, _ = max_abs_t_coefficient((0, 2), restarts=max(4, restarts // 8), seed=seed)
    rows.append(_row("max |T01| vs Gamma1", g.gamma1, t01, 1e-6,
                     "angle search at the state e_k + e_l"))
    rows.append(_row("max |T02| vs Gamma2", g.gamma2, t02, 1e-6,
                     "angle search at the state e_k + e_l"))

    run_d2 = optimize_joint(Dimension(2), OptimizerConfig(
        restarts=max(4, restarts // 4), seed=seed, direction=Direction.MAXIMIZE))
    rows.append(_row("d=2 joint max (CHSH reduction)", 2.0 * math.sqrt(2.0),
                     run_d2.best.value, 1e-6,
                     "joint optimizer at d=2"))

    diagnostics = _diagnostics(run_joint_max.best.value, run_max_me.best.value)
    return ReproductionReport(tuple(rows), diagnostics)


def _diagnostics(joint_max: float, me_max: float) -> tuple[str, ...]:
    ref = reference_optimal_angles()
    opt_state, _ = optimal_max_state()
    v_opt = bell_value(opt_state, ref)
    v_me = bell_value(maximally_entangled_state(_D4), ref)
    return (
        "non-gating: the fixed reference angle table evaluates to "
        f"{v_opt:.6f} at the optimal max state and {v_me:.6f} at the "
        f"maximally entangled state; the optimizer reaches {joint_max:.6f} "
        f"and {me_max:.6f} there, so the table's phase convention does not "
        "match this probability model and it is recorded for reference only",
    )


SCAN_COLUMNS = ("r", "B1", "B2", "Imax", "S1", "S2", "Imin", "Fthr")


@dataclass(frozen=True)
class ScanSpec:
    """Grid over the two-parameter state family a = normalize(1, 1, r, r).

    The grid is evenly stepped from r_from to r_to, endpoints
    included; both are real numbers (model._as_float_tuple), stored as
    plain floats.  This family contains the maximally entangled state
    (r = 1) and both closed-form optima.
    """

    r_from: float
    r_to: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", _as_int(self.steps, "steps", 2))
        r_from, r_to = _as_float_tuple((self.r_from, self.r_to), "scan range ends")
        object.__setattr__(self, "r_from", r_from)
        object.__setattr__(self, "r_to", r_to)
        if not r_from < r_to:
            raise ValidationError(f"r_from must be < r_to, got {r_from!r} >= {r_to!r}")


def branch_record(state: PureState) -> dict:
    """The paper's branch values B1, B2, Imax, S1, S2 and Imin of a d = 4
    state (formulas for ring-sorted states, as every (1, 1, r, r) is),
    and the threshold noise Fthr where Imax is positive."""
    bmax = branch_values_max(state)
    bmin = branch_values_min(state)
    record = {"B1": bmax.b1, "B2": bmax.b2, "Imax": bmax.max,
              "S1": bmin.s1, "S2": bmin.s2, "Imin": bmin.min}
    if bmax.max > 0.0:
        record["Fthr"] = threshold_noise(bmax.max)
    return record


def scan_rows(spec: ScanSpec) -> list[dict]:
    """One row per grid point with the closed-form branch values.  Imax
    is positive on the whole family, so every row has Fthr.  Each r,
    r_from (1 - t) + r_to t kept within the ends, is finite."""
    rows = []
    for index in range(spec.steps):
        t = index / (spec.steps - 1)
        r = min(max(spec.r_from * (1.0 - t) + spec.r_to * t, spec.r_from), spec.r_to)
        rows.append({"r": r, **branch_record(make_state(_D4, (1.0, 1.0, r, r)))})
    return rows
