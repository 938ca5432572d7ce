"""Reproduction report and parameter-scan helpers for the CLI.

The reproduction report recomputes every headline quantity through an
independent path (radical closed forms, exact enumeration, or the
numeric optimizer) and compares each against its expected value.  A
row's tolerance follows from what it compares: zero for an exact
rational, half a unit of the last digit for a decimal the paper prints,
1e-12 for a value from another route and 1e-7 for an optimized state.
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


# Two of the program's routes agree to round-off: the searches stop at a
# gradient of 1e-9, which moves a value at second order.  A state moves
# at first order, by 1e-9 over the smallest search-coordinate Hessian
# eigenvalue, which is at least 0.03 at the measured optima.
_VALUE_TOLERANCE = 1e-12
_STATE_TOLERANCE = 1e-7


def _row(label: str, expected: Fraction | str | float, computed: Fraction | float,
         provenance: str) -> ReproductionRow:
    """A row whose tolerance follows from what it compares: an exact
    Fraction (tolerance 0), a decimal the paper prints, given as its text
    (half a unit of its last digit), or a value from another route."""
    if isinstance(expected, Fraction):
        tolerance, rule = 0.0, "exact"
    elif isinstance(expected, str):
        digits = len(expected.partition(".")[2])
        tolerance = 5 / 10 ** (digits + 1)
        rule = f"paper prints {expected}, half a unit of its last digit"
        expected = float(expected)
    else:
        tolerance, rule = _VALUE_TOLERANCE, "value, second order in the gradient test"
    passed = abs(computed - expected) <= tolerance
    return ReproductionRow(label, float(expected), float(computed), tolerance,
                           passed, f"{provenance}; {rule}")


def _side(name: str, config: OptimizerConfig, closed_form: tuple[PureState, float],
          printed: tuple[str, str, str]) -> tuple[list[ReproductionRow], float]:
    """The rows of one global extremum: its radical coefficients and
    value against the paper's decimals, and the d = 4 joint search
    against both.  Also returns the searched value."""
    state, value = closed_form
    high, low = state.coefficients[0], state.coefficients[2]
    found = optimize_joint(_D4, config).best
    search = f"eigenvalue-reduced phase search, {config.restarts} restarts"
    deviation = max(abs(got - want) for got, want
                    in zip(sorted_magnitudes(found.state), (high, high, low, low)))
    rows = [
        _row(f"optimal {name} coefficient, high", printed[0], high, "closed-form radical"),
        _row(f"optimal {name} coefficient, low", printed[1], low, "closed-form radical"),
        _row(f"global {name}, closed form", printed[2], value, "radical closed form"),
        _row(f"global {name}, joint optimizer", printed[2], found.value, search),
        _row(f"global {name}, joint optimizer vs closed form", value, found.value,
             "joint optimizer against the radical closed form"),
        ReproductionRow(f"joint {name} state vs radical coefficients", 0.0, deviation,
                        _STATE_TOLERANCE, deviation <= _STATE_TOLERANCE,
                        "optimizer state against radicals; "
                        "state, first order in the gradient test"),
    ]
    return rows, found.value


def build_reproduction_report(restarts: int = 50, seed: int = 7) -> ReproductionReport:
    """Recompute the headline numbers and compare each at the tolerance
    its kind of comparison gives (see _row).

    restarts/seed feed the optimizer-backed rows; bellmp reproduce runs
    the defaults.  With them each d = 4 joint search takes about 11 ms
    and the whole report about 0.04-0.05 s (best of 7 calls in-process,
    shared 2-vCPU host, Python 3.11, numpy 2.4.6).  Both are checked
    before any row is computed.
    """
    # Built first, so a bad restarts or seed is rejected before any work.
    maximize = OptimizerConfig(restarts=restarts, seed=seed, direction=Direction.MAXIMIZE)
    minimize = OptimizerConfig(restarts=restarts, seed=seed, direction=Direction.MINIMIZE)
    g = gamma_constants()
    rows: list[ReproductionRow] = []

    rows.append(_row("Gamma1 radical", "0.87104", g.gamma1, "radical constant"))
    rows.append(_row("Gamma2 radical", "0.4714", g.gamma2, "radical constant"))
    rows.append(_row("Gamma3 radical", "0.36080", g.gamma3, "radical constant"))

    for d in range(2, 7):
        # The maximum is CGLMP's local bound 2 at every d.
        expected_min = Fraction(-2) if d == 2 else Fraction(-2 * (d + 1), d - 1)
        report = lhv_bounds(Dimension(d))
        source = f"exhaustive {d ** 4}-strategy enumeration"
        rows.append(_row(f"LHV max d={d}", Fraction(2), report.max_value, source))
        rows.append(_row(f"LHV min d={d}", expected_min, report.min_value, source))

    me = maximally_entangled_state(_D4)
    me_max = optimize_angles(me, maximize).best.value
    rows.append(_row("max at maximally entangled", "2.89624", me_max,
                     f"multi-start phase search, {restarts} restarts"))
    rows.append(_row("max at maximally entangled vs closed form", max_entangled_value(),
                     me_max, "optimizer against Gamma1 + 2 Gamma2 + 3 Gamma3"))
    rows.append(_row("noise threshold, maximally entangled", "0.30945",
                     threshold_noise(me_max), "1 - 2/I at the optimized value"))

    rows.append(_row("min at maximally entangled", -10.0 / 3.0,
                     optimize_angles(me, minimize).best.value,
                     f"multi-start phase search, {restarts} restarts"))

    max_rows, joint_max = _side("max", maximize, optimal_max_state(),
                                ("1.13715", "0.84077", "2.9727"))
    rows.extend(max_rows)
    rows.append(_row("noise threshold, optimal state", "0.3272",
                     threshold_noise(joint_max), "1 - 2/I at the joint optimum"))
    rows.append(_row("relative noise-resistance gain", "0.057",
                     noise_resistance_gain(joint_max, me_max),
                     "thresholds of the two optima"))

    min_rows, _ = _side("min", minimize, optimal_min_state(),
                        ("1.19038", "0.76354", "-3.46424"))
    rows.extend(min_rows)

    t01, _ = max_abs_t_coefficient((0, 1), restarts=max(4, restarts // 8), seed=seed)
    t02, _ = max_abs_t_coefficient((0, 2), restarts=max(4, restarts // 8), seed=seed)
    rows.append(_row("max |T01| vs Gamma1", g.gamma1, t01,
                     "angle search at the state e_k + e_l"))
    rows.append(_row("max |T02| vs Gamma2", g.gamma2, t02,
                     "angle search at the state e_k + e_l"))

    run_d2 = optimize_joint(Dimension(2), OptimizerConfig(
        restarts=max(4, restarts // 4), seed=seed, direction=Direction.MAXIMIZE))
    rows.append(_row("d=2 joint max (CHSH reduction)", 2.0 * math.sqrt(2.0),
                     run_d2.best.value, "joint optimizer at d=2"))

    diagnostics = _diagnostics(joint_max, me_max)
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
