"""Closed-form extremal machinery for the d = 4 expression.

The Bell value of a d = 4 state with coefficients a and phase settings
decomposes as I = sum_{k<l} a_k a_l T_kl, where the six T coefficients
depend only on the phases.  Over all settings each T vector is confined
to a polyhedron whose vertices carry coordinates from the radical
constants Gamma_1 > Gamma_2 > Gamma_3 (and the rational pair 2/3, 1/3).
This module holds those constants, the 24 tabulated vertex patterns,
the two-branch closed forms for the state-dependent extrema, the
optimal state families, and noise thresholds.  Everything here is exact
arithmetic on radicals evaluated in double precision; the numeric
optimizer lives elsewhere and serves as the independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .model import (
    Dimension,
    MeasurementSettings,
    PhaseVector,
    PureState,
    ValidationError,
    make_state,
)

__all__ = [
    "GammaConstants",
    "gamma_constants",
    "VertexPattern",
    "vertex_patterns",
    "SortedMagnitudes",
    "sorted_magnitudes",
    "BranchMax",
    "BranchMin",
    "branch_values_max",
    "branch_values_min",
    "VertexWitness",
    "VertexExtrema",
    "vertex_candidates",
    "optimal_max_state",
    "optimal_min_state",
    "threshold_noise",
    "reference_optimal_angles",
    "ExtremalResult",
    "analytic_max",
    "analytic_min",
    "PAIR_SLOTS",
    "SLOT_LABELS",
]

# Canonical order of the six index pairs (k, l), k < l, and their
# slot labels.  Every six-entry tuple in this module follows it.
PAIR_SLOTS: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)
SLOT_LABELS: tuple[str, ...] = ("ab", "ac", "ad", "bc", "bd", "cd")

_D4 = Dimension(4)


@dataclass(frozen=True)
class GammaConstants:
    """The three radical magnitudes bounding the T coefficients."""

    gamma1: float
    gamma2: float
    gamma3: float


@lru_cache(maxsize=1)
def gamma_constants() -> GammaConstants:
    """Gamma_1 = sqrt(10 - sqrt2)(2 + 3 sqrt2)/21, Gamma_2 = sqrt2/3,
    Gamma_3 = sqrt(10 - sqrt2)(4 - sqrt2)/21, evaluated at runtime."""
    root2 = math.sqrt(2.0)
    base = math.sqrt(10.0 - root2)
    return GammaConstants(
        gamma1=base * (2.0 + 3.0 * root2) / 21.0,
        gamma2=root2 / 3.0,
        gamma3=base * (4.0 - root2) / 21.0,
    )


@dataclass(frozen=True)
class VertexPattern:
    """One tabulated vertex of the T polyhedron.

    ``signs`` lists the six coordinates in PAIR_SLOTS order; each is a
    signed Gamma constant (tables 1 and 2) or signed 2/3 / 1/3
    (table 3).
    """

    table_id: int
    row: int
    signs: tuple[float, ...]

    def sign(self, label: str) -> float:
        return self.signs[SLOT_LABELS.index(label)]


# Vertex coordinates as sign/magnitude tokens, row by row.  G1, G2, G3
# are the Gamma constants; A, B are the rational magnitudes 2/3, 1/3.
_TABLE_TOKENS: tuple[tuple[int, tuple[str, ...]], ...] = (
    (1, (
        "+G1 +G2 +G3 +G3 +G2 +G3",
        "-G1 -G2 -G3 +G3 +G2 +G3",
        "-G1 +G2 +G3 -G3 -G2 +G3",
        "+G1 -G2 +G3 -G3 +G2 -G3",
        "+G1 +G2 -G3 +G3 -G2 -G3",
        "+G1 -G2 -G3 -G3 -G2 +G3",
        "-G1 +G2 -G3 -G3 +G2 -G3",
        "-G1 -G2 +G3 +G3 -G2 -G3",
    )),
    (2, (
        "-G1 -G2 -G1 -G1 -G2 +G3",
        "+G1 +G2 +G1 -G1 -G2 +G3",
        "+G1 -G2 -G1 +G1 +G2 +G3",
        "-G1 +G2 -G1 -G1 -G2 -G3",
        "-G1 -G2 +G1 -G1 +G2 -G3",
        "-G1 +G2 +G1 +G1 +G2 +G3",
        "+G1 -G2 +G1 +G1 -G2 -G3",
        "+G1 +G2 -G1 -G1 +G2 -G3",
    )),
    (3, (
        "-A -B -A -A -B -A",
        "+A +B +A -A -B -A",
        "+A -B -A +A +B -A",
        "-A +B -A +A -B +A",
        "-A -B +A -A +B +A",
        "-A +B +A +A +B -A",
        "+A -B +A +A -B +A",
        "+A +B -A -A +B +A",
    )),
)


@lru_cache(maxsize=1)
def vertex_patterns() -> tuple[VertexPattern, ...]:
    """All 24 tabulated vertex patterns, in (table_id, row) order."""
    g = gamma_constants()
    magnitude = {
        "G1": g.gamma1, "G2": g.gamma2, "G3": g.gamma3,
        "A": 2.0 / 3.0, "B": 1.0 / 3.0,
    }
    patterns = []
    for table_id, rows in _TABLE_TOKENS:
        for row_index, row in enumerate(rows, start=1):
            values = []
            for token in row.split():
                sign = 1.0 if token[0] == "+" else -1.0
                values.append(sign * magnitude[token[1:]])
            patterns.append(VertexPattern(table_id, row_index, tuple(values)))
    return tuple(patterns)


@dataclass(frozen=True)
class SortedMagnitudes:
    """Coefficient magnitudes in decreasing order.

    ``perm[i]`` is the sorted slot occupied by original index i; ties
    keep original index order.
    """

    A: tuple[float, float, float, float]
    perm: tuple[int, int, int, int]


def sorted_magnitudes(state: PureState) -> SortedMagnitudes:
    if state.dim.d != 4:
        raise ValidationError(f"expected dimension 4, got {state.dim.d}")
    mags = [abs(c) for c in state.coefficients]
    order = sorted(range(4), key=lambda k: (-mags[k], k))
    perm = [0, 0, 0, 0]
    for slot, original in enumerate(order):
        perm[original] = slot
    a0, a1, a2, a3 = (mags[k] for k in order)
    return SortedMagnitudes((a0, a1, a2, a3), tuple(perm))


class BranchMax(NamedTuple):
    b1: float
    b2: float
    max: float


class BranchMin(NamedTuple):
    s1: float
    s2: float
    min: float


def branch_values_max(state: PureState) -> BranchMax:
    """The two closed-form maximum branches and their larger value."""
    a0, a1, a2, a3 = sorted_magnitudes(state).A
    g = gamma_constants()
    b1 = a0 * a1 * g.gamma1 + (a0 * a2 + a1 * a3) * g.gamma2 \
        + (a0 * a3 + a1 * a2 + a2 * a3) * g.gamma3
    b2 = a0 * a1 * g.gamma3 + (a0 * a2 + a1 * a3) * g.gamma2 \
        + (a0 * a3 + a1 * a2 - a2 * a3) * g.gamma1
    return BranchMax(b1, b2, max(b1, b2))


def branch_values_min(state: PureState) -> BranchMin:
    """The two closed-form minimum branches and their smaller value."""
    a0, a1, a2, a3 = sorted_magnitudes(state).A
    g = gamma_constants()
    s1 = -(a0 * a1 + a0 * a3 + a1 * a2) * g.gamma1 \
        - (a0 * a2 + a1 * a3) * g.gamma2 + a2 * a3 * g.gamma3
    s2 = -2.0 * (a0 * a1 + a0 * a3 + a1 * a2 + a2 * a3) / 3.0 \
        - (a0 * a2 + a1 * a3) / 3.0
    return BranchMin(s1, s2, min(s1, s2))


class VertexWitness(NamedTuple):
    pattern: VertexPattern
    assignment: tuple[int, int, int, int]


class VertexExtrema(NamedTuple):
    max: float
    min: float
    witnesses: tuple[VertexWitness, VertexWitness]


def vertex_candidates(state: PureState) -> VertexExtrema:
    """Brute-force extrema of sum_slots sign * A_x A_y over all
    24 patterns and all 24 assignments of the sorted magnitudes to the
    slot labels (a, b, c, d).

    Ties are broken by (table_id, row, lexicographic assignment), so
    witnesses are reproducible.  This enumeration is deliberately
    independent of the branch formulas; it dominates them, strictly on
    some states (the tests pin a concrete example).  It is an outer
    bound: the extremum the numeric optimizer attains over the angles
    can lie strictly inside it.
    """
    A = sorted_magnitudes(state).A
    best_max = -math.inf
    best_min = math.inf
    wit_max: VertexWitness | None = None
    wit_min: VertexWitness | None = None
    for pattern in vertex_patterns():
        signs = pattern.signs
        for assignment in itertools.permutations((0, 1, 2, 3)):
            value = 0.0
            for slot, (x, y) in enumerate(PAIR_SLOTS):
                value += signs[slot] * A[assignment[x]] * A[assignment[y]]
            if value > best_max:
                best_max = value
                wit_max = VertexWitness(pattern, assignment)
            if value < best_min:
                best_min = value
                wit_min = VertexWitness(pattern, assignment)
    assert wit_max is not None and wit_min is not None
    return VertexExtrema(best_max, best_min, (wit_max, wit_min))


def _radical_pair(sign_7root2: float, coeff_single: float, coeff_double: float) -> tuple[float, float]:
    # Inner radical shared by both optimal families:
    # (357 +/- 7 sqrt2 + c1 sqrt(10 - sqrt2) + c2 sqrt(2(10 - sqrt2))) / 791.
    root2 = math.sqrt(2.0)
    single = math.sqrt(10.0 - root2)
    double = math.sqrt(2.0 * (10.0 - root2))
    inner = (357.0 + sign_7root2 * 7.0 * root2
             + coeff_single * single + coeff_double * double) / 791.0
    s = math.sqrt(inner)
    return math.sqrt(1.0 + s), math.sqrt(1.0 - s)


def optimal_max_state() -> tuple[PureState, float]:
    """The state family member maximizing the d = 4 value, with that value."""
    ap, am = _radical_pair(1.0, -20.0, -58.0)
    g = gamma_constants()
    value = ap * ap * g.gamma1 + 2.0 * ap * am * (g.gamma2 + g.gamma3) \
        + am * am * g.gamma3
    return make_state(_D4, (ap, ap, am, am)), value


def optimal_min_state() -> tuple[PureState, float]:
    """The state family member minimizing the d = 4 value, with that value."""
    kp, km = _radical_pair(-1.0, -80.0, 6.0)
    g = gamma_constants()
    value = -kp * kp * g.gamma1 - 2.0 * kp * km * (g.gamma1 + g.gamma2) \
        + km * km * g.gamma3
    return make_state(_D4, (kp, kp, km, km)), value


def max_entangled_value() -> float:
    """The d = 4 maximum Gamma_1 + 2 Gamma_2 + 3 Gamma_3 of the flat state."""
    g = gamma_constants()
    return g.gamma1 + 2.0 * g.gamma2 + 3.0 * g.gamma3


def noise_resistance_gain(bell_value: float, reference_value: float) -> float:
    """Relative gain (F(I) - F(I_ref)) / F(I_ref) of the threshold F = threshold_noise."""
    reference = threshold_noise(reference_value)
    return (threshold_noise(bell_value) - reference) / reference


def threshold_noise(bell_value: float) -> float:
    """Largest uniform-noise fraction keeping the value above 2.

    Defined as 1 - 2/I for any positive I.  Results <= 0 mean the
    input does not violate the classical bound; they are returned
    as-is for the caller to interpret.
    """
    if not bell_value > 0.0:
        raise ValidationError(
            f"threshold is defined for positive values only, got {bell_value!r}"
        )
    return 1.0 - 2.0 / bell_value


def reference_optimal_angles() -> MeasurementSettings:
    """A fixed reference table of phases quoted for the d = 4 maximum.

    Recorded verbatim for cross-checking; evaluating the Bell value on
    it is a diagnostic (see the reproduce command), not a gate, because
    the convention it was stated under is not recoverable.
    """
    pi = math.pi
    return MeasurementSettings(
        _D4,
        PhaseVector(_D4, (0.0, pi / 6.0, -pi, 4.0 * pi / 9.0)),
        PhaseVector(_D4, (0.0, -5.0 * pi / 9.0, 5.0 * pi / 9.0, -pi / 3.0)),
        PhaseVector(_D4, (0.0, -pi / 2.0, 13.0 * pi / 18.0, -11.0 * pi / 18.0)),
        PhaseVector(_D4, (0.0, 7.0 * pi / 36.0, -27.0 * pi / 36.0, -7.0 * pi / 18.0)),
    )


@dataclass(frozen=True)
class ExtremalResult:
    """An extremum candidate: its value, where it lives, and how it
    was obtained (branch label B1|B2|S1|S2, or "numeric" for optimizer
    output)."""

    value: float
    state: PureState
    settings: MeasurementSettings | None
    branch: str
    diagnostics: tuple[str, ...] = ()


def analytic_max(state: PureState) -> ExtremalResult:
    branches = branch_values_max(state)
    label = "B1" if branches.b1 >= branches.b2 else "B2"
    return ExtremalResult(
        value=branches.max,
        state=state,
        settings=None,
        branch=label,
        diagnostics=(f"B1={branches.b1!r}", f"B2={branches.b2!r}"),
    )


def analytic_min(state: PureState) -> ExtremalResult:
    branches = branch_values_min(state)
    label = "S1" if branches.s1 <= branches.s2 else "S2"
    return ExtremalResult(
        value=branches.min,
        state=state,
        settings=None,
        branch=label,
        diagnostics=(f"S1={branches.s1!r}", f"S2={branches.s2!r}"),
    )
