"""Closed-form extremal machinery for the d = 4 expression.

The Bell value of a d = 4 state with coefficients a and phase settings
decomposes as I = sum_{k<l} a_k a_l T_kl, where the six T coefficients
depend only on the phases.  Over all settings each T vector is confined
to a polyhedron whose vertices carry coordinates from the radical
constants Gamma_1 > Gamma_2 > Gamma_3 (and the rational pair 2/3, 1/3).
This module holds those constants, the 24 vertex patterns (each
table's row 1 under the eight port sign flips), the two-branch closed
forms for the state-dependent extrema, the optimal state families, and
noise thresholds.  Everything here is exact
arithmetic on radicals evaluated in double precision; the numeric
optimizer lives elsewhere and serves as the independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    Dimension,
    MeasurementSettings,
    PhaseVector,
    PureState,
    ValidationError,
    make_state,
    maximally_entangled_state,
)

__all__ = [
    "GammaConstants",
    "gamma_constants",
    "VertexPattern",
    "vertex_patterns",
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
    "PAIR_SLOTS",
]

# Canonical order of the six index pairs (k, l), k < l.  Every six-entry
# tuple in this module follows it.
PAIR_SLOTS: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)

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


# Row 1 of each vertex table: the magnitude of each PAIR_SLOTS entry
# (G1, G2, G3 the Gamma constants; A, B the rational 2/3, 1/3) and its
# sign.
_FIRST_ROWS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("G1 G2 G3 G3 G2 G3", (1, 1, 1, 1, 1, 1)),
    ("G1 G2 G1 G1 G2 G3", (-1, -1, -1, -1, -1, 1)),
    ("A B A A B A", (-1, -1, -1, -1, -1, -1)),
)

# Adding pi to A1[k] and A2[k] negates port k's term in every setting
# pair's amplitude, as a_k -> -a_k does, so it maps T_kl to -T_kl for
# each l != k.  Flipping the ports with s_k = -1 therefore maps a vertex
# T to the vertex s_k s_l T_kl; rows 1-8 of every table are its row 1
# under these port sign vectors.
_PORT_SIGNS: tuple[tuple[int, int, int, int], ...] = (
    (1, 1, 1, 1), (1, -1, -1, -1), (1, -1, 1, 1), (1, 1, -1, 1),
    (1, 1, 1, -1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
)


@lru_cache(maxsize=1)
def vertex_patterns() -> tuple[VertexPattern, ...]:
    """All 24 vertex patterns, in (table_id, row) order, derived from
    each table's row 1 and the eight port sign flips."""
    g = gamma_constants()
    magnitude = {
        "G1": g.gamma1, "G2": g.gamma2, "G3": g.gamma3,
        "A": 2.0 / 3.0, "B": 1.0 / 3.0,
    }
    return tuple(
        VertexPattern(table_id, row, tuple(
            s[k] * s[l] * sign * magnitude[key]
            for (k, l), key, sign in zip(PAIR_SLOTS, keys.split(), signs)
        ))
        for table_id, (keys, signs) in enumerate(_FIRST_ROWS, start=1)
        for row, s in enumerate(_PORT_SIGNS, start=1)
    )


# The 24 assignments of sorted magnitudes to the slot labels (a, b, c, d),
# in lexicographic order.
_ASSIGNMENTS = np.array(list(itertools.permutations(range(4))))
_ASSIGNMENTS.flags.writeable = False


@lru_cache(maxsize=1)
def _pattern_signs() -> np.ndarray:
    signs = np.array([pattern.signs for pattern in vertex_patterns()])
    signs.flags.writeable = False
    return signs


def sorted_magnitudes(state: PureState) -> tuple[float, float, float, float]:
    """The coefficient magnitudes of a d = 4 state in decreasing order."""
    if state.dim.d != 4:
        raise ValidationError(f"expected dimension 4, got {state.dim.d}")
    return tuple(sorted((abs(c) for c in state.coefficients), reverse=True))


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
    a0, a1, a2, a3 = sorted_magnitudes(state)
    g = gamma_constants()
    b1 = a0 * a1 * g.gamma1 + (a0 * a2 + a1 * a3) * g.gamma2 \
        + (a0 * a3 + a1 * a2 + a2 * a3) * g.gamma3
    b2 = a0 * a1 * g.gamma3 + (a0 * a2 + a1 * a3) * g.gamma2 \
        + (a0 * a3 + a1 * a2 - a2 * a3) * g.gamma1
    return BranchMax(b1, b2, max(b1, b2))


def branch_values_min(state: PureState) -> BranchMin:
    """The two closed-form minimum branches and their smaller value."""
    a0, a1, a2, a3 = sorted_magnitudes(state)
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
    a = np.array(sorted_magnitudes(state))[_ASSIGNMENTS]
    signs = _pattern_signs()
    # Added slot by slot in PAIR_SLOTS order, as the scalar sum does; one
    # matrix product could reorder the sums and move ties.
    values = 0.0
    for slot, (x, y) in enumerate(PAIR_SLOTS):
        values = values + signs[:, slot, None] * a[:, x] * a[:, y]
    n = len(_ASSIGNMENTS)
    witnesses = tuple(
        VertexWitness(vertex_patterns()[i // n], tuple(_ASSIGNMENTS[i % n].tolist()))
        for i in (int(values.argmax()), int(values.argmin()))
    )
    return VertexExtrema(float(values.max()), float(values.min()), witnesses)


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
    """The state family member maximizing the d = 4 value, with that
    value: the larger branch of branch_values_max there."""
    ap, am = _radical_pair(1.0, -20.0, -58.0)
    state = make_state(_D4, (ap, ap, am, am))
    return state, branch_values_max(state).max


def optimal_min_state() -> tuple[PureState, float]:
    """The state family member minimizing the d = 4 value, with that
    value: the smaller branch of branch_values_min there."""
    kp, km = _radical_pair(-1.0, -80.0, 6.0)
    state = make_state(_D4, (kp, kp, km, km))
    return state, branch_values_min(state).min


def max_entangled_value() -> float:
    """The d = 4 maximum Gamma_1 + 2 Gamma_2 + 3 Gamma_3 of the flat
    state: its branch B1."""
    return branch_values_max(maximally_entangled_state(_D4)).b1


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
