"""Core types for a two-party, two-setting Bell test with d outcomes.

Conventions used throughout the package:

- Outcomes m, n run over 0..d-1.  Each party chooses between two
  measurement settings, indexed 1 and 2.
- The spin parameter is S = (d - 1) / 2.  Correlations are weighted by
  the half-integer kernel

      f_ij(m, n) = S - M(eps(i - j) * (m + n), d)

  where M(x, d) is the non-negative residue of x modulo d and
  eps(x) = +1 for x >= 0, -1 otherwise.  Only the setting pair
  (i, j) = (1, 2) picks up the sign flip.  This is the paper's kernel;
  kernel_f states it entry by entry and kernel_table holds it.
- The Bell expression is I = Q11 + Q12 - Q21 + Q22 with
  Q_ij = (1/S) sum_{m,n} f_ij(m, n) P_ij(m, n).  Every route (quantum,
  sampled, classical) reads it from kernel_table.  It is CGLMP's I_d
  (Collins, Gisin, Linden, Massar and Popescu 2002) with Bob's outcomes
  relabelled n -> (-n) mod d.
- Pure states carry real coefficients normalized so that the squares
  sum to d; the maximally entangled state has every coefficient 1.
- Numeric inputs follow one rule per kind, and only this module states
  them.  An integer is an int or a numpy int, not a bool, in its range
  (_as_int, which returns the plain int, and whose message names the
  input and its range).  A real number is an int, a float or a numpy
  real, not a bool, a string or a complex, and it must be finite and
  fit a float (_as_float_tuple, which returns plain floats).  A
  numeric array is any array numpy can convert except a bool, a text
  or an object one (_as_array), so exact fractions are converted with
  dtype=float first.  A dimension is a Dimension, not an int d
  (_require_dimension, called where dim.d is first read).  Anything
  else raises ValidationError, and so do inputs that disagree about d
  and the all-zero state: it is the one error for bad input, and
  BellError, its base, is what the command line catches.
- MeasurementSettings holds the phase rows in the order A1, A2, B1, B2
  (SETTING_NAMES).  Its phases property lists them in that order and
  its from_phases classmethod builds settings from four such rows,
  naming the row an error is about; no other module restates the order.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BellError",
    "ValidationError",
    "Dimension",
    "PureState",
    "PhaseVector",
    "MeasurementSettings",
    "kernel_f",
    "make_state",
    "maximally_entangled_state",
    "zero_settings",
    "NORMALIZATION_TOLERANCE",
]

NORMALIZATION_TOLERANCE = 1e-12

# Setting pairs (i, j) in the order r = 2 (i - 1) + (j - 1) and their
# signs in the Bell combination I = Q11 + Q12 - Q21 + Q22.
SETTING_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
PAIR_SIGNS = (1, 1, -1, 1)

# The phase rows A1, A2, B1, B2 in MeasurementSettings order; the
# fields are the same names in lower case.
SETTING_NAMES = ("A1", "A2", "B1", "B2")

# Canonical order of the six index pairs (k, l), k < l, of the d = 4
# T coefficients and vertex tables.
PAIR_SLOTS: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)


def _is_int(k: object) -> bool:
    # An int or numpy int; True == 1, but a bool is not an index.
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _require_dimension(dim: object) -> int:
    # The one dimension rule: dim.d of a Dimension, and ValidationError
    # for anything else, an int d included.
    if not isinstance(dim, Dimension):
        raise ValidationError(f"dim must be a Dimension, got {dim!r}")
    return dim.d


def _is_real(x: object) -> bool:
    # An int, float or numpy real, but not a bool, a string or a complex.
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class BellError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BellError):
    """A value violates a documented constraint: its kind, its range,
    finiteness, agreement about d, or a state's non-zero weight."""


def _as_int(value: object, what: str, low: int, high: int | None = None) -> int:
    # The integer rule of the module docstring: value as a plain int in
    # [low, high], or in [low, inf) when high is None.
    if _is_int(value):
        n = int(value)
        if low <= n and (high is None or n <= high):
            return n
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValidationError(f"{what} must be an int {bound}, got {value!r}")


@dataclass(frozen=True)
class Dimension:
    """Outcome dimension d of each measurement, d >= 2."""

    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _as_int(self.d, "dimension", 2))

    @property
    def spin(self) -> float:
        """S = (d - 1) / 2, the largest kernel value."""
        return (self.d - 1) / 2


def _as_float_tuple(values: Iterable[float], what: str) -> tuple[float, ...]:
    # The real-number rule of the module docstring; ``what`` is the
    # plural name the messages start with.
    out = []
    try:
        for v in values:
            if type(v) is not float and not _is_real(v):
                raise ValidationError(f"{what} must be real numbers, got {v!r}")
            x = float(v)
            if not math.isfinite(x):
                raise ValidationError(f"{what} must be finite, got {v!r}")
            out.append(x)
    except (OverflowError, TypeError, ValueError) as exc:
        # The entry itself is not echoed: a huge int has no printable repr.
        raise ValidationError(f"{what} must be real numbers: {exc}") from exc
    return tuple(out)


def _as_array(values: object, dtype: type, what: str) -> np.ndarray:
    """values as a numpy array of dtype, refusing the bool, text and
    object arrays that numpy would convert quietly (True to 1, "0.25"
    to 0.25, each object through float())."""
    array = np.asarray(values)
    if array.dtype.kind in "bOUS":
        raise ValidationError(f"{what} must be numbers, got dtype {array.dtype}")
    return array.astype(dtype, copy=False)


@dataclass(frozen=True)
class PureState:
    """Real-coefficient entangled state sum_k a_k |kk>, with sum a_k^2 = d.

    Construct through :func:`make_state`, which normalizes arbitrary
    non-zero input; the constructor itself insists the normalization
    already holds to within ``NORMALIZATION_TOLERANCE``.
    """

    dim: Dimension
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        d = _require_dimension(self.dim)
        coeffs = _as_float_tuple(self.coefficients, "state coefficient entries")
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != d:
            raise ValidationError(f"expected {d} coefficients, got {len(coeffs)}")
        norm_sq = sum(c * c for c in coeffs)
        if abs(norm_sq - d) > NORMALIZATION_TOLERANCE * d:
            raise ValidationError(
                f"coefficients must satisfy sum(a^2) = d = {d}, got {norm_sq!r}"
            )


@dataclass(frozen=True)
class PhaseVector:
    """One party's output phases for a single setting, one angle per port."""

    dim: Dimension
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        d = _require_dimension(self.dim)
        phases = _as_float_tuple(self.phases, "phase entries")
        object.__setattr__(self, "phases", phases)
        if len(phases) != d:
            raise ValidationError(f"expected {d} phases, got {len(phases)}")


@dataclass(frozen=True)
class MeasurementSettings:
    """The four phase vectors of a full experiment: A1, A2, B1, B2."""

    dim: Dimension
    a1: PhaseVector
    a2: PhaseVector
    b1: PhaseVector
    b2: PhaseVector

    def __post_init__(self) -> None:
        _require_dimension(self.dim)
        for name in ("a1", "a2", "b1", "b2"):
            vec: PhaseVector = getattr(self, name)
            if not isinstance(vec, PhaseVector):
                raise ValidationError(f"setting {name} must be a PhaseVector, got {vec!r}")
            if vec.dim != self.dim:
                raise ValidationError(
                    f"setting {name} has dimension {vec.dim.d}, expected {self.dim.d}"
                )

    @property
    def phases(self) -> tuple[tuple[float, ...], ...]:
        """The phase tuples of A1, A2, B1 and B2: np.array of them is the
        (4, d) phase matrix that engine.pair_matrix takes."""
        return (self.a1.phases, self.a2.phases, self.b1.phases, self.b2.phases)

    @classmethod
    def from_phases(cls, dim: Dimension, phases: Iterable[Iterable[float]]) -> MeasurementSettings:
        """Settings from four phase rows in the order of phases, as tuples,
        lists or a (4, d) array; each row becomes a PhaseVector, and its
        errors start with the row's name (A1: ...)."""
        _require_dimension(dim)
        try:
            rows = tuple(phases)
        except TypeError as exc:
            raise ValidationError(f"phases must be four rows of numbers: {exc}") from exc
        if len(rows) != 4:
            raise ValidationError(f"expected 4 phase rows, got {len(rows)}")
        vectors = []
        for name, row in zip(SETTING_NAMES, rows):
            try:
                vectors.append(PhaseVector(dim, row))
            except ValidationError as exc:
                raise ValidationError(f"{name}: {exc}") from exc
        return cls(dim, *vectors)


def kernel_f(i: int, j: int, m: int, n: int, dim: Dimension) -> float:
    """Half-integer correlation kernel f_ij(m, n) in [-S, S], the
    scalar reference for kernel_table.

    For every setting pair the kernel takes each value S - k
    (k = 0..d-1) on exactly d of the d^2 outcome pairs, so it sums
    to zero over the full outcome table.
    """
    i, j = _as_int(i, "setting index i", 1, 2), _as_int(j, "setting index j", 1, 2)
    d = _require_dimension(dim)
    m, n = _as_int(m, "outcome m", 0, d - 1), _as_int(n, "outcome n", 0, d - 1)
    eps = -1 if i < j else 1
    return dim.spin - ((eps * (m + n)) % d)


@functools.lru_cache(maxsize=None)
def kernel_table(d: int) -> np.ndarray:
    """Read-only (4, d, d) int64 table K[r, m, n] = sign_r 2 f_ij(m, n)
    of the paper's kernel for the setting pairs (i, j) =
    SETTING_PAIRS[r], cached per d.

    Doubling makes the half-integer kernel integral, so the Bell value
    of any outcome table P of shape (4, d, d) is sum(K P) / (d - 1),
    exactly for rational P.  Every row and every column of each K[r]
    sums to zero.
    """
    m, n = np.ogrid[:d, :d]
    K = np.array([sign * ((d - 1) - 2 * (((-1 if i < j else 1) * (m + n)) % d))
                  for (i, j), sign in zip(SETTING_PAIRS, PAIR_SIGNS)], dtype=np.int64)
    K.flags.writeable = False
    return K


def make_state(dim: Dimension, coeffs: Sequence[float]) -> PureState:
    """Normalize real coefficients to sum(a^2) = d and wrap as a state.

    Raises ValidationError when every coefficient is zero and, through
    PureState, on a length mismatch.
    """
    d = _require_dimension(dim)
    values = _as_float_tuple(coeffs, "state coefficient entries")
    norm_sq = sum(c * c for c in values)
    if not sys.float_info.min <= norm_sq < math.inf:
        # The squares overflowed or underflowed: normalize the entries
        # divided by the largest magnitude instead.
        largest = max(map(abs, values), default=0.0)
        if largest == 0.0:
            raise ValidationError("cannot normalize the all-zero state")
        values = tuple(c / largest for c in values)
        norm_sq = sum(c * c for c in values)
    scale = math.sqrt(d / norm_sq)
    return PureState(dim, tuple(c * scale for c in values))


def maximally_entangled_state(dim: Dimension) -> PureState:
    """The state with every coefficient equal to 1."""
    return PureState(dim, (1.0,) * _require_dimension(dim))


def zero_settings(dim: Dimension) -> MeasurementSettings:
    """All four phase vectors identically zero."""
    zero = PhaseVector(dim, (0.0,) * _require_dimension(dim))
    return MeasurementSettings(dim, zero, zero, zero, zero)
