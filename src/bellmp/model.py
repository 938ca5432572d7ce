"""Core types for a two-party, two-setting Bell test with d outcomes.

Conventions used throughout the package:

- Outcomes m, n run over 0..d-1.  Each party chooses between two
  measurement settings, indexed 1 and 2.
- The spin parameter is S = (d - 1) / 2.  Correlations are weighted by
  the half-integer kernel

      f_ij(m, n) = S - M(eps(i - j) * (m + n), d)

  where M(x, d) is the non-negative residue of x modulo d and
  eps(x) = +1 for x >= 0, -1 otherwise.  Only the setting pair
  (i, j) = (1, 2) picks up the sign flip.  This is the paper's kernel,
  KernelVariant.PLUS, the only one kernel_table holds.  kernel_f also
  takes KernelVariant.MINUS, with m - n in place of m + n, as the
  scalar reference for the lhv module, which alone still evaluates it
  (for the benchmark's exact LHV enumeration).
- The Bell expression is I = Q11 + Q12 - Q21 + Q22 with
  Q_ij = (1/S) sum_{m,n} f_ij(m, n) P_ij(m, n).  Every route (quantum,
  sampled, classical) reads it from kernel_table.  It is CGLMP's I_d
  (Collins, Gisin, Linden, Massar and Popescu 2002) with Bob's outcomes
  relabelled n -> (-n) mod d.
- Pure states carry real coefficients normalized so that the squares
  sum to d; the maximally entangled state has every coefficient 1.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BellError",
    "DimensionMismatchError",
    "DegenerateStateError",
    "ValidationError",
    "KernelVariant",
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


def _is_int(k: object) -> bool:
    # An int or numpy int; True == 1, but a bool is not an index.
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _is_real(x: object) -> bool:
    # An int, float or numpy real, but not a bool or a string.
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_setting_index(i: object) -> bool:
    return _is_int(i) and i in (1, 2)


class BellError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(BellError):
    """Inputs disagree about the outcome dimension d."""


class DegenerateStateError(BellError):
    """A state vector with no usable weight (all coefficients zero)."""


class ValidationError(BellError):
    """A value violates a documented constraint (range, finiteness, ...)."""


def require_seed(seed: object) -> None:
    """Reject a PRNG seed that is not an int >= 0, which numpy would
    refuse only once the draw starts."""
    if not _is_int(seed) or seed < 0:
        raise ValidationError(f"seed must be an int >= 0, got {seed!r}")


class KernelVariant(enum.Enum):
    """Sign convention inside the correlation kernel: m + n (PLUS, the
    paper's) or m - n (MINUS, taken only by kernel_f and the lhv
    module)."""

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class Dimension:
    """Outcome dimension d of each measurement, d >= 2."""

    d: int

    def __post_init__(self) -> None:
        if type(self.d) is not int:
            if not _is_int(self.d):
                raise ValidationError(f"dimension must be an int, got {self.d!r}")
            object.__setattr__(self, "d", int(self.d))
        if self.d < 2:
            raise ValidationError(f"dimension must be >= 2, got {self.d}")

    @property
    def spin(self) -> float:
        """S = (d - 1) / 2, the largest kernel value."""
        return (self.d - 1) / 2


def _as_float_tuple(values: Iterable[float], what: str) -> tuple[float, ...]:
    out = []
    try:
        for v in values:
            x = float(v)
            if not math.isfinite(x):
                raise ValidationError(f"{what} entries must be finite, got {v!r}")
            out.append(x)
    except (OverflowError, TypeError, ValueError) as exc:
        # The entry itself is not echoed: a huge int has no printable repr.
        raise ValidationError(f"{what} entries must be real numbers: {exc}") from exc
    return tuple(out)


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
        coeffs = _as_float_tuple(self.coefficients, "state coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != self.dim.d:
            raise DimensionMismatchError(
                f"expected {self.dim.d} coefficients, got {len(coeffs)}"
            )
        norm_sq = sum(c * c for c in coeffs)
        if abs(norm_sq - self.dim.d) > NORMALIZATION_TOLERANCE * self.dim.d:
            raise ValidationError(
                f"coefficients must satisfy sum(a^2) = d = {self.dim.d}, "
                f"got {norm_sq!r}"
            )


@dataclass(frozen=True)
class PhaseVector:
    """One party's output phases for a single setting, one angle per port."""

    dim: Dimension
    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        phases = _as_float_tuple(self.phases, "phase")
        object.__setattr__(self, "phases", phases)
        if len(phases) != self.dim.d:
            raise DimensionMismatchError(
                f"expected {self.dim.d} phases, got {len(phases)}"
            )


@dataclass(frozen=True)
class MeasurementSettings:
    """The four phase vectors of a full experiment: A1, A2, B1, B2."""

    dim: Dimension
    a1: PhaseVector
    a2: PhaseVector
    b1: PhaseVector
    b2: PhaseVector

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            vec: PhaseVector = getattr(self, name)
            if vec.dim != self.dim:
                raise DimensionMismatchError(
                    f"setting {name} has dimension {vec.dim.d}, expected {self.dim.d}"
                )


def kernel_f(i: int, j: int, m: int, n: int, dim: Dimension, variant: KernelVariant) -> float:
    """Half-integer correlation kernel f_ij(m, n) in [-S, S].

    For every setting pair the kernel takes each value S - k
    (k = 0..d-1) on exactly d of the d^2 outcome pairs, so it sums
    to zero over the full outcome table.
    """
    if not (_is_setting_index(i) and _is_setting_index(j)):
        raise ValidationError(f"setting indices must be the int 1 or 2, got ({i!r}, {j!r})")
    if not (_is_int(m) and _is_int(n) and 0 <= m < dim.d and 0 <= n < dim.d):
        raise ValidationError(
            f"outcomes must be ints in 0..{dim.d - 1}, got ({m!r}, {n!r})"
        )
    if not isinstance(variant, KernelVariant):
        raise ValidationError(f"variant must be a KernelVariant, got {variant!r}")
    eps = -1 if i < j else 1
    combo = m + n if variant is KernelVariant.PLUS else m - n
    return dim.spin - ((eps * combo) % dim.d)


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

    Raises a dimension error on a length mismatch and a
    degenerate-state error when every coefficient is zero.
    """
    values = _as_float_tuple(coeffs, "state coefficient")
    if len(values) != dim.d:
        raise DimensionMismatchError(
            f"expected {dim.d} coefficients, got {len(values)}"
        )
    norm_sq = sum(c * c for c in values)
    if not sys.float_info.min <= norm_sq < math.inf:
        # The squares overflowed or underflowed: normalize the entries
        # divided by the largest magnitude instead.
        largest = max(abs(c) for c in values)
        if largest == 0.0:
            raise DegenerateStateError("cannot normalize the all-zero state")
        values = tuple(c / largest for c in values)
        norm_sq = sum(c * c for c in values)
    scale = math.sqrt(dim.d / norm_sq)
    return PureState(dim, tuple(c * scale for c in values))


def maximally_entangled_state(dim: Dimension) -> PureState:
    """The state with every coefficient equal to 1."""
    return PureState(dim, (1.0,) * dim.d)


def zero_settings(dim: Dimension) -> MeasurementSettings:
    """All four phase vectors identically zero."""
    zero = PhaseVector(dim, (0.0,) * dim.d)
    return MeasurementSettings(dim, zero, zero, zero, zero)
