"""Exact classical bounds by exhaustive enumeration of local deterministic
strategies.

A local deterministic strategy fixes one outcome per setting, (A1, A2, B1,
B2).  The Bell expression is linear in the outcome probabilities, so its
classical extrema are attained on these d^4 strategies.  One exact scan
values them on any integer (4, d, d) table: the four entries a strategy
picks, summed as ints and divided once as a Fraction, so the bounds carry
zero floating-point error.

The m - n kernel lives in this module alone.  KernelVariant.MINUS puts
m - n in place of the paper's m + n; it reproduces no number of the
paper, and lhv_value and lhv_bounds take it only so that the benchmark
can enumerate the classical bounds of both kernels.  It is data, not a
branch: the kernel table with Bob's outcomes relabelled n -> (-n) mod d,
since m - n = m + (-n), valued by the same rule and the same scan.

Both tables are invariant under one outcome shift: a strategy
(A1, A2, B1, B2) has the value of (A1 + t, A2 + t, B1 - t, B2 - t) under
PLUS and of (A1 + t, A2 + t, B1 + t, B2 + t) under MINUS, all mod d, as
m + n and m - n are unchanged.  So the A1 = 0 block of d^3 tuples holds
both extrema and both first witnesses; the scan still values all d^4.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (SETTING_NAMES, Dimension, ValidationError, _as_int, _require_dimension,
                    kernel_table)

__all__ = ["KernelVariant", "DeterministicStrategy", "LhvBoundsReport", "lhv_value",
           "lhv_bounds", "MAX_ENUMERABLE_DIMENSION"]

MAX_ENUMERABLE_DIMENSION = 12


class KernelVariant(enum.Enum):
    """Sign convention inside the correlation kernel: m + n (PLUS, the
    paper's, kernel_table) or m - n (MINUS, kernel_table with Bob's
    outcomes relabelled)."""

    PLUS = "plus"
    MINUS = "minus"


def _require_variant(variant: object) -> None:
    # The one variant rule of lhv_value and lhv_bounds.
    if not isinstance(variant, KernelVariant):
        raise ValidationError(f"variant must be a KernelVariant, got {variant!r}")


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed local outcomes (A1, A2, B1, B2), a tuple of ints in 0..d-1."""

    dim: Dimension
    outcomes: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        outcomes, d = self.outcomes, _require_dimension(self.dim)
        try:
            count = len(outcomes)
        except TypeError:
            raise ValidationError(f"a strategy fixes 4 outcomes, got {outcomes!r}") from None
        if count != 4:
            raise ValidationError(f"a strategy fixes 4 outcomes, got {count}")
        object.__setattr__(self, "outcomes", tuple(
            _as_int(value, f"outcome {name}", 0, d - 1)
            for name, value in zip(SETTING_NAMES, outcomes)))


@dataclass(frozen=True)
class LhvBoundsReport:
    """Exact classical bounds with witnessing strategies; the scan
    covers all strategies_scanned = d^4 strategies."""

    dim: Dimension
    max_value: Fraction
    min_value: Fraction
    argmax: DeterministicStrategy
    argmin: DeterministicStrategy

    def __post_init__(self) -> None:
        if self.min_value > self.max_value:
            raise ValidationError("min_value must not exceed max_value")

    @property
    def strategies_scanned(self) -> int:
        return self.dim.d ** 4


def _bob(n: int, d: int, variant: KernelVariant) -> int:
    # The variant as data: MINUS reads the kernel table at Bob's outcome
    # relabelled n -> (-n) mod d, as m - n = m + (-n).
    return n if variant is KernelVariant.PLUS else -n % d


def _table(d: int, variant: KernelVariant):
    # The variant's (4, d, d) table: the kernel table's columns at Bob's relabelled outcomes.
    _require_variant(variant)
    return kernel_table(d)[:, :, [_bob(n, d, variant) for n in range(d)]]


def _value(T, outcomes: tuple[int, int, int, int], denominator: int) -> Fraction:
    # The one valuation rule: the four entries of the integer table T
    # that the outcomes pick, summed as a plain int, over denominator.
    a1, a2, b1, b2 = outcomes
    return Fraction(int(T[0][a1][b1] + T[1][a1][b2] + T[2][a2][b1] + T[3][a2][b2]), denominator)


def _bounds(T: list, denominator: int) -> tuple[Fraction, Fraction, tuple, tuple]:
    # (max, min, argmax, argmin) of _value over the outcome tuples of the nested-list
    # (4, d, d) table T in row-major order; strict comparisons keep the first witnesses.
    outcomes = itertools.product(range(len(T[0])), repeat=4)
    argmax = argmin = next(outcomes)
    high = low = _value(T, argmax, denominator)
    for candidate in outcomes:
        value = _value(T, candidate, denominator)
        if value > high:
            high, argmax = value, candidate
        elif value < low:
            low, argmin = value, candidate
    return high, low, argmax, argmin


def lhv_value(strategy: DeterministicStrategy,
              variant: KernelVariant = KernelVariant.PLUS) -> Fraction:
    """Exact Bell value of one deterministic strategy.

    For a deterministic assignment every Q_ij collapses to one kernel
    value over S = (d - 1) / 2, so the four signed, doubled entries that
    the outcomes pick, read off the cached kernel table at Bob's
    relabelled outcomes without a copy, are summed as integers and
    divided once by d - 1 (thirds at d = 4).
    """
    if not isinstance(strategy, DeterministicStrategy):
        raise ValidationError(f"strategy must be a DeterministicStrategy, got {strategy!r}")
    _require_variant(variant)
    d = strategy.dim.d
    a1, a2, b1, b2 = strategy.outcomes
    return _value(kernel_table(d), (a1, a2, _bob(b1, d, variant), _bob(b2, d, variant)), d - 1)


def lhv_bounds(dim: Dimension,
               variant: KernelVariant = KernelVariant.PLUS) -> LhvBoundsReport:
    """Scan all d^4 strategies and report the exact extrema.

    The one exact scan runs on the variant's kernel table over d - 1,
    by lhv_value's rule, in row-major order over (A1, A2, B1, B2); ties
    keep the first (lexicographically smallest) witness, and only the
    two witnesses become DeterministicStrategy objects.
    """
    d = _require_dimension(dim)
    if d > MAX_ENUMERABLE_DIMENSION:
        raise ValidationError(f"exhaustive scan is guarded at d <= {MAX_ENUMERABLE_DIMENSION}, "
                              f"got {d}")
    high, low, argmax, argmin = _bounds(_table(d, variant).tolist(), d - 1)
    return LhvBoundsReport(dim, high, low,
                           DeterministicStrategy(dim, argmax), DeterministicStrategy(dim, argmin))
