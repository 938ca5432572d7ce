"""Exact classical bounds by exhaustive enumeration of local
deterministic strategies.

A local deterministic strategy fixes one outcome per setting,
(A1, A2, B1, B2).  The Bell expression is linear in the outcome
probabilities, so its classical extrema are attained on these d^4
strategies.  Each strategy's value is an integer sum over the signed,
doubled kernel table of the model, divided once by d - 1 as a
Fraction, so the bounds carry zero floating-point error.  lhv_value and
lhv_bounds share that one valuation rule; the scan values plain outcome
tuples and builds a DeterministicStrategy only for its two witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (SETTING_NAMES, Dimension, KernelVariant, ValidationError, _as_int,
                    _require_dimension, _require_variant, kernel_table)

__all__ = [
    "DeterministicStrategy",
    "LhvBoundsReport",
    "lhv_value",
    "lhv_bounds",
    "MAX_ENUMERABLE_DIMENSION",
]

MAX_ENUMERABLE_DIMENSION = 12


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed local outcomes (A1, A2, B1, B2), each in 0..d-1, stored as
    a tuple of ints."""

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


def _value(K: list, d: int, outcomes: tuple[int, int, int, int],
           variant: KernelVariant) -> Fraction:
    # The one valuation rule: K is kernel_table(d).tolist(), so the four
    # entries are Python ints, summed exactly and divided once by d - 1.
    a1, a2, b1, b2 = outcomes
    if variant is KernelVariant.MINUS:  # m - n = m + (-n): relabel Bob's outcomes
        b1, b2 = -b1 % d, -b2 % d
    return Fraction(K[0][a1][b1] + K[1][a1][b2] + K[2][a2][b1] + K[3][a2][b2], d - 1)


def lhv_value(strategy: DeterministicStrategy,
              variant: KernelVariant = KernelVariant.PLUS) -> Fraction:
    """Exact Bell value of one deterministic strategy.

    For a deterministic assignment every Q_ij collapses to one kernel
    value over S = (d - 1) / 2, so the four signed, doubled kernel values
    are summed as integers and divided once by d - 1 (thirds at d = 4).
    """
    if not isinstance(strategy, DeterministicStrategy):
        raise ValidationError(f"strategy must be a DeterministicStrategy, got {strategy!r}")
    _require_variant(variant)
    d = strategy.dim.d
    return _value(kernel_table(d).tolist(), d, strategy.outcomes, variant)


def lhv_bounds(dim: Dimension,
               variant: KernelVariant = KernelVariant.PLUS) -> LhvBoundsReport:
    """Scan all d^4 strategies and report the exact extrema.

    Every outcome tuple is valued by the rule lhv_value applies, on one
    kernel_table(d).tolist() read per scan; a DeterministicStrategy is
    built only for the two witnesses.  The scan runs in row-major order
    over (A1, A2, B1, B2), and ties keep the first (lexicographically
    smallest) witness, so the reported strategies are reproducible.
    """
    d = _require_dimension(dim)
    if d > MAX_ENUMERABLE_DIMENSION:
        raise ValidationError(
            f"exhaustive scan is guarded at d <= {MAX_ENUMERABLE_DIMENSION}, got {d}"
        )
    _require_variant(variant)
    K = kernel_table(d).tolist()
    outcomes = itertools.product(range(d), repeat=4)
    argmax = argmin = next(outcomes)
    best_max = best_min = _value(K, d, argmax, variant)
    for candidate in outcomes:
        value = _value(K, d, candidate, variant)
        if value > best_max:
            best_max, argmax = value, candidate
        elif value < best_min:
            best_min, argmin = value, candidate
    return LhvBoundsReport(dim, best_max, best_min,
                           DeterministicStrategy(dim, argmax), DeterministicStrategy(dim, argmin))
