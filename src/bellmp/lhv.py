"""Exact classical bounds by exhaustive enumeration of local
deterministic strategies.

A local deterministic strategy fixes one outcome per setting,
(A1, A2, B1, B2).  The Bell expression is linear in the outcome
probabilities, so its classical extrema are attained on these d^4
strategies.  Each strategy's value is an integer sum over the signed,
doubled kernel table of the model, divided once by d - 1 as a
Fraction, so the bounds carry zero floating-point error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import Dimension, KernelVariant, ValidationError, kernel_table

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
    """Fixed local outcomes (A1, A2, B1, B2), each in 0..d-1."""

    dim: Dimension
    outcomes: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.outcomes) != 4:
            raise ValidationError(
                f"a strategy fixes 4 outcomes, got {len(self.outcomes)}"
            )
        for value in self.outcomes:
            if not isinstance(value, int) or not 0 <= value < self.dim.d:
                raise ValidationError(
                    f"outcome {value!r} outside 0..{self.dim.d - 1}"
                )


@dataclass(frozen=True)
class LhvBoundsReport:
    """Exact classical bounds with witnessing strategies."""

    dim: Dimension
    variant: KernelVariant
    max_value: Fraction
    min_value: Fraction
    argmax: DeterministicStrategy
    argmin: DeterministicStrategy
    strategies_scanned: int

    def __post_init__(self) -> None:
        if self.min_value > self.max_value:
            raise ValidationError("min_value must not exceed max_value")
        if self.strategies_scanned != self.dim.d**4:
            raise ValidationError(
                f"expected {self.dim.d ** 4} strategies, got {self.strategies_scanned}"
            )


def lhv_value(strategy: DeterministicStrategy,
              variant: KernelVariant = KernelVariant.PLUS) -> Fraction:
    """Exact Bell value of one deterministic strategy.

    For a deterministic assignment every Q_ij collapses to one kernel
    value over S = (d - 1) / 2, so the four signed, doubled kernel values
    are summed as integers and divided once by d - 1 (thirds at d = 4).
    """
    d = strategy.dim.d
    K = kernel_table(d, variant)
    a1, a2, b1, b2 = strategy.outcomes
    total = K[0, a1, b1] + K[1, a1, b2] + K[2, a2, b1] + K[3, a2, b2]
    return Fraction(int(total), d - 1)


def lhv_bounds(dim: Dimension,
               variant: KernelVariant = KernelVariant.PLUS) -> LhvBoundsReport:
    """Scan all d^4 strategies and report the exact extrema.

    The scan runs in row-major order over (A1, A2, B1, B2), and ties
    keep the first (lexicographically smallest) witness, so the
    reported strategies are reproducible.
    """
    if dim.d > MAX_ENUMERABLE_DIMENSION:
        raise ValidationError(
            f"exhaustive scan is guarded at d <= {MAX_ENUMERABLE_DIMENSION}, got {dim.d}"
        )
    best_max: Fraction | None = None
    best_min: Fraction | None = None
    argmax = argmin = None
    count = 0
    for outcomes in itertools.product(range(dim.d), repeat=4):
        strategy = DeterministicStrategy(dim, outcomes)
        value = lhv_value(strategy, variant)
        count += 1
        if best_max is None or value > best_max:
            best_max = value
            argmax = strategy
        if best_min is None or value < best_min:
            best_min = value
            argmin = strategy
    assert argmax is not None and argmin is not None
    assert best_max is not None and best_min is not None
    return LhvBoundsReport(dim, variant, best_max, best_min, argmax, argmin, count)
