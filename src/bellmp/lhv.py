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

from .model import (SETTING_NAMES, Dimension, KernelVariant, ValidationError, _as_int,
                    _require_dimension, kernel_table)

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
        plain = type(outcomes) is tuple
        for value in outcomes:
            # Plain ints in range skip the one integer rule, model._as_int.
            if type(value) is not int or not 0 <= value < d:
                plain = False
        if not plain:
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


def lhv_value(strategy: DeterministicStrategy,
              variant: KernelVariant = KernelVariant.PLUS) -> Fraction:
    """Exact Bell value of one deterministic strategy.

    For a deterministic assignment every Q_ij collapses to one kernel
    value over S = (d - 1) / 2, so the four signed, doubled kernel values
    are summed as integers and divided once by d - 1 (thirds at d = 4).
    """
    if not isinstance(variant, KernelVariant):
        raise ValidationError(f"variant must be a KernelVariant, got {variant!r}")
    d = strategy.dim.d
    K = kernel_table(d)
    a1, a2, b1, b2 = strategy.outcomes
    if variant is KernelVariant.MINUS:  # m - n = m + (-n): relabel Bob's outcomes
        b1, b2 = -b1 % d, -b2 % d
    total = K[0, a1, b1] + K[1, a1, b2] + K[2, a2, b1] + K[3, a2, b2]
    return Fraction(int(total), d - 1)


def lhv_bounds(dim: Dimension,
               variant: KernelVariant = KernelVariant.PLUS) -> LhvBoundsReport:
    """Scan all d^4 strategies and report the exact extrema.

    The scan runs in row-major order over (A1, A2, B1, B2), and ties
    keep the first (lexicographically smallest) witness, so the
    reported strategies are reproducible.
    """
    if _require_dimension(dim) > MAX_ENUMERABLE_DIMENSION:
        raise ValidationError(
            f"exhaustive scan is guarded at d <= {MAX_ENUMERABLE_DIMENSION}, got {dim.d}"
        )
    best_max: Fraction | None = None
    best_min: Fraction | None = None
    argmax = argmin = None
    for outcomes in itertools.product(range(dim.d), repeat=4):
        strategy = DeterministicStrategy(dim, outcomes)
        value = lhv_value(strategy, variant)
        if best_max is None or value > best_max:
            best_max = value
            argmax = strategy
        if best_min is None or value < best_min:
            best_min = value
            argmin = strategy
    assert argmax is not None and argmin is not None
    assert best_max is not None and best_min is not None
    return LhvBoundsReport(dim, best_max, best_min, argmax, argmin)
