"""Exact classical bounds: enumeration, witnesses, rational arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellmp import (
    DeterministicStrategy,
    Dimension,
    JointProbabilityTable,
    KernelVariant,
    LhvBoundsReport,
    MAX_ENUMERABLE_DIMENSION,
    ValidationError,
    correlation_q,
    kernel_f,
    lhv_bounds,
    lhv_value,
)

PLUS = KernelVariant.PLUS
MINUS = KernelVariant.MINUS


class TestLhvValue:
    def test_aligned_outcomes_reach_two(self):
        for d in (2, 3, 4, 6):
            strategy = DeterministicStrategy(Dimension(d), (0, 0, 0, 0))
            assert lhv_value(strategy) == Fraction(2)

    def test_hand_computed_d4_minimizer(self):
        # (A1, A2, B1, B2) = (0, 1, 3, 1): kernel terms -3/2, -3/2,
        # +3/2 (subtracted), -1/2, total -5 over spin 3/2.
        strategy = DeterministicStrategy(Dimension(4), (0, 1, 3, 1))
        assert lhv_value(strategy) == Fraction(-10, 3)

    def test_returns_exact_fraction(self):
        value = lhv_value(DeterministicStrategy(Dimension(4), (1, 2, 3, 0)))
        assert isinstance(value, Fraction)
        # every deterministic value is a multiple of 1/spin denominator
        assert (value * Fraction(3, 2)).denominator in (1, 2)

    def test_agrees_with_quantum_engine_on_deterministic_tables(self):
        # A deterministic strategy is the table with unit mass on one
        # cell per setting; pushing it through correlation_q must give
        # the same number the rational route gives.
        rng = np.random.default_rng(21)
        for d in (2, 3, 4, 5):
            dim = Dimension(d)
            for _ in range(10):
                a1, a2, b1, b2 = (int(v) for v in rng.integers(0, d, 4))
                strategy = DeterministicStrategy(dim, (a1, a2, b1, b2))
                p = np.zeros((2, 2, d, d))
                p[0, 0, a1, b1] = 1.0
                p[0, 1, a1, b2] = 1.0
                p[1, 0, a2, b1] = 1.0
                p[1, 1, a2, b2] = 1.0
                table = JointProbabilityTable(dim, p)
                through_engine = (
                    correlation_q(table, 1, 1)
                    + correlation_q(table, 1, 2)
                    - correlation_q(table, 2, 1)
                    + correlation_q(table, 2, 2)
                )
                assert abs(through_engine - float(lhv_value(strategy))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(2, 16),
       variant=st.sampled_from(list(KernelVariant)))
def test_value_equals_rational_kernel_sum(data, d, variant):
    # lhv_value sums the shared integer table; the reference sums exact
    # Fractions of the scalar kernel f_ij with the signs + + - +.
    dim = Dimension(d)
    outcomes = data.draw(st.tuples(*(st.integers(0, d - 1) for _ in range(4))))
    a1, a2, b1, b2 = outcomes
    terms = ((1, 1, a1, b1, 1), (1, 2, a1, b2, 1), (2, 1, a2, b1, -1), (2, 2, a2, b2, 1))
    reference = sum(sign * Fraction(kernel_f(i, j, m, n, dim, variant))
                    for i, j, m, n, sign in terms) / Fraction(d - 1, 2)
    value = lhv_value(DeterministicStrategy(dim, outcomes), variant)
    assert isinstance(value, Fraction)
    assert value == reference


class TestLhvBounds:
    @pytest.mark.parametrize("d,expected_min", [
        (2, Fraction(-2)),
        (3, Fraction(-4)),
        (4, Fraction(-10, 3)),
        (5, Fraction(-3)),
        (6, Fraction(-14, 5)),
    ])
    def test_exact_extrema(self, d, expected_min):
        report = lhv_bounds(Dimension(d))
        assert report.max_value == Fraction(2)
        assert report.min_value == expected_min
        assert report.strategies_scanned == d**4

    def test_variant_name_is_rejected(self):
        with pytest.raises(ValidationError, match="KernelVariant"):
            lhv_bounds(Dimension(2), "plus")

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_minimum_matches_ratio_form(self, d):
        # the enumerated minimum lands exactly on -2(d + 1)/(d - 1)
        assert lhv_bounds(Dimension(d)).min_value == Fraction(-2 * (d + 1), d - 1)

    def test_d4_witnesses(self):
        report = lhv_bounds(Dimension(4))
        assert report.argmax.outcomes == (0, 0, 0, 0)
        assert report.argmin.outcomes == (0, 1, 3, 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_witnesses_are_lexicographically_first(self, d):
        import itertools

        report = lhv_bounds(Dimension(d))
        values = {
            outcomes: lhv_value(DeterministicStrategy(Dimension(d), outcomes))
            for outcomes in itertools.product(range(d), repeat=4)
        }
        maximizers = [o for o, v in values.items() if v == report.max_value]
        minimizers = [o for o, v in values.items() if v == report.min_value]
        assert report.argmax.outcomes == min(maximizers)
        assert report.argmin.outcomes == min(minimizers)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_variants_share_the_same_bounds(self, d):
        # relabeling n -> -n mod d maps one kernel onto the other, so
        # the strategy value sets coincide
        plus = lhv_bounds(Dimension(d), PLUS)
        minus = lhv_bounds(Dimension(d), MINUS)
        assert plus.max_value == minus.max_value
        assert plus.min_value == minus.min_value

    def test_witness_values_match_reported_bounds(self):
        for d in (2, 3, 4):
            report = lhv_bounds(Dimension(d))
            assert lhv_value(report.argmax) == report.max_value
            assert lhv_value(report.argmin) == report.min_value

    def test_enumeration_guard(self):
        with pytest.raises(ValidationError):
            lhv_bounds(Dimension(MAX_ENUMERABLE_DIMENSION + 1))


class TestStrategyValidation:
    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            DeterministicStrategy(Dimension(3), (0, 1, 2))

    def test_outcome_out_of_range(self):
        with pytest.raises(ValidationError):
            DeterministicStrategy(Dimension(3), (0, 1, 3, 0))
        with pytest.raises(ValidationError):
            DeterministicStrategy(Dimension(3), (0, 1, -1, 0))

    def test_non_integer_outcome(self):
        with pytest.raises(ValidationError):
            DeterministicStrategy(Dimension(3), (0, 1.0, 2, 0))

    def test_bool_outcome_is_rejected(self):
        # bool is an int subclass; as an index it would act as a mask.
        with pytest.raises(ValidationError, match="not an integer"):
            DeterministicStrategy(Dimension(2), (True, 0, 0, 0))

    def test_list_of_outcomes_is_stored_as_a_tuple(self):
        strategy = DeterministicStrategy(Dimension(3), [0, 1, 2, 0])
        assert strategy.outcomes == (0, 1, 2, 0)
        assert hash(strategy) == hash(DeterministicStrategy(Dimension(3), (0, 1, 2, 0)))

    def test_numpy_integer_outcomes_are_accepted(self):
        dim = Dimension(2)
        strategy = DeterministicStrategy(dim, (np.int64(1), 0, np.int32(1), 0))
        assert strategy.outcomes == (1, 0, 1, 0)
        assert all(type(value) is int for value in strategy.outcomes)
        assert lhv_value(strategy) == lhv_value(DeterministicStrategy(dim, (1, 0, 1, 0)))


class TestReportValidation:
    def test_rejects_inverted_bounds(self):
        dim = Dimension(2)
        strategy = DeterministicStrategy(dim, (0, 0, 0, 0))
        with pytest.raises(ValidationError):
            LhvBoundsReport(dim, PLUS, Fraction(-2), Fraction(2),
                            strategy, strategy)
