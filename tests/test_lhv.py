"""Exact classical bounds: enumeration, witnesses, rational arithmetic."""

import itertools
import re
import tracemalloc
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
from bellmp.lhv import _bounds, _value
from bellmp.model import SETTING_PAIRS, kernel_table
from helpers import cglmp_coefficients

# Hand-computed values: the four kernel terms f_11(A1, B1), f_12(A1, B2),
# -f_21(A2, B1), f_22(A2, B2), with f_ij = S - ((eps (m + n)) mod d) and
# eps = -1 only for (1, 2), summed and divided by the spin S = (d - 1)/2.
LHV_CASES = [
    (2, (0, 0, 0, 1), Fraction(-2)),       # 1/2 - 1/2 - 1/2 - 1/2 over 1/2
    (3, (1, 2, 0, 1), Fraction(2)),        # 0 + 0 + 1 + 1 over 1
    (3, (0, 2, 2, 1), Fraction(-1)),       # -1 - 1 + 0 + 1 over 1
    (5, (2, 4, 1, 3), Fraction(-1, 2)),    # -1 + 2 - 2 + 0 over 2
    (6, (5, 0, 3, 2), Fraction(-2, 5)),    # 1/2 - 5/2 + 1/2 + 1/2 over 5/2
    (7, (0, 1, 6, 1), Fraction(-8, 3)),    # -3 - 3 - 3 + 1 over 3
]


class TestLhvValue:
    @pytest.mark.parametrize("d,outcomes,expected", LHV_CASES)
    def test_hand_computed_values(self, d, outcomes, expected):
        assert lhv_value(DeterministicStrategy(Dimension(d), outcomes)) == expected

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

    def test_reads_four_plain_int_entries(self):
        # A call reads four entries of the cached table, not a copy of
        # its 4 d^2 entries, and returns a Fraction of plain ints.
        strategy = DeterministicStrategy(Dimension(200), (3, 141, 59, 26))
        lhv_value(strategy)
        tracemalloc.start()
        try:
            value = lhv_value(strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert type(value.numerator) is int and type(value.denominator) is int

    @pytest.mark.parametrize("strategy", [None, (0, 0, 0, 0), "x"])
    def test_rejects_a_non_strategy(self, strategy):
        with pytest.raises(ValidationError, match=(
                r"^strategy must be a DeterministicStrategy, got "
                + re.escape(repr(strategy)) + "$")):
            lhv_value(strategy)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(2, 16))
def test_value_equals_rational_kernel_sum(data, d):
    # lhv_value sums the shared integer table; the reference sums exact
    # Fractions of the scalar kernel f_ij with the signs + + - +.
    dim = Dimension(d)
    outcomes = data.draw(st.tuples(*(st.integers(0, d - 1) for _ in range(4))))
    a1, a2, b1, b2 = outcomes
    terms = ((1, 1, a1, b1, 1), (1, 2, a1, b2, 1), (2, 1, a2, b1, -1), (2, 2, a2, b2, 1))
    reference = sum(sign * Fraction(kernel_f(i, j, m, n, dim))
                    for i, j, m, n, sign in terms) / Fraction(d - 1, 2)
    value = lhv_value(DeterministicStrategy(dim, outcomes))
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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_witnesses_lie_in_the_a1_zero_block(self, d):
        # The outcome shift moves every tuple to A1 = 0 at the same value,
        # so the first witnesses in row-major order start there.
        report = lhv_bounds(Dimension(d))
        assert report.argmax.outcomes[0] == 0
        assert report.argmin.outcomes[0] == 0

    @pytest.mark.parametrize("d", range(3, MAX_ENUMERABLE_DIMENSION + 1))
    def test_minimum_matches_ratio_form(self, d):
        # the enumerated minimum lands exactly on -2(d + 1)/(d - 1)
        assert lhv_bounds(Dimension(d)).min_value == Fraction(-2 * (d + 1), d - 1)

    def test_d4_witnesses(self):
        report = lhv_bounds(Dimension(4))
        assert report.argmax.outcomes == (0, 0, 0, 0)
        assert report.argmin.outcomes == (0, 1, 3, 1)

    @pytest.mark.parametrize("d", range(3, MAX_ENUMERABLE_DIMENSION + 1))
    def test_first_witnesses_at_every_enumerable_dimension(self, d):
        # For d >= 3 the first maximizer is the aligned tuple and the
        # first minimizer is (0, 1, d - 1, 1); d = 2 has (0, 0, 0, 1).
        report = lhv_bounds(Dimension(d))
        assert report.max_value == Fraction(2)
        assert report.argmax.outcomes == (0, 0, 0, 0)
        assert report.argmin.outcomes == (0, 1, d - 1, 1)

    @pytest.mark.parametrize("d", range(2, MAX_ENUMERABLE_DIMENSION + 1))
    def test_bounds_are_cglmps_classical_bounds(self, d):
        # The kernel is CGLMP's I_d with Bob's outcomes relabelled
        # n -> (-n) mod d, which permutes the strategies, so the scan of
        # CGLMP's own coefficients gives the same extrema, and the
        # relabelled witnesses attain them there.
        report = lhv_bounds(Dimension(d))
        c = cglmp_coefficients(d).reshape(4, d, d).tolist()
        high, low, _, _ = _bounds(c, d - 1)
        assert (high, low) == (report.max_value, report.min_value)
        for witness, value in ((report.argmax, high), (report.argmin, low)):
            a1, a2, b1, b2 = witness.outcomes
            relabelled = (a1, a2, -b1 % d, -b2 % d)
            assert Fraction(sum(c[r][relabelled[i - 1]][relabelled[j + 1]]
                                for r, (i, j) in enumerate(SETTING_PAIRS)), d - 1) == value

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_witnesses_are_lexicographically_first(self, d):
        report = lhv_bounds(Dimension(d))
        values = {
            outcomes: lhv_value(DeterministicStrategy(Dimension(d), outcomes))
            for outcomes in itertools.product(range(d), repeat=4)
        }
        maximizers = [o for o, v in values.items() if v == report.max_value]
        minimizers = [o for o, v in values.items() if v == report.min_value]
        assert report.argmax.outcomes == min(maximizers)
        assert report.argmin.outcomes == min(minimizers)

    def test_witness_values_match_reported_bounds(self):
        for d in (2, 3, 4):
            report = lhv_bounds(Dimension(d))
            assert lhv_value(report.argmax) == report.max_value
            assert lhv_value(report.argmin) == report.min_value

    def test_enumeration_guard(self):
        with pytest.raises(ValidationError):
            lhv_bounds(Dimension(MAX_ENUMERABLE_DIMENSION + 1))

    @pytest.mark.parametrize("dim", [None, 4])
    def test_dimension_must_be_a_dimension(self, dim):
        with pytest.raises(ValidationError, match="must be a Dimension"):
            lhv_bounds(dim)


_D4 = Dimension(4)
# The public routes that take a kernel variant, called with `variant`.
_VARIANT_ROUTES = {
    "lhv_value": lambda variant: lhv_value(DeterministicStrategy(_D4, (0, 0, 0, 0)), variant),
    "lhv_bounds": lambda variant: lhv_bounds(_D4, variant),
}


@pytest.mark.parametrize("route", sorted(_VARIANT_ROUTES))
def test_unhashable_variant_is_rejected_on_every_route(route):
    # lhv_value checks the variant itself before it reads the table.
    with pytest.raises(ValidationError, match="KernelVariant"):
        _VARIANT_ROUTES[route](["plus"])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_plus_is_the_one_variant_and_the_default(d):
    # The surface the benchmark uses: it loops over KernelVariant and
    # passes the member positionally to both routes.
    plus = KernelVariant.PLUS
    assert list(KernelVariant) == [plus]
    dim = Dimension(d)
    assert lhv_bounds(dim, plus) == lhv_bounds(dim)
    for outcomes in itertools.product(range(d), repeat=4):
        strategy = DeterministicStrategy(dim, outcomes)
        assert lhv_value(strategy, plus) == lhv_value(strategy)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_value_is_invariant_under_the_outcome_shift(d):
    # (A1 + t, A2 + t, B1 - t, B2 - t) mod d has the value of
    # (A1, A2, B1, B2) for every tuple and every t, as m + n is unchanged.
    T = kernel_table(d).tolist()
    for a1, a2, b1, b2 in itertools.product(range(d), repeat=4):
        value = _value(T, (a1, a2, b1, b2), d - 1)
        for t in range(1, d):
            shifted = ((a1 + t) % d, (a2 + t) % d, (b1 - t) % d, (b2 - t) % d)
            assert _value(T, shifted, d - 1) == value


@pytest.mark.parametrize("d", range(2, 9))
def test_values_over_all_strategies_sum_to_zero(d):
    # Every row and column of each kernel table sums to zero, so each
    # setting pair's term sums to zero over the d^4 strategies and the
    # exact classical values average to 0.
    dim = Dimension(d)
    total = sum(lhv_value(DeterministicStrategy(dim, outcomes))
                for outcomes in itertools.product(range(d), repeat=4))
    assert total == 0 and isinstance(total, Fraction)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_scan_matches_brute_force_on_integer_tables(d):
    # The one scan on any integer (4, d, d) table: exact extrema and the
    # first witnesses in row-major order, against a brute force that
    # reads setting pair (i, j) as the outcomes (A_i, B_j).
    rng = np.random.default_rng(d)
    tuples = list(itertools.product(range(d), repeat=4))
    for _ in range(10):
        T = rng.integers(-5, 6, size=(4, d, d)).tolist()
        for denominator in (1, d - 1):
            values = [Fraction(sum(T[r][o[i - 1]][o[j + 1]]
                                   for r, (i, j) in enumerate(SETTING_PAIRS)), denominator)
                      for o in tuples]
            high, low = max(values), min(values)
            assert _bounds(T, denominator) == (
                high, low, tuples[values.index(high)], tuples[values.index(low)])


class TestStrategyValidation:
    def test_wrong_length(self):
        with pytest.raises(ValidationError):
            DeterministicStrategy(Dimension(3), (0, 1, 2))

    @pytest.mark.parametrize("outcomes", [None, 5])
    def test_outcomes_without_a_length(self, outcomes):
        with pytest.raises(ValidationError, match="fixes 4 outcomes"):
            DeterministicStrategy(Dimension(2), outcomes)

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
        with pytest.raises(ValidationError,
                           match=r"^outcome A1 must be an int in \[0, 1\], got True$"):
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
        # One integer rule, model._as_int: numpy outcomes are stored as ints.
        for outcomes in (np.array([1, 0, 1, 0]), (np.uint8(1), np.int16(0), 1, np.int64(0))):
            strategy = DeterministicStrategy(dim, outcomes)
            assert strategy.outcomes == (1, 0, 1, 0)
            assert all(type(value) is int for value in strategy.outcomes)


class TestReportValidation:
    def test_rejects_inverted_bounds(self):
        dim = Dimension(2)
        strategy = DeterministicStrategy(dim, (0, 0, 0, 0))
        with pytest.raises(ValidationError):
            LhvBoundsReport(dim, Fraction(-2), Fraction(2),
                            strategy, strategy)
