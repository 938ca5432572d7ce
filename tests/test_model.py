"""Core type validation and the kernel's hand-checked values."""

import math

import numpy as np
import pytest

import bellmp
from bellmp import (
    DegenerateStateError,
    Dimension,
    DimensionMismatchError,
    KernelVariant,
    MeasurementSettings,
    PhaseVector,
    PureState,
    ValidationError,
    kernel_f,
    make_state,
    maximally_entangled_state,
    zero_settings,
)
from bellmp.model import PAIR_SIGNS, SETTING_PAIRS, kernel_table

from helpers import cglmp_coefficients

PLUS = KernelVariant.PLUS
MINUS = KernelVariant.MINUS


class TestDimension:
    def test_valid(self):
        assert Dimension(2).d == 2
        assert Dimension(12).d == 12

    def test_spin(self):
        assert Dimension(2).spin == 0.5
        assert Dimension(3).spin == 1.0
        assert Dimension(4).spin == 1.5

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_too_small(self, bad):
        with pytest.raises(ValidationError):
            Dimension(bad)

    @pytest.mark.parametrize("bad", [2.0, "4", True, None, np.float64(4.0), np.True_])
    def test_not_an_int(self, bad):
        with pytest.raises(ValidationError):
            Dimension(bad)

    @pytest.mark.parametrize("d", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_numpy_int_is_stored_as_an_int(self, d):
        # One integer rule, model._is_int, for every integer input.
        dim = Dimension(d)
        assert type(dim.d) is int
        assert dim == Dimension(4)


# Hand-computed kernel values: f = S - ((eps * combo) mod d), eps = -1
# only for the setting pair (1, 2).
KERNEL_CASES = [
    (2, PLUS, 1, 1, 0, 0, 0.5),
    (2, PLUS, 1, 1, 0, 1, -0.5),
    (2, PLUS, 1, 2, 1, 1, 0.5),
    (2, MINUS, 2, 2, 1, 0, -0.5),
    (3, PLUS, 1, 1, 2, 2, 0.0),
    (3, PLUS, 2, 1, 0, 2, -1.0),
    (3, MINUS, 1, 2, 2, 0, 0.0),
    (4, PLUS, 1, 1, 0, 0, 1.5),
    (4, PLUS, 1, 1, 1, 2, -1.5),
    (4, PLUS, 2, 2, 3, 2, 0.5),
    (4, PLUS, 1, 2, 1, 2, 0.5),
    (4, PLUS, 1, 2, 0, 1, -1.5),
    (4, PLUS, 2, 1, 3, 3, -0.5),
    (4, MINUS, 1, 1, 1, 2, -1.5),
    (4, MINUS, 2, 2, 2, 3, -1.5),
    (4, MINUS, 1, 2, 1, 2, 0.5),
    (4, MINUS, 2, 1, 3, 1, -0.5),
]


class TestKernel:
    @pytest.mark.parametrize("d,variant,i,j,m,n,expected", KERNEL_CASES)
    def test_hand_computed_values(self, d, variant, i, j, m, n, expected):
        assert kernel_f(i, j, m, n, Dimension(d), variant) == expected

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("variant", [PLUS, MINUS])
    def test_each_level_appears_d_times(self, d, variant):
        # For fixed (i, j) the kernel takes value S - k on exactly d of
        # the d^2 outcome pairs, hence sums to zero exactly.
        dim = Dimension(d)
        for i in (1, 2):
            for j in (1, 2):
                values = [
                    kernel_f(i, j, m, n, dim, variant)
                    for m in range(d)
                    for n in range(d)
                ]
                for k in range(d):
                    assert values.count(dim.spin - k) == d
                assert math.fsum(values) == 0.0

    def test_range(self):
        dim = Dimension(5)
        for m in range(5):
            for n in range(5):
                v = kernel_f(1, 2, m, n, dim, PLUS)
                assert -dim.spin <= v <= dim.spin

    def test_bad_setting_index(self):
        with pytest.raises(ValidationError):
            kernel_f(0, 1, 0, 0, Dimension(4), PLUS)
        with pytest.raises(ValidationError):
            kernel_f(1, 3, 0, 0, Dimension(4), PLUS)

    def test_bad_outcome(self):
        with pytest.raises(ValidationError):
            kernel_f(1, 1, 4, 0, Dimension(4), PLUS)
        with pytest.raises(ValidationError):
            kernel_f(1, 1, 0, -1, Dimension(4), PLUS)

    @pytest.mark.parametrize("i,j,m,n", [(True, 1, 0, 0), (1.0, 2, 0, 1), (1, 1, 1.5, 0),
                                         (1, 1, True, 0), (2, 1, 0, np.True_), (1, 2, 0, 2.0)])
    def test_rejects_inputs_that_are_not_ints(self, i, j, m, n):
        # True == 1 and 1.0 == 1, but only an int is a setting index or
        # an outcome.
        with pytest.raises(ValidationError, match="setting indices|outcomes"):
            kernel_f(i, j, m, n, Dimension(4), PLUS)

    def test_accepts_numpy_int_inputs(self):
        dim = Dimension(4)
        value = kernel_f(np.int64(1), np.int32(2), np.int64(1), np.int8(3), dim, PLUS)
        assert value == kernel_f(1, 2, 1, 3, dim, PLUS)

    @pytest.mark.parametrize("variant", ["plus", "minus", None])
    def test_variant_must_be_a_kernel_variant(self, variant):
        with pytest.raises(ValidationError, match="KernelVariant"):
            kernel_f(1, 1, 0, 1, Dimension(4), variant)


class TestKernelTable:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_matches_scalar_kernel(self, d):
        # row r = 2 (i - 1) + (j - 1) holds sign_r * 2 f_ij, entry by entry
        dim = Dimension(d)
        K = kernel_table(d)
        assert K.shape == (4, d, d)
        for r, ((i, j), sign) in enumerate(zip(SETTING_PAIRS, PAIR_SIGNS)):
            assert r == 2 * (i - 1) + (j - 1)
            for m in range(d):
                for n in range(d):
                    assert K[r, m, n] == sign * 2 * kernel_f(i, j, m, n, dim, PLUS)

    def test_signs_follow_the_bell_combination(self):
        assert SETTING_PAIRS == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert PAIR_SIGNS == (1, 1, -1, 1)

    @pytest.mark.parametrize("d", range(2, 10))
    @pytest.mark.parametrize("axis", [pytest.param(2, id="rows"),
                                      pytest.param(1, id="columns")])
    def test_every_row_and_column_sums_to_zero(self, d, axis):
        # So an outcome table whose marginal on either side is uniform,
        # such as white noise, adds 0 to the Bell value.
        sums = kernel_table(d).sum(axis=axis)
        assert sums.shape == (4, d)
        assert not np.any(sums)

    def test_int64_read_only_and_cached(self):
        K = kernel_table(4)
        assert K.dtype == np.int64
        assert not K.flags.writeable
        with pytest.raises(ValueError):
            K[0, 0, 0] = 0
        assert kernel_table(4) is K

    @pytest.mark.parametrize("d", range(2, 33))
    def test_is_cglmp_with_bobs_outcomes_relabelled(self, d):
        # K[r, m, n] = (d - 1) c_r(m, (-n) mod d) for the CGLMP
        # coefficients c_r of the setting pair SETTING_PAIRS[r], exactly.
        c = cglmp_coefficients(d).reshape(4, d, d)
        assert np.array_equal(kernel_table(d), c[:, :, (-np.arange(d)) % d])


_D4 = Dimension(4)
# The public routes that take a kernel variant besides kernel_f (checked
# above), called with `variant`.
_VARIANT_ROUTES = {
    "lhv_value": lambda variant: bellmp.lhv_value(
        bellmp.DeterministicStrategy(_D4, (0, 0, 0, 0)), variant),
    "lhv_bounds": lambda variant: bellmp.lhv_bounds(_D4, variant),
}


@pytest.mark.parametrize("route", sorted(_VARIANT_ROUTES))
def test_unhashable_variant_is_rejected_on_every_route(route):
    # lhv_value checks the variant itself before it reads the table.
    with pytest.raises(ValidationError, match="KernelVariant"):
        _VARIANT_ROUTES[route](["plus"])


class TestPureState:
    def test_accepts_normalized(self):
        state = PureState(Dimension(4), (1.0, 1.0, 1.0, 1.0))
        assert state.coefficients == (1.0, 1.0, 1.0, 1.0)

    def test_rejects_wrong_norm(self):
        with pytest.raises(ValidationError):
            PureState(Dimension(4), (1.0, 1.0, 1.0, 1.1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PureState(Dimension(4), (2.0, 0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            PureState(Dimension(2), (math.nan, 1.0))

    def test_coerces_to_floats(self):
        state = PureState(Dimension(2), (1, 1))
        assert all(isinstance(c, float) for c in state.coefficients)


class TestMakeState:
    def test_already_normalized_is_unchanged(self):
        state = make_state(Dimension(4), (1.0, 1.0, 1.0, 1.0))
        assert state.coefficients == (1.0, 1.0, 1.0, 1.0)
        state = make_state(Dimension(4), (2.0, 0.0, 0.0, 0.0))
        assert state.coefficients == (2.0, 0.0, 0.0, 0.0)

    def test_rescales_to_the_sphere(self):
        state = make_state(Dimension(2), (3.0, 4.0))
        norm = sum(c * c for c in state.coefficients)
        assert abs(norm - 2.0) < 1e-14
        # direction preserved
        assert abs(state.coefficients[1] / state.coefficients[0] - 4.0 / 3.0) < 1e-14

    def test_keeps_signs(self):
        state = make_state(Dimension(3), (-1.0, 2.0, -2.0))
        assert state.coefficients[0] < 0
        assert state.coefficients[2] < 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_state(Dimension(4), (1.0, 1.0))

    @pytest.mark.parametrize("zeros", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)])
    def test_all_zero(self, zeros):
        with pytest.raises(DegenerateStateError):
            make_state(Dimension(3), zeros)

    def test_squares_that_overflow(self):
        # (1e200)^2 is inf; the state is (1, 1, 1e-200, 1e-200) rescaled
        state = make_state(Dimension(4), (1e200, 1e200, 1.0, 1.0))
        root2 = math.sqrt(2.0)
        assert state.coefficients == (root2, root2, root2 * 1e-200, root2 * 1e-200)
        assert state == make_state(Dimension(4), (1.0, 1.0, 1e-200, 1e-200))
        state = make_state(Dimension(2), (-1e300, 3e300))
        assert abs(state.coefficients[1] / state.coefficients[0] + 3.0) < 1e-14

    @pytest.mark.parametrize("coefficients,expected", [
        ((1e-200, 1e-200), (1.0, 1.0)),  # the squares are 0
        ((1e-160, -1e-160), (1.0, -1.0)),  # the squares are subnormal
        ((1e-320, 0.0), (math.sqrt(2.0), 0.0)),  # a subnormal entry
        ((0.0, -5e-324), (0.0, -math.sqrt(2.0))),  # the smallest one
    ], ids=["zero-squares", "subnormal-squares", "subnormal-entry", "smallest-entry"])
    def test_squares_that_underflow(self, coefficients, expected):
        assert make_state(Dimension(2), coefficients).coefficients == expected

    def test_ordinary_inputs_scale_by_the_norm(self):
        # the fallback leaves every input with normal finite squares alone
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = tuple(float(c) for c in rng.uniform(-3.0, 3.0, 4)
                           * 10.0 ** rng.integers(-150, 150))
            scale = math.sqrt(4 / sum(c * c for c in values))
            assert make_state(Dimension(4), values).coefficients == \
                tuple(c * scale for c in values)

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            make_state(Dimension(2), (math.inf, 1.0))

    # what float() raises becomes a validation error; 10**5000 has no repr
    @pytest.mark.parametrize("bad", [10**400, 10**5000, "x", None, 1j],
                             ids=["10**400", "10**5000", "str", "None", "complex"])
    def test_entries_float_cannot_take(self, bad):
        with pytest.raises(ValidationError, match="must be real numbers"):
            make_state(Dimension(2), (bad, 1.0))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_inputs_land_on_the_sphere(self, d):
        rng = np.random.default_rng(7 + d)
        for _ in range(50):
            state = make_state(Dimension(d), tuple(rng.uniform(-3.0, 3.0, d)))
            norm = sum(c * c for c in state.coefficients)
            assert abs(norm - d) <= 1e-12 * d


class TestMaximallyEntangled:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_all_ones(self, d):
        state = maximally_entangled_state(Dimension(d))
        assert state.coefficients == (1.0,) * d


class TestPhaseVector:
    def test_valid(self):
        vec = PhaseVector(Dimension(3), (0.0, 1.0, -2.5))
        assert vec.phases == (0.0, 1.0, -2.5)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PhaseVector(Dimension(3), (0.0, 1.0))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            PhaseVector(Dimension(2), (0.0, math.inf))

    @pytest.mark.parametrize("bad", [10**400, "x", None])
    def test_entries_float_cannot_take(self, bad):
        with pytest.raises(ValidationError, match="must be real numbers"):
            PhaseVector(Dimension(2), (bad, 0))


class TestMeasurementSettings:
    def test_selection(self):
        dim = Dimension(2)
        vecs = [PhaseVector(dim, (float(k), 0.0)) for k in range(4)]
        settings = MeasurementSettings(dim, *vecs)
        assert settings.a1 is vecs[0]
        assert settings.a2 is vecs[1]
        assert settings.b1 is vecs[2]
        assert settings.b2 is vecs[3]

    def test_mixed_dimensions_rejected(self):
        d2, d3 = Dimension(2), Dimension(3)
        good = PhaseVector(d2, (0.0, 0.0))
        bad = PhaseVector(d3, (0.0, 0.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            MeasurementSettings(d2, good, good, good, bad)


class TestZeroSettings:
    def test_all_zero(self):
        settings = zero_settings(Dimension(5))
        for vec in (settings.a1, settings.a2, settings.b1, settings.b2):
            assert vec.phases == (0.0,) * 5
