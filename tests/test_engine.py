"""Probability engine checks against independent reference routes.

The joint table is rebuilt here by explicitly contracting two phased
Fourier transfer matrices (helpers.reference_table), the correlations
by direct kernel sums, and the analytic gradient by central
differences.  Agreement of the two routes is the main evidence the
fast class-amplitude path is right.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from bellmp import (
    BellError,
    Dimension,
    JointProbabilityTable,
    MeasurementSettings,
    MultiportUnitary,
    PhaseVector,
    SampleEstimate,
    ValidationError,
    bell_gradient,
    bell_value,
    bell_value_noisy,
    correlation_q,
    gamma_constants,
    joint_probabilities,
    make_state,
    maximally_entangled_state,
    multiport_unitary,
    sample_experiment,
    t_coefficients,
    zero_settings,
)
from bellmp import engine
from bellmp.model import PAIR_SLOTS
from bellmp.engine import TCoefficients, pair_matrix, value_and_gradient_arrays
from bellmp.model import SETTING_PAIRS

from helpers import (
    SETTING_SIGNS,
    central_difference_gradient,
    random_settings,
    random_state,
    reference_bell_value,
    reference_correlation,
    reference_table,
    transfer_matrix,
)

D4 = Dimension(4)


class TestMultiportUnitary:
    def test_d2_zero_phases(self):
        u = multiport_unitary(Dimension(2), PhaseVector(Dimension(2), (0.0, 0.0)))
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.max(np.abs(u.matrix - expected)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_unitary_and_unbiased(self, d):
        rng = np.random.default_rng(d)
        dim = Dimension(d)
        for _ in range(5):
            phases = PhaseVector(dim, tuple(rng.uniform(0.0, 2.0 * math.pi, d)))
            u = multiport_unitary(dim, phases)
            assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(d))) < 1e-12
            assert np.max(np.abs(np.abs(u.matrix) - 1.0 / math.sqrt(d))) < 1e-12

    def test_matches_direct_construction(self):
        rng = np.random.default_rng(11)
        dim = Dimension(4)
        phases = tuple(rng.uniform(0.0, 2.0 * math.pi, 4))
        u = multiport_unitary(dim, PhaseVector(dim, phases))
        assert np.max(np.abs(u.matrix - transfer_matrix(phases))) < 1e-14

    def test_phase_sits_on_columns(self):
        dim = Dimension(3)
        u0 = multiport_unitary(dim, PhaseVector(dim, (0.0, 0.0, 0.0)))
        phi = (0.0, 1.3, -0.4)
        u1 = multiport_unitary(dim, PhaseVector(dim, phi))
        expected = u0.matrix * np.exp(1j * np.asarray(phi))[None, :]
        assert np.max(np.abs(u1.matrix - expected)) < 1e-14

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            MultiportUnitary(Dimension(2), np.ones((2, 2), dtype=complex))

    def test_rejects_biased_unitary(self):
        # the identity is unitary but not flat-magnitude
        with pytest.raises(ValidationError):
            MultiportUnitary(Dimension(2), np.eye(2, dtype=complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match=r"expected a 3x3 matrix, got \(2, 2\)"):
            MultiportUnitary(Dimension(3), np.eye(2, dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="phases have dimension 2, expected 3"):
            multiport_unitary(Dimension(3), PhaseVector(Dimension(2), (0.0, 0.0)))

    def test_matrix_is_read_only(self):
        u = multiport_unitary(Dimension(2), PhaseVector(Dimension(2), (0.0, 0.0)))
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("dtype", [bool, str, bytes, object])
    def test_rejects_bool_and_text_matrices(self, dtype):
        # numpy would parse the text of a valid unitary back into it.
        u = multiport_unitary(Dimension(2), PhaseVector(Dimension(2), (0.0, 0.0)))
        with pytest.raises(ValidationError, match="matrix entries must be numbers"):
            MultiportUnitary(Dimension(2), u.matrix.astype(dtype))


class TestJointProbabilities:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_transfer_matrix_contraction(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(10):
            state = random_state(rng, d, signed=True)
            settings = random_settings(rng, d)
            table = joint_probabilities(state, settings)
            assert np.max(np.abs(table.probabilities
                                 - reference_table(state, settings))) < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_slices_normalized(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(10):
            table = joint_probabilities(
                random_state(rng, d), random_settings(rng, d)
            )
            sums = table.probabilities.sum(axis=(2, 3))
            assert np.max(np.abs(sums - 1.0)) < 1e-12
            assert np.min(table.probabilities) >= 0.0

    def test_maximally_entangled_zero_phases(self):
        # Amplitudes interfere fully: P = 1/4 on the (m + n) % 4 == 0
        # diagonal and 0 elsewhere.
        table = joint_probabilities(maximally_entangled_state(D4), zero_settings(D4))
        for i in (1, 2):
            for j in (1, 2):
                for m in range(4):
                    for n in range(4):
                        want = 0.25 if (m + n) % 4 == 0 else 0.0
                        assert abs(table.setting(i, j)[m, n] - want) < 1e-15

    def test_product_state_is_uniform(self):
        state = make_state(D4, (2.0, 0.0, 0.0, 0.0))
        table = joint_probabilities(state, zero_settings(D4))
        assert np.all(table.probabilities == 1.0 / 16.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="state dimension 4 != settings dimension 3"):
            joint_probabilities(
                maximally_entangled_state(D4), zero_settings(Dimension(3))
            )

    def test_setting_accessors(self):
        table = joint_probabilities(maximally_entangled_state(D4), zero_settings(D4))
        assert table.setting(2, 1).shape == (4, 4)
        with pytest.raises(ValidationError):
            table.setting(0, 1)

    @pytest.mark.parametrize("i,j", [(True, 1), (1, True), (np.True_, 2), (1.0, 2),
                                     (2, 2.0), ("1", 1), (None, 1)])
    def test_setting_rejects_indices_that_are_not_the_int_1_or_2(self, i, j):
        # True == 1 and 1.0 == 1, but neither is a setting index.
        table = joint_probabilities(maximally_entangled_state(D4), zero_settings(D4))
        with pytest.raises(ValidationError,
                           match=r"^setting index [ij] must be an int in \[1, 2\], got "):
            table.setting(i, j)

    def test_setting_accepts_numpy_int_indices(self):
        table = joint_probabilities(maximally_entangled_state(D4), zero_settings(D4))
        assert np.array_equal(table.setting(np.int64(1), np.int32(2)), table.setting(1, 2))

    @pytest.mark.parametrize("d", range(2, 17))
    def test_table_is_c_contiguous(self, d):
        rng = np.random.default_rng(1100 + d)
        for _ in range(5):
            table = joint_probabilities(random_state(rng, d, signed=True),
                                        random_settings(rng, d))
            assert table.probabilities.flags.c_contiguous


class TestJointProbabilityTableValidation:
    def test_clamps_tiny_negative(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = -1e-15
        p[0, 0, 0, 1] = 0.5 + 1e-15  # keep the slice sum at one
        table = JointProbabilityTable(Dimension(2), p)
        assert table.setting(1, 1)[0, 0] == 0.0

    def test_rejects_larger_negative(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[0, 0, 0, 0] = -1e-12
        p[0, 0, 0, 1] = 0.5 + 1e-12
        with pytest.raises(ValidationError):
            JointProbabilityTable(Dimension(2), p)

    def test_rejects_bad_slice_sum(self):
        with pytest.raises(ValidationError):
            JointProbabilityTable(Dimension(2), np.full((2, 2, 2, 2), 0.3))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError,
                           match=r"expected shape \(2, 2, 3, 3\), got \(2, 2, 2, 2\)"):
            JointProbabilityTable(Dimension(3), np.full((2, 2, 2, 2), 0.25))

    def test_rejects_non_finite(self):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 1, 1, 1] = math.nan
        with pytest.raises(ValidationError):
            JointProbabilityTable(Dimension(2), p)

    def test_read_only(self):
        table = JointProbabilityTable(Dimension(2), np.full((2, 2, 2, 2), 0.25))
        with pytest.raises(ValueError):
            table.probabilities[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("layout", ["outcomes-transposed", "fortran"])
    def test_stores_a_non_contiguous_input_in_c_order(self, d, layout):
        rng = np.random.default_rng(1150 + d)
        p = joint_probabilities(random_state(rng, d, signed=True),
                                random_settings(rng, d)).probabilities
        strided = p.swapaxes(2, 3) if layout == "outcomes-transposed" else np.asfortranarray(p)
        assert not strided.flags.c_contiguous
        table = JointProbabilityTable(Dimension(d), strided)
        assert table.probabilities.flags.c_contiguous
        assert np.array_equal(table.probabilities, strided)

    @pytest.mark.parametrize("p,message", [
        (np.full((2, 2, 2), 0.25), r"expected shape \(2, 2, 2, 2\), got \(2, 2, 2\)"),
        (np.full((2, 2, 2, 2), math.inf), "probabilities must be finite"),
        (np.full((2, 2, 2, 2), -0.25), "below the -1e-14 round-off allowance"),
        (np.full((2, 2, 2, 2), 0.3), "setting slices must sum to 1 within 1e-12"),
    ], ids=["shape", "finite", "negative", "sums"])
    def test_each_check_keeps_its_message(self, p, message):
        with pytest.raises(BellError, match=message):
            JointProbabilityTable(Dimension(2), p)

    def test_rejects_a_bool_table(self):
        # As floats, True at (0, 0) of each setting is a valid table with I = 2.
        p = np.zeros((2, 2, 2, 2), dtype=bool)
        p[:, :, 0, 0] = True
        with pytest.raises(ValidationError, match="probabilities must be numbers, got dtype bool"):
            JointProbabilityTable(Dimension(2), p)

    @pytest.mark.parametrize("entry,dtype", [
        ("0.25", None), (b"0.25", None), ("0.25", object), (Fraction(1, 4), object),
    ], ids=["str", "bytes", "object", "fraction"])
    def test_rejects_a_text_table(self, entry, dtype):
        # An object array would convert each entry through float(); a
        # caller with exact fractions converts with dtype=float first.
        with pytest.raises(ValidationError, match="probabilities must be numbers"):
            JointProbabilityTable(Dimension(2), np.full((2, 2, 2, 2), entry, dtype=dtype))


class TestCorrelationAndBellValue:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_correlation_matches_direct_kernel_sum(self, d):
        rng = np.random.default_rng(300 + d)
        dim = Dimension(d)
        for _ in range(5):
            state = random_state(rng, d, signed=True)
            settings = random_settings(rng, d)
            table = joint_probabilities(state, settings)
            for i in (1, 2):
                for j in (1, 2):
                    direct = reference_correlation(table.setting(i, j), i, j, dim)
                    assert abs(correlation_q(table, i, j) - direct) < 1e-13

    def test_correlation_bounded_by_one(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            table = joint_probabilities(random_state(rng, 4), random_settings(rng, 4))
            for i in (1, 2):
                for j in (1, 2):
                    assert abs(correlation_q(table, i, j)) <= 1.0 + 1e-12

    # True == 1 and 1.0 == 1, but neither is a setting index.
    @pytest.mark.parametrize("i,j", [(0, 1), (3, 1), (1, 3), (2, 0),
                                     (True, 2), (2, True), (1.0, 2), (1, 2.0)])
    def test_correlation_rejects_bad_setting_index(self, i, j):
        table = joint_probabilities(maximally_entangled_state(D4), zero_settings(D4))
        with pytest.raises(ValidationError):
            correlation_q(table, i, j)

    def test_correlation_accepts_numpy_int_indices(self):
        rng = np.random.default_rng(301)
        table = joint_probabilities(random_state(rng, 4), random_settings(rng, 4))
        for i, j in SETTING_PAIRS:
            assert correlation_q(table, np.int64(i), np.int64(j)) == correlation_q(table, i, j)

    def test_maximally_entangled_zero_phases_value(self):
        state = maximally_entangled_state(D4)
        settings = zero_settings(D4)
        table = joint_probabilities(state, settings)
        for i in (1, 2):
            for j in (1, 2):
                assert correlation_q(table, i, j) == 1.0
        assert bell_value(state, settings) == 2.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_bell_value_matches_reference(self, d):
        rng = np.random.default_rng(400 + d)
        for _ in range(8):
            state = random_state(rng, d, signed=True)
            settings = random_settings(rng, d)
            assert abs(bell_value(state, settings)
                       - reference_bell_value(state, settings)) < 1e-12

    def test_product_state_value_is_exactly_zero(self):
        # A single occupied port gives a flat table, and the kernel
        # sums to zero over it.  With port 0 occupied the cancellation
        # is exact in floats; other ports pick up per-class round-off
        # from the complex exponential, bounded well below 1e-14.
        rng = np.random.default_rng(5)
        prod2 = make_state(Dimension(2), (1.0, 0.0))
        prod4 = make_state(D4, (2.0, 0.0, 0.0, 0.0))
        shifted = make_state(D4, (0.0, 2.0, 0.0, 0.0))
        for _ in range(5):
            assert bell_value(prod2, random_settings(rng, 2)) == 0.0
            assert bell_value(prod4, random_settings(rng, 4)) == 0.0
            assert abs(bell_value(shifted, random_settings(rng, 4))) < 1e-14

    def test_gauge_invariance(self):
        # Adding a constant to any single phase vector cannot change
        # the value: only phase differences enter.
        rng = np.random.default_rng(6)
        state = random_state(rng, 4)
        settings = random_settings(rng, 4)
        base = bell_value(state, settings)
        for r in range(4):
            shifted = list(settings.phases)
            shifted[r] = [p + 0.7321 for p in shifted[r]]
            shifted_settings = MeasurementSettings.from_phases(D4, shifted)
            assert abs(bell_value(state, shifted_settings) - base) < 1e-12

    def test_returns_plain_float(self):
        value = bell_value(maximally_entangled_state(D4), zero_settings(D4))
        assert type(value) is float

    # d = 12 and 16 put 144 and 256 products in a setting's sum, past the
    # 128 elements at which numpy starts to split a sum pairwise.
    @pytest.mark.parametrize("d", range(2, 17))
    def test_table_contraction_equals_the_per_setting_sums_bit_for_bit(self, d):
        # The four K . P sums run as one contraction; each must still be
        # the per-slice sum, divided by d - 1 and added in setting order,
        # on a built, a noise-mixed and a handed-in strided table alike.
        rng = np.random.default_rng(700 + d)
        for _ in range(20):
            clean = joint_probabilities(random_state(rng, d, signed=True),
                                        random_settings(rng, d))
            for table in (clean, engine.mix_uniform_noise(clean, 0.3),
                          JointProbabilityTable(clean.dim, clean.probabilities.swapaxes(2, 3))):
                P = table.probabilities.reshape(4, d, d)
                reference = sum(float(np.sum(k * p) / (d - 1))
                                for k, p in zip(engine.kernel_table(d), P))
                assert engine.bell_value_from_table(table) == reference


class TestNoisyValue:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mixing_is_linear(self, d):
        # The uniform table carries value 0, so mixing rescales by 1 - F.
        rng = np.random.default_rng(500 + d)
        state = random_state(rng, d)
        settings = random_settings(rng, d)
        clean = bell_value(state, settings)
        for f in (0.0, 0.1, 0.3, 0.9):
            assert abs(bell_value_noisy(state, settings, f)
                       - (1.0 - f) * clean) < 1e-12

    def test_full_noise_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        state = maximally_entangled_state(D4)
        assert bell_value_noisy(state, random_settings(rng, 4), 1.0) == 0.0

    def test_zero_noise_equals_clean(self):
        state = maximally_entangled_state(D4)
        settings = zero_settings(D4)
        assert bell_value_noisy(state, settings, 0.0) == bell_value(state, settings)

    # Only real numbers: not bools, strings, None or lists.
    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan,
                                     "0.5", True, None, [0.1], "abc", np.True_])
    def test_rejects_out_of_range_noise(self, bad):
        with pytest.raises(ValidationError):
            bell_value_noisy(maximally_entangled_state(D4), zero_settings(D4), bad)

    @pytest.mark.parametrize("noise", [0, 1, np.int64(0), np.float32(0.25), np.float64(0.25)])
    def test_accepts_int_float_and_numpy_real_noise(self, noise):
        state, settings = maximally_entangled_state(D4), zero_settings(D4)
        assert bell_value_noisy(state, settings, noise) == 2.0 * (1.0 - float(noise))


class TestTCoefficients:
    def test_zero_phases_all_one_third(self):
        coeffs = t_coefficients(zero_settings(D4))
        assert coeffs.values() == (1.0 / 3.0,) * 6

    def test_bilinear_identity(self):
        # I = sum_{k<l} a_k a_l T_kl must hold for every d = 4 state
        # and settings pair.
        rng = np.random.default_rng(8)
        for _ in range(200):
            state = random_state(rng, 4, signed=True)
            settings = random_settings(rng, 4)
            coeffs = t_coefficients(settings)
            assert abs(coeffs.bilinear(state)
                       - bell_value(state, settings)) < 1e-12

    def test_magnitude_bounds(self):
        g = gamma_constants()
        rng = np.random.default_rng(9)
        for _ in range(300):
            coeffs = t_coefficients(random_settings(rng, 4))
            for (k, l), value in zip(PAIR_SLOTS, coeffs.values()):
                bound = g.gamma2 if l - k == 2 else g.gamma1
                assert abs(value) <= bound + 1e-12

    def test_constructor_enforces_bounds(self):
        with pytest.raises(ValidationError):
            TCoefficients(0.9, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            TCoefficients(0.0, 0.5, 0.0, 0.0, 0.0, 0.0)

    def test_values_are_stored_as_plain_floats(self):
        # Like every record, the coefficients keep plain floats, from
        # numpy scalars and ints alike.
        coeffs = TCoefficients(np.float64(0.5), 0, np.float32(0.25), np.int64(0), 0.0, -0.125)
        assert coeffs.values() == (0.5, 0.0, 0.25, 0.0, 0.0, -0.125)
        assert all(type(value) is float for value in coeffs.values())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(6))
    def test_constructor_rejects_non_finite_values(self, bad, slot):
        # abs(nan) > bound is False, so a bound check alone lets NaN in.
        values = [0.0] * 6
        values[slot] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            TCoefficients(*values)

    def test_requires_dimension_four(self):
        with pytest.raises(ValidationError):
            t_coefficients(zero_settings(Dimension(3)))

    @pytest.mark.parametrize("d", [3, 5])
    def test_bilinear_requires_a_dimension_four_state(self, d):
        coeffs = t_coefficients(zero_settings(D4))
        with pytest.raises(ValidationError, match=f"defined for dimension 4, got {d}$"):
            coeffs.bilinear(maximally_entangled_state(Dimension(d)))


class TestGradient:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_matches_central_differences(self, d):
        rng = np.random.default_rng(600 + d)
        for _ in range(5):
            state = random_state(rng, d, signed=True)
            settings = random_settings(rng, d)
            grad = bell_gradient(state, settings)
            fd = central_difference_gradient(state, settings)
            assert np.max(np.abs(grad - fd)) < 1e-6 * max(1.0, np.max(np.abs(grad)))

    def test_rows_sum_to_zero(self):
        # Gauge direction: shifting a whole phase vector is flat, so
        # each vector's gradient entries sum to zero.
        rng = np.random.default_rng(10)
        state = random_state(rng, 4)
        grad = bell_gradient(state, random_settings(rng, 4)).reshape(4, 4)
        assert np.max(np.abs(grad.sum(axis=1))) < 1e-12

    def test_low_level_value_agrees_with_table_route(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 4, 5, 6, 8):
            state = random_state(rng, d, signed=True)
            settings = random_settings(rng, d)
            phases = np.array(settings.phases)
            a = np.asarray(state.coefficients)
            value = value_and_gradient_arrays(a, engine._PAIRS @ phases)[0]
            expected = bell_value(state, settings)
            assert abs(value - expected) < 1e-12
            M = pair_matrix(phases)
            assert np.max(np.abs(M - M.T)) < 1e-14
            assert np.max(np.abs(np.diag(M))) < 1e-14
            assert abs(a @ M @ a - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="state dimension 4 != settings dimension 3"):
            bell_gradient(maximally_entangled_state(D4), zero_settings(Dimension(3)))


def _pair_blocks(P, coefficients, d):
    # Reference: setting pair r's block of the Hessian over its summed
    # phases theta_r, 2 (a_m a_n Re P[r, m, n] - delta_mn a_m Re(P[r] a)_m)
    # / ((d - 1) d^3), entry by entry.
    a = coefficients[..., None, :]
    pa = (P @ a[..., None])[..., 0]
    blocks = a[..., :, None] * a[..., None, :] * P.real
    for m in range(d):
        blocks[..., m, m] -= a[..., m] * pa.real[..., m]
    return blocks * (2.0 / ((d - 1) * d**3))


class TestThetaHessian:
    """No setting pair couples two summed phases: the angle kernel's
    Hessian over theta holds each pair's block on its diagonal and exact
    zeros off it."""

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("batch", [(), (1,), (7,)])
    def test_pair_blocks_on_the_diagonal_and_zeros_off_it(self, d, batch):
        rng = np.random.default_rng(d)
        theta = engine._PAIRS @ rng.uniform(-10.0, 10.0, batch + (4, d))
        a = rng.uniform(-2.0, 2.0, d)
        H = value_and_gradient_arrays(a, theta)[2]()
        assert H.shape == batch + (4, d, 4, d)
        blocks = _pair_blocks(engine._phased(theta), a, d)
        for r in range(4):
            for s in range(4):
                expected = blocks[..., r, :, :] if r == s else np.zeros(batch + (d, d))
                assert np.array_equal(H[..., r, :, s, :], expected)
                assert np.array_equal(np.signbit(H[..., r, :, s, :]), np.signbit(expected))

    @pytest.mark.parametrize("d", [2, 4, 7])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_summed_phase_maps_equal_plain_additions(self, d, batch):
        # theta = L phi and L^T q are products with the 0/1 incidence L;
        # each entry adds two terms, exactly as the additions do.
        rng = np.random.default_rng(d)
        phases = rng.uniform(-10.0, 10.0, batch + (4, d))
        thetas = np.stack([phases[..., i - 1, :] + phases[..., j + 1, :]
                           for i, j in SETTING_PAIRS], axis=-2)
        assert np.array_equal(engine._PAIRS @ phases, thetas)
        q = rng.uniform(-10.0, 10.0, batch + (4, d))
        # A_i collects the pairs (i, 1) and (i, 2), B_j the pairs (1, j) and (2, j).
        collected = np.stack([q[..., 0, :] + q[..., 1, :], q[..., 2, :] + q[..., 3, :],
                              q[..., 0, :] + q[..., 2, :], q[..., 1, :] + q[..., 3, :]], axis=-2)
        assert np.array_equal(engine._PAIRS.T @ q, collected)


def _random_case(seed, d):
    rng = np.random.default_rng(seed)
    return random_state(rng, d, signed=True), random_settings(rng, d)


_PROPERTY = hypothesis_settings(max_examples=40, deadline=None)
_CASES = {"seed": st.integers(0, 2**32 - 1), "d": st.integers(2, 8)}


@_PROPERTY
@given(vector=st.integers(0, 3), shift=st.floats(-10.0, 10.0), **_CASES)
def test_shifting_one_phase_vector_leaves_value_unchanged(seed, d, vector, shift):
    # Gauge: only phase differences within a vector enter the value.
    state, settings = _random_case(seed, d)
    rows = list(settings.phases)
    rows[vector] = [phase + shift for phase in rows[vector]]
    shifted = MeasurementSettings.from_phases(Dimension(d), rows)
    assert abs(bell_value(state, shifted) - bell_value(state, settings)) < 1e-12


@_PROPERTY
@given(k=st.integers(0, 7), **_CASES)
def test_sign_flip_is_absorbed_by_pi_on_alice(seed, d, k):
    # a_k -> -a_k with pi added to A1[k] and A2[k] leaves every setting
    # pair's amplitude unchanged; the joint search relies on it.
    state, settings = _random_case(seed, d)
    k %= d
    coefficients = list(state.coefficients)
    coefficients[k] = -coefficients[k]
    rows = [list(row) for row in settings.phases]
    rows[0][k] += math.pi
    rows[1][k] += math.pi
    flipped = make_state(Dimension(d), coefficients)
    assert abs(bell_value(flipped, MeasurementSettings.from_phases(Dimension(d), rows))
               - bell_value(state, settings)) < 1e-12


@_PROPERTY
@given(shift=st.integers(0, 7), **_CASES)
def test_dihedral_port_relabeling_leaves_value_unchanged(seed, d, shift):
    # Port k -> k + t (mod d), in the state and in all four phase rows,
    # multiplies each outcome class u's amplitude by gamma^{t u}; k -> -k
    # (mod d) with every phase negated conjugates it.  Without the negation
    # the reflection is no symmetry of the plus kernel.
    state, settings = _random_case(seed, d)
    a = np.array(state.coefficients)
    rows = np.array(settings.phases)
    expected = bell_value(state, settings)
    reflect = -np.arange(d) % d
    for relabeled, phases in ((np.roll(a, shift), np.roll(rows, shift, axis=1)),
                              (a[reflect], -rows[:, reflect])):
        value = bell_value(make_state(Dimension(d), tuple(relabeled)),
                           MeasurementSettings.from_phases(Dimension(d), phases))
        assert abs(value - expected) < 1e-12


@_PROPERTY
@given(seed=_CASES["seed"], k=st.integers(0, 3))
def test_pi_on_alice_negates_the_t_coefficients_of_that_port(seed, k):
    # The same shift alone maps T_kl to -T_kl for l != k and keeps the
    # other pairs; the d = 4 vertex tables are built from this.
    _, settings = _random_case(seed, 4)
    rows = [list(row) for row in settings.phases]
    rows[0][k] += math.pi
    rows[1][k] += math.pi
    before = t_coefficients(settings).values()
    after = t_coefficients(MeasurementSettings.from_phases(D4, rows)).values()
    for pair, old, new in zip(PAIR_SLOTS, before, after):
        expected = -old if k in pair else old
        assert abs(new - expected) < 1e-12


@_PROPERTY
@given(noise=st.floats(0.0, 1.0), **_CASES)
def test_noise_scales_value_linearly(seed, d, noise):
    state, settings = _random_case(seed, d)
    assert abs(bell_value_noisy(state, settings, noise)
               - (1.0 - noise) * bell_value(state, settings)) < 1e-12


# Checks the summed-phase map theta = L phi, which the pair matrix and
# the kernel share, against the table route.
@_PROPERTY
@given(**_CASES)
def test_pair_matrix_and_kernel_agree_with_the_table_route(seed, d):
    state, settings = _random_case(seed, d)
    a = np.asarray(state.coefficients)
    phases = np.array(settings.phases)
    expected = bell_value(state, settings)
    tolerance = 1e-12 * max(1.0, abs(expected))
    assert abs(a @ pair_matrix(phases) @ a - expected) <= tolerance
    value, gradient, _ = value_and_gradient_arrays(a, engine._PAIRS @ phases)
    assert abs(value - expected) <= tolerance
    # L^T carries the theta gradient to the phases.
    gradient = (engine._PAIRS.T @ gradient).reshape(-1)
    fd = central_difference_gradient(state, settings)
    assert np.max(np.abs(gradient - fd)) <= 1e-6 * max(1.0, np.max(np.abs(gradient)))


@pytest.mark.parametrize("d", range(2, 17))
def test_pair_matrix_is_symmetric_with_a_zero_diagonal_to_round_off(d):
    # Not exactly: |M_kk| reaches 2.1e-17 (d = 3) and |M - M^T| 1.1e-16
    # (d = 2) over seeds 0-2, so a value at a product state can print as
    # -3.5e-32 where bell_value gives 0.0.
    for seed in range(3):
        M = pair_matrix(np.array(random_settings(np.random.default_rng(100 * seed + d),
                                                 d).phases))
        assert np.max(np.abs(np.diag(M))) <= 1e-15
        assert np.max(np.abs(M - M.T)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 12, 16, 64])
def test_circulant_class_weights_match_the_class_sums(d):
    # The reference sums K[r] over each outcome class (m + n) mod d by
    # bincount; the engine reads the class weights off K[r, 0].  Bit for
    # bit, signed zeros included.
    V = engine._dft(d)
    classes = ((np.arange(d)[:, None] + np.arange(d)[None, :]) % d).ravel()
    expected = np.empty((4, d, d), dtype=complex)
    for r, K in enumerate(engine.kernel_table(d)):
        W = np.bincount(classes, weights=K.ravel(), minlength=d)
        expected[r] = (V.T * W) @ V.conj()
    assert np.array_equal(engine._circulant(d).view(np.uint64), expected.view(np.uint64))


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        state = maximally_entangled_state(D4)
        settings = zero_settings(D4)
        e1 = sample_experiment(state, settings, 2000, 11)
        e2 = sample_experiment(state, settings, 2000, 11)
        assert np.array_equal(e1.counts, e2.counts)
        assert e1.value_estimate == e2.value_estimate
        assert e1.std_error == e2.std_error

    def test_seed_changes_counts(self):
        state = maximally_entangled_state(D4)
        settings = zero_settings(D4)
        e1 = sample_experiment(state, settings, 2000, 11)
        e3 = sample_experiment(state, settings, 2000, 12)
        assert not np.array_equal(e1.counts, e3.counts)

    def test_counts_shape_and_slice_sums(self):
        rng = np.random.default_rng(14)
        state = random_state(rng, 3)
        estimate = sample_experiment(state, random_settings(rng, 3), 500, 3)
        assert estimate.counts.shape == (2, 2, 3, 3)
        assert np.all(estimate.counts.sum(axis=(2, 3)) == 500)
        assert estimate.counts.dtype == np.int64

    def test_degenerate_support_gives_exact_value(self):
        # Every sampled outcome of the zero-phase maximally entangled
        # experiment sits on a kernel level of 1.5, so the estimate is
        # exactly 2 for any seed while the smoothed error stays positive.
        state = maximally_entangled_state(D4)
        settings = zero_settings(D4)
        for seed in (0, 1, 99):
            estimate = sample_experiment(state, settings, 1000, seed)
            assert estimate.value_estimate == 2.0
            assert estimate.std_error > 0.0

    def test_estimate_converges_to_bell_value(self):
        rng = np.random.default_rng(15)
        state = random_state(rng, 4)
        settings = random_settings(rng, 4)
        exact = bell_value(state, settings)
        estimate = sample_experiment(state, settings, 40000, 123)
        assert abs(estimate.value_estimate - exact) < 5.0 * estimate.std_error
        assert estimate.std_error < 0.05

    def test_rejects_non_positive_shots(self):
        state = maximally_entangled_state(D4)
        with pytest.raises(ValidationError):
            sample_experiment(state, zero_settings(D4), 0, 0)

    @pytest.mark.parametrize("shots", [2.7, 5.0, "5", True, None])
    def test_rejects_shots_that_are_not_ints(self, shots):
        # Neither truncated nor parsed: 2.7 is not 2 shots.
        limit = (2**63 - 1) // 3
        with pytest.raises(ValidationError, match=rf"^shots_per_setting at d = 4 must be an int "
                                                  rf"in \[1, {limit}\], got "):
            sample_experiment(maximally_entangled_state(D4), zero_settings(D4), shots, 0)

    def test_accepts_numpy_int_shots(self):
        state, settings = maximally_entangled_state(D4), zero_settings(D4)
        estimate = sample_experiment(state, settings, np.int64(100), 3)
        assert type(estimate.shots_per_setting) is int
        assert np.array_equal(estimate.counts, sample_experiment(state, settings, 100, 3).counts)

    @_PROPERTY
    @given(data=st.data(), **_CASES)
    def test_counts_fill_every_slice_up_to_the_shot_limit(self, data, seed, d):
        limit = (2**63 - 1) // (d - 1)
        shots = data.draw(st.one_of(st.integers(1, limit), st.just(limit)))
        state, settings = _random_case(seed, d)
        estimate = sample_experiment(state, settings, shots, seed)
        assert estimate.counts.dtype == np.int64
        assert np.all(estimate.counts.sum(axis=(2, 3)) == shots)
        assert math.isfinite(estimate.value_estimate)
        assert estimate.std_error > 0.0

    @_PROPERTY
    @given(seed=_CASES["seed"], d=_CASES["d"])
    def test_flat_state_gives_two_at_the_shot_limit(self, seed, d):
        # The multinomial draw carries the round-off of the probability
        # table into a few hundred of ~10^18 counts at non-dyadic d, so
        # the estimate is 2 to round-off there and exactly 2 at d = 2, 4, 8.
        dim = Dimension(d)
        limit = (2**63 - 1) // (d - 1)
        estimate = sample_experiment(maximally_entangled_state(dim), zero_settings(dim),
                                     limit, seed)
        assert abs(estimate.value_estimate - 2.0) <= 1e-15
        assert estimate.std_error > 0.0
        if d in (2, 4, 8):
            assert estimate.value_estimate == 2.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 64])
    def test_rejects_one_shot_above_the_limit_before_building_the_table(self, d,
                                                                         monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the probability table must not be built")

        monkeypatch.setattr(engine, "joint_probabilities", refuse)
        dim = Dimension(d)
        with pytest.raises(ValidationError, match="shots_per_setting"):
            sample_experiment(maximally_entangled_state(dim), zero_settings(dim),
                              (2**63 - 1) // (d - 1) + 1, 0)

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 12, 16])
    @pytest.mark.parametrize("shots", [1, 7, 200_000, 10**12, "limit"])
    def test_counts_equal_per_setting_draws_on_one_stream_bit_for_bit(self, d, shots):
        # One multinomial draw over the four settings must give the counts
        # of four draws in setting order on the same seeded stream, each
        # setting's table divided by its own sum.  Summing the strided
        # table in place with P.sum(axis=1) changes counts at the int64
        # shot limit.
        if shots == "limit":
            shots = (2**63 - 1) // (d - 1)
        rng = np.random.default_rng(900 + d)
        for _ in range(3):
            state, settings = random_state(rng, d, signed=True), random_settings(rng, d)
            seed = int(rng.integers(2**32))
            table = engine.joint_probabilities(state, settings)
            stream = np.random.default_rng(seed)
            expected = np.zeros((2, 2, d, d), dtype=np.int64)
            for i, j in SETTING_PAIRS:
                p = table.setting(i, j).reshape(-1)
                expected[i - 1, j - 1] = stream.multinomial(shots, p / p.sum()).reshape(d, d)
            counts = sample_experiment(state, settings, shots, seed).counts
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected)

    def test_counts_read_only(self):
        estimate = sample_experiment(
            maximally_entangled_state(D4), zero_settings(D4), 10, 0
        )
        with pytest.raises(ValueError):
            estimate.counts[0, 0, 0, 0] = 5

    def test_estimate_validation(self):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[:, :, 0, 0] = 9  # slices sum to 9, not 10
        with pytest.raises(ValidationError):
            SampleEstimate(10, counts, 0.0, 0.1)

    @staticmethod
    def _counts(shots=10):
        counts = np.zeros((2, 2, 2, 2), dtype=np.int64)
        counts[:, :, 0, 0] = shots
        return counts

    def test_estimate_accepts_valid_records(self):
        assert SampleEstimate(10, self._counts(), 0.0, 0.1).shots_per_setting == 10
        assert SampleEstimate(np.int64(10), self._counts(), 0.0, 0.1).counts.shape == (2, 2, 2, 2)
        # One integer rule, model._as_int: a numpy shot count is stored as an int.
        for shots in (np.int64(10), np.int32(10), np.uint16(10)):
            record = SampleEstimate(shots, self._counts(), 0.0, 0.1)
            assert (type(record.shots_per_setting), record.shots_per_setting) == (int, 10)

    def test_value_and_error_are_plain_floats(self):
        # Like every record, the estimate keeps plain floats, from
        # sample_experiment and from numpy scalars alike.
        rng = np.random.default_rng(5)
        for d in (2, 4, 7):
            estimate = sample_experiment(random_state(rng, d), random_settings(rng, d), 1000, d)
            assert (type(estimate.value_estimate), type(estimate.std_error)) == (float, float)
        for value, error in ((np.float64(0.5), np.float32(0.25)), (np.int64(2), np.uint8(0))):
            record = SampleEstimate(10, self._counts(), value, error)
            assert (type(record.value_estimate), type(record.std_error)) == (float, float)
            assert (record.value_estimate, record.std_error) == (float(value), float(error))

    @pytest.mark.parametrize("counts", [
        np.full(4, 10),                             # 1-D
        np.full((2, 2, 10), 1),                     # three axes
        np.full((2, 3, 2, 2), 0),                   # not two settings per party
        np.zeros((2, 2, 2, 3), dtype=np.int64),     # outcome axes differ
    ])
    def test_estimate_rejects_counts_of_the_wrong_shape(self, counts):
        with pytest.raises(ValidationError, match=r"shape \(2, 2, k, k\)"):
            SampleEstimate(10, counts, 0.0, 0.1)

    def test_estimate_rejects_counts_that_are_not_integers(self):
        with pytest.raises(ValidationError, match="counts must be integers"):
            SampleEstimate(10, self._counts().astype(float), 0.0, 0.1)

    def test_estimate_rejects_negative_counts(self):
        counts = self._counts()
        counts[:, :, 0, 1] = -5
        counts[:, :, 1, 1] = 5  # slices still sum to 10
        with pytest.raises(ValidationError, match="non-negative"):
            SampleEstimate(10, counts, 0.0, 0.1)

    @pytest.mark.parametrize("value,error", [
        ("abc", 0.1), (math.nan, 0.1), (0.0, math.inf), (0.0, "0.1"), (0.0, True),
    ])
    def test_estimate_rejects_a_value_or_error_that_is_not_a_real_number(self, value, error):
        with pytest.raises(ValidationError, match="value_estimate and std_error must be"):
            SampleEstimate(10, self._counts(), value, error)

    def test_estimate_rejects_a_negative_std_error(self):
        with pytest.raises(ValidationError, match="std_error must be >= 0"):
            SampleEstimate(10, self._counts(), 0.0, -1.0)

    @pytest.mark.parametrize("shots", [True, 10.0, "10", None])
    def test_estimate_rejects_shot_counts_that_are_not_ints(self, shots):
        counts = self._counts(1 if shots is True else 10)
        with pytest.raises(ValidationError, match="shots_per_setting must be an int"):
            SampleEstimate(shots, counts, 0.0, 0.1)

    # d = 12 and 16: past numpy's 128-element pairwise split, as above.
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_estimate_equals_a_per_setting_loop_over_its_counts_bit_for_bit(self, d):
        # The four settings' sums run as (4, d^2) arrays; the estimate and
        # its error must equal the per-setting loop over the same counts.
        rng = np.random.default_rng(800 + d)
        limit = (2**63 - 1) // (d - 1)
        for shots in [1, 37, limit] + rng.integers(2, 10**6, 30).tolist():
            estimate = sample_experiment(random_state(rng, d, signed=True),
                                         random_settings(rng, d), shots,
                                         int(rng.integers(2**32)))
            value = variance = 0.0
            for K, c in zip(engine.kernel_table(d), estimate.counts.reshape(4, d, d)):
                value += np.sum(K * c) / ((d - 1) * shots)
                smoothed = (c + 0.5) / (shots + 0.5 * d * d)
                m1 = float(np.sum(smoothed * K))
                variance += float(np.sum(smoothed * (K - m1) ** 2)) / ((d - 1) ** 2 * shots)
            assert estimate.value_estimate == value
            assert estimate.std_error == math.sqrt(variance)
