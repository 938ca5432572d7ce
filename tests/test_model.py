"""Core type validation and the kernel's hand-checked values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

import bellmp
from bellmp import (
    Dimension,
    MeasurementSettings,
    PhaseVector,
    PureState,
    ValidationError,
    kernel_f,
    make_state,
    maximally_entangled_state,
    zero_settings,
)
from bellmp.analytic import noise_resistance_gain, threshold_noise
from bellmp.engine import SampleEstimate, TCoefficients, bell_value_noisy
from bellmp.model import PAIR_SIGNS, SETTING_PAIRS, kernel_table
from bellmp.report import scan_rows

from helpers import cglmp_coefficients, random_settings

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
        # One integer rule, model._as_int, for every integer input.
        dim = Dimension(d)
        assert type(dim.d) is int
        assert dim == Dimension(4)


# Hand-computed kernel values: f = S - ((eps * (m + n)) mod d), eps = -1
# only for the setting pair (1, 2).
KERNEL_CASES = [
    (2, 1, 1, 0, 0, 0.5),
    (2, 1, 1, 0, 1, -0.5),
    (2, 1, 2, 1, 1, 0.5),
    (3, 1, 1, 2, 2, 0.0),
    (3, 2, 1, 0, 2, -1.0),
    (4, 1, 1, 0, 0, 1.5),
    (4, 1, 1, 1, 2, -1.5),
    (4, 2, 2, 3, 2, 0.5),
    (4, 1, 2, 1, 2, 0.5),
    (4, 1, 2, 0, 1, -1.5),
    (4, 2, 1, 3, 3, -0.5),
]


class TestKernel:
    @pytest.mark.parametrize("d,i,j,m,n,expected", KERNEL_CASES)
    def test_hand_computed_values(self, d, i, j, m, n, expected):
        assert kernel_f(i, j, m, n, Dimension(d)) == expected

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_each_level_appears_d_times(self, d):
        # For fixed (i, j) the kernel takes value S - k on exactly d of
        # the d^2 outcome pairs, hence sums to zero exactly.
        dim = Dimension(d)
        for i in (1, 2):
            for j in (1, 2):
                values = [
                    kernel_f(i, j, m, n, dim)
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
                v = kernel_f(1, 2, m, n, dim)
                assert -dim.spin <= v <= dim.spin

    def test_bad_setting_index(self):
        with pytest.raises(ValidationError):
            kernel_f(0, 1, 0, 0, Dimension(4))
        with pytest.raises(ValidationError):
            kernel_f(1, 3, 0, 0, Dimension(4))

    def test_bad_outcome(self):
        with pytest.raises(ValidationError):
            kernel_f(1, 1, 4, 0, Dimension(4))
        with pytest.raises(ValidationError):
            kernel_f(1, 1, 0, -1, Dimension(4))

    @pytest.mark.parametrize("i,j,m,n", [(True, 1, 0, 0), (1.0, 2, 0, 1), (1, 1, 1.5, 0),
                                         (1, 1, True, 0), (2, 1, 0, np.True_), (1, 2, 0, 2.0)])
    def test_rejects_inputs_that_are_not_ints(self, i, j, m, n):
        # True == 1 and 1.0 == 1, but only an int is a setting index or
        # an outcome.
        with pytest.raises(ValidationError, match=r"^(setting index [ij] must be an int in "
                                                  r"\[1, 2\]|outcome [mn] must be an int in "
                                                  r"\[0, 3\]), got "):
            kernel_f(i, j, m, n, Dimension(4))

    def test_accepts_numpy_int_inputs(self):
        dim = Dimension(4)
        value = kernel_f(np.int64(1), np.int32(2), np.int64(1), np.int8(3), dim)
        assert value == kernel_f(1, 2, 1, 3, dim)


class TestKernelTable:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_matches_scalar_kernel(self, d):
        # row r = 2 (i - 1) + (j - 1) holds sign_r * 2 f_ij, entry by entry
        dim, T = Dimension(d), kernel_table(d)
        assert T.shape == (4, d, d)
        for r, ((i, j), sign) in enumerate(zip(SETTING_PAIRS, PAIR_SIGNS)):
            assert r == 2 * (i - 1) + (j - 1)
            for m in range(d):
                for n in range(d):
                    assert T[r, m, n] == sign * 2 * kernel_f(i, j, m, n, dim)

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
_D2 = Dimension(2)
_ONE_SHOT = np.zeros((2, 2, 2, 2), dtype=np.int64)
_ONE_SHOT[:, :, 0, 0] = 1
# Every public entry point that takes a number, called with `x` in its
# place: a real number everywhere, an integer for the strategy outcomes.
_NUMBER_ROUTES = {
    "PureState": lambda x: PureState(_D2, (x, 1.0)),
    "PhaseVector": lambda x: PhaseVector(_D2, (x, 0.0)),
    "make_state": lambda x: make_state(_D2, (x, 1.0)),
    "scan_rows.r_from": lambda x: scan_rows(x, 2.0, 3),
    "scan_rows.r_to": lambda x: scan_rows(0.0, x, 3),
    "bell_value_noisy": lambda x: bell_value_noisy(
        maximally_entangled_state(_D2), zero_settings(_D2), x),
    "TCoefficients": lambda x: TCoefficients(x, 0.0, 0.0, 0.0, 0.0, 0.0),
    "threshold_noise": threshold_noise,
    "noise_resistance_gain": lambda x: noise_resistance_gain(x, 2.9),
    "noise_resistance_gain.reference": lambda x: noise_resistance_gain(2.9, x),
    "SampleEstimate.value_estimate": lambda x: SampleEstimate(1, _ONE_SHOT, x, 0.1),
    "SampleEstimate.std_error": lambda x: SampleEstimate(1, _ONE_SHOT, 0.0, x),
    "DeterministicStrategy": lambda x: bellmp.DeterministicStrategy(_D2, (x, 0, 0, 0)),
}
# The entry points that take a sequence of numbers, called with `s` as
# the whole sequence.
_SEQUENCE_ROUTES = {
    "PureState": lambda s: PureState(Dimension(len(s)), s),
    "PhaseVector": lambda s: PhaseVector(Dimension(len(s)), s),
    "make_state": lambda s: make_state(Dimension(len(s)), s),
    "DeterministicStrategy": lambda s: bellmp.DeterministicStrategy(Dimension(5), s),
}
_NUMERIC_CASES = [
    (name, call, bad) for name, call in _NUMBER_ROUTES.items()
    for bad in ("1", True, np.True_, None, 1j)
] + [
    (f"{name}(sequence)", call, bad) for name, call in _SEQUENCE_ROUTES.items()
    for bad in ("1234", "01")
]


@pytest.mark.parametrize("call,bad", [case[1:] for case in _NUMERIC_CASES],
                         ids=[f"{name}-{bad!r}" for name, _, bad in _NUMERIC_CASES])
def test_every_numeric_entry_point_rejects_what_is_not_a_number(call, bad):
    # One rule per kind, model._as_float_tuple and model._as_int: no
    # string is parsed, no bool counts as 0 or 1, and no complex passes.
    with pytest.raises(ValidationError):
        call(bad)


_V2 = PhaseVector(_D2, (0.0, 0.0))
# Every public entry point that takes a Dimension, called with `dim` in
# its place.
_DIMENSION_ROUTES = {
    "PhaseVector": lambda dim: PhaseVector(dim, (0.0, 0.0)),
    "PureState": lambda dim: PureState(dim, (1.0, 1.0)),
    "make_state": lambda dim: make_state(dim, (1.0, 1.0)),
    "maximally_entangled_state": maximally_entangled_state,
    "zero_settings": zero_settings,
    "MeasurementSettings": lambda dim: MeasurementSettings(dim, _V2, _V2, _V2, _V2),
    "MeasurementSettings.from_phases": lambda dim: MeasurementSettings.from_phases(
        dim, [(0.0, 0.0)] * 4),
    "kernel_f": lambda dim: kernel_f(1, 1, 0, 0, dim),
    "multiport_unitary": lambda dim: bellmp.multiport_unitary(dim, _V2),
    "MultiportUnitary": lambda dim: bellmp.MultiportUnitary(
        dim, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)),
    "JointProbabilityTable": lambda dim: bellmp.JointProbabilityTable(
        dim, np.full((2, 2, 2, 2), 0.25)),
    "DeterministicStrategy": lambda dim: bellmp.DeterministicStrategy(dim, (0, 0, 0, 0)),
    "lhv_bounds": bellmp.lhv_bounds,
    "optimize_joint": lambda dim: bellmp.optimize_joint(dim, bellmp.OptimizerConfig(restarts=1)),
}


@pytest.mark.parametrize("bad", [None, 2, 2.0, "2", (2,)])
@pytest.mark.parametrize("route", list(_DIMENSION_ROUTES))
def test_every_dimension_entry_point_rejects_what_is_not_a_dimension(route, bad):
    # One rule, model._require_dimension, where dim.d is first read.
    with pytest.raises(ValidationError, match="must be a Dimension"):
        _DIMENSION_ROUTES[route](bad)
    _DIMENSION_ROUTES[route](_D2)


_D3 = Dimension(3)
_FLAT2 = maximally_entangled_state(_D2)
_ZERO3 = zero_settings(_D3)
# Every route on which inputs disagree about d, or a state has no
# weight, with the message it raises.
_MISMATCH_ROUTES = {
    "PureState": (lambda: PureState(_D2, (1.0, 1.0, 0.0)), "expected 2 coefficients, got 3"),
    "PhaseVector": (lambda: PhaseVector(_D2, (0.0,)), "expected 2 phases, got 1"),
    "MeasurementSettings": (lambda: MeasurementSettings(_D2, _V2, _ZERO3.a2, _V2, _V2),
                            "setting a2 has dimension 3, expected 2"),
    "MeasurementSettings.from_phases": (
        lambda: MeasurementSettings.from_phases(_D2, [(0.0, 0.0)] * 3),
        "expected 4 phase rows, got 3"),
    "MultiportUnitary": (lambda: bellmp.MultiportUnitary(_D2, np.eye(3)),
                         "expected a 2x2 matrix, got (3, 3)"),
    "multiport_unitary": (lambda: bellmp.multiport_unitary(_D2, _ZERO3.a1),
                          "phases have dimension 3, expected 2"),
    "JointProbabilityTable": (
        lambda: bellmp.JointProbabilityTable(_D2, np.full((2, 2, 3, 3), 1 / 9)),
        "expected shape (2, 2, 2, 2), got (2, 2, 3, 3)"),
    "joint_probabilities": (lambda: bellmp.joint_probabilities(_FLAT2, _ZERO3),
                            "state dimension 2 != settings dimension 3"),
    "bell_value": (lambda: bellmp.bell_value(_FLAT2, _ZERO3),
                   "state dimension 2 != settings dimension 3"),
    "bell_value_noisy": (lambda: bell_value_noisy(_FLAT2, _ZERO3, 0.1),
                         "state dimension 2 != settings dimension 3"),
    "bell_gradient": (lambda: bellmp.bell_gradient(_FLAT2, _ZERO3),
                      "state dimension 2 != settings dimension 3"),
    "sample_experiment": (lambda: bellmp.sample_experiment(_FLAT2, _ZERO3, 10, 0),
                          "state dimension 2 != settings dimension 3"),
    "TCoefficients.bilinear": (
        lambda: TCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0).bilinear(
            maximally_entangled_state(_D3)),
        "the T decomposition is defined for dimension 4, got 3"),
    "make_state": (lambda: make_state(_D3, (0.0, -0.0, 0.0)),
                   "cannot normalize the all-zero state"),
}


@pytest.mark.parametrize("route", list(_MISMATCH_ROUTES))
def test_every_mismatch_and_degenerate_route_raises_validation_error(route):
    # ValidationError is the one error class for bad input.
    call, message = _MISMATCH_ROUTES[route]
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError
    assert str(info.value) == message


_D4_SHOT_LIMIT = (2**63 - 1) // 3
_FLAT4 = maximally_entangled_state(_D4)
_TABLE4 = bellmp.joint_probabilities(_FLAT4, zero_settings(_D4))
# Every integer input, called with `k` in its place: the message the one
# integer rule, model._as_int, raises up to ", got <repr(k)>", and the
# values it is checked with: a bool, a float, a value below the range
# and, where the range has an upper end, one above it.
_INTEGER_ROUTES = {
    "Dimension": (Dimension, "dimension must be an int >= 2", (True, 4.0, 1)),
    "OptimizerConfig.restarts": (lambda k: bellmp.OptimizerConfig(restarts=k),
                                 "restarts must be an int >= 1", (True, 5.0, 0)),
    "OptimizerConfig.seed": (lambda k: bellmp.OptimizerConfig(seed=k),
                             "seed must be an int >= 0", (True, 3.0, -1)),
    "scan_rows.steps": (lambda k: scan_rows(0.0, 1.0, k),
                        "steps must be an int >= 2", (True, 5.0, 1)),
    "SampleEstimate.shots_per_setting": (lambda k: SampleEstimate(k, _ONE_SHOT, 0.0, 0.1),
                                         "shots_per_setting must be an int >= 1",
                                         (True, 1.0, 0)),
    "sample_experiment.shots_per_setting": (
        lambda k: bellmp.sample_experiment(_FLAT4, zero_settings(_D4), k, 0),
        f"shots_per_setting at d = 4 must be an int in [1, {_D4_SHOT_LIMIT}]",
        (True, 10.0, 0, _D4_SHOT_LIMIT + 1)),
    "sample_experiment.seed": (
        lambda k: bellmp.sample_experiment(_FLAT4, zero_settings(_D4), 10, k),
        "seed must be an int >= 0", (True, 3.0, -1)),
    "kernel_f.i": (lambda k: kernel_f(k, 1, 0, 0, _D4),
                   "setting index i must be an int in [1, 2]", (True, 1.0, 0, 3)),
    "kernel_f.j": (lambda k: kernel_f(1, k, 0, 0, _D4),
                   "setting index j must be an int in [1, 2]", (True, 2.0, 0, 3)),
    "kernel_f.m": (lambda k: kernel_f(1, 1, k, 0, _D4),
                   "outcome m must be an int in [0, 3]", (True, 1.0, -1, 4)),
    "kernel_f.n": (lambda k: kernel_f(1, 1, 0, k, _D4),
                   "outcome n must be an int in [0, 3]", (True, 1.0, -1, 4)),
    "JointProbabilityTable.setting.i": (lambda k: _TABLE4.setting(k, 1),
                                        "setting index i must be an int in [1, 2]",
                                        (True, 1.0, 0, 3)),
    "JointProbabilityTable.setting.j": (lambda k: _TABLE4.setting(2, k),
                                        "setting index j must be an int in [1, 2]",
                                        (True, 2.0, 0, 3)),
    "DeterministicStrategy.A1": (lambda k: bellmp.DeterministicStrategy(_D3, (k, 0, 0, 0)),
                                 "outcome A1 must be an int in [0, 2]", (True, 1.0, -1, 3)),
    "DeterministicStrategy.B2": (lambda k: bellmp.DeterministicStrategy(_D3, [0, 0, 0, k]),
                                 "outcome B2 must be an int in [0, 2]", (True, 2.0, -1, 3)),
}
_INTEGER_CASES = [(route, bad) for route, (_, _, values) in _INTEGER_ROUTES.items()
                  for bad in values]


@pytest.mark.parametrize("route,bad", _INTEGER_CASES,
                         ids=[f"{route}-{bad!r}" for route, bad in _INTEGER_CASES])
def test_every_integer_input_raises_the_one_integer_message(route, bad):
    call, message, _ = _INTEGER_ROUTES[route]
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{message}, got {bad!r}"


class TestPureState:
    def test_accepts_normalized(self):
        state = PureState(Dimension(4), (1.0, 1.0, 1.0, 1.0))
        assert state.coefficients == (1.0, 1.0, 1.0, 1.0)

    def test_rejects_wrong_norm(self):
        with pytest.raises(ValidationError):
            PureState(Dimension(4), (1.0, 1.0, 1.0, 1.1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="expected 4 coefficients, got 2"):
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
        with pytest.raises(ValidationError, match="expected 4 coefficients, got 2"):
            make_state(Dimension(4), (1.0, 1.0))

    def test_empty_input_is_degenerate(self):
        # PureState checks the length; an empty sequence has no weight.
        with pytest.raises(ValidationError, match="cannot normalize the all-zero state"):
            make_state(Dimension(2), ())

    @pytest.mark.parametrize("zeros", [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)])
    def test_all_zero(self, zeros):
        with pytest.raises(ValidationError, match="cannot normalize the all-zero state"):
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
        with pytest.raises(ValidationError, match="expected 3 phases, got 2"):
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
        with pytest.raises(ValidationError, match="setting b2 has dimension 3, expected 2"):
            MeasurementSettings(d2, good, good, good, bad)

    @pytest.mark.parametrize("bad", [None, (0.0, 0.0), np.zeros(2)], ids=["None", "tuple", "array"])
    def test_member_that_is_not_a_phase_vector(self, bad):
        good = PhaseVector(_D2, (0.0, 0.0))
        with pytest.raises(ValidationError, match="setting b1 must be a PhaseVector"):
            MeasurementSettings(_D2, good, good, bad, good)

    def test_phases_stack_a1_a2_b1_b2_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for d in (2, 3, 4, 7):
            settings = random_settings(rng, d)
            members = (settings.a1, settings.a2, settings.b1, settings.b2)
            expected = np.stack([np.array(vec.phases) for vec in members])
            phases = np.array(settings.phases)
            assert phases.dtype == np.float64 and phases.shape == (4, d)
            assert phases.tobytes() == expected.tobytes()

    @hypothesis_settings(deadline=None)
    @given(original=st.integers(2, 6).flatmap(lambda d: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d),
        min_size=4, max_size=4).map(lambda rows: MeasurementSettings(
            Dimension(d), *(PhaseVector(Dimension(d), row) for row in rows)))))
    def test_from_phases_inverts_phases(self, original):
        # Tuples, lists and a (4, d) array of the same rows all round-trip.
        rows = np.array(original.phases)
        for phases in (original.phases, rows.tolist(), rows):
            assert MeasurementSettings.from_phases(original.dim, phases) == original

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_from_phases_takes_exactly_four_rows(self, count):
        with pytest.raises(ValidationError, match=f"expected 4 phase rows, got {count}"):
            MeasurementSettings.from_phases(_D2, [(0.0, 0.0)] * count)

    @pytest.mark.parametrize("row,name", enumerate(("A1", "A2", "B1", "B2")))
    def test_from_phases_checks_each_row_as_a_phase_vector(self, row, name):
        # PhaseVector's message, after the name of the row it is about.
        for bad, message in (([0.0] * 3, "expected 2 phases, got 3"),
                             ([0.0, "1"], "phase entries must be real numbers, got '1'"),
                             ([True, 0.0], "phase entries must be real numbers, got True"),
                             ([0.0, math.inf], "phase entries must be finite, got inf")):
            rows = [[0.0, 0.0]] * 4
            rows[row] = bad
            with pytest.raises(ValidationError) as info:
                MeasurementSettings.from_phases(_D2, rows)
            assert str(info.value) == f"{name}: {message}"
        with pytest.raises(ValidationError, match="four rows"):
            MeasurementSettings.from_phases(_D2, None)


def test_pair_slots_live_in_model_and_are_re_exported():
    # The package exports the model's tuple; analytic only imports it.
    assert bellmp.PAIR_SLOTS is bellmp.model.PAIR_SLOTS
    assert "PAIR_SLOTS" not in bellmp.analytic.__all__
    assert bellmp.model.PAIR_SLOTS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TestZeroSettings:
    def test_all_zero(self):
        settings = zero_settings(Dimension(5))
        for vec in (settings.a1, settings.a2, settings.b1, settings.b2):
            assert vec.phases == (0.0,) * 5
