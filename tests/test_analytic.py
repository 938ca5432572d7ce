"""Closed-form layer: radical constants, vertex tables, branch values.

The enumeration in vertex_candidates is kept deliberately independent
of the branch formulas.  The tests pin their exact relationship: the
enumeration always contains both branch values, strictly dominates
them on some states (a frozen example below), and bounds everything
the numeric optimizer can reach (checked in test_optimize).
"""

import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings as hypothesis_settings, strategies as st

from bellmp import (
    Dimension,
    MeasurementSettings,
    PAIR_SLOTS,
    PhaseVector,
    ValidationError,
    branch_values_max,
    branch_values_min,
    gamma_constants,
    make_state,
    maximally_entangled_state,
    optimal_max_state,
    optimal_min_state,
    reference_optimal_angles,
    sorted_magnitudes,
    t_coefficients,
    threshold_noise,
    vertex_candidates,
    vertex_patterns,
)
from bellmp.analytic import max_entangled_value, noise_resistance_gain

from helpers import random_state, reference_vertex_candidates, vertex_slot_sum

D4 = Dimension(4)

GAMMA1 = 0.871041976584251
GAMMA2 = 0.47140452079103173
GAMMA3 = 0.36079740009746464
ME_MAX = 2.896243218458708
ME_S1 = -3.195137571237352
AP = 1.137145255099279
AM = 0.8407738511664092
IMAX = 2.972698267102243
KP = 1.190381505709163
KM = 0.7635390434454455
IMIN = -3.4642382533934004

# Frozen state on which the enumeration strictly dominates both branch
# formulas (the optimizer confirms the max side is partly attainable,
# see test_optimize).
DOMINATED = (1.93276361, 0.36456124, 0.36237251, 0.01435635)

# Phase settings (A1, A2, B1, B2) at which t_coefficients reaches row 1
# of each vertex table, and row 4 of table 2, within 3e-11.
ATTAINING_PHASES = {
    (1, 1): ((0.0, -0.6588643758250123, 0.8031322000204701, 2.797179715664843),
             (0.0, -3.0150444790207125, -0.7676664063978356, 2.0117897250505035),
             (0.0, -0.5192418265866601, -1.5885286478528426, 3.093310039159789),
             (0.0, 1.8369554564611859, -0.017729834247565357, -2.4044828317824987)),
    (2, 1): ((0.0, 1.8668085661653144, -2.4919993633147177, 0.3196051762137673),
             (0.0, -0.4893860598824671, -0.9212058042772981, 2.6757976147980838),
             (0.0, 0.09668730985692697, 0.13580698664803625, -2.283099022399322),
             (0.0, 2.452880127368595, -1.4349897278463217, 1.6438910041181956)),
    (2, 4): ((0.0, 2.6322982580581815, 0.39413029259589827, -1.7990431125291406),
             (0.0, 0.2761048652760074, 1.9649242702432401, 0.5571524305805742),
             (0.0, -0.6688007695739233, 0.3912729824836072, -0.1644501223788759),
             (0.0, 1.6873874054394982, -1.1795292270701285, -2.5206486831713453)),
    (3, 1): ((0.0, 2.649368178517358, -2.8105220215038247, 1.5292636865144242),
             (0.0, -0.49222452636609226, -2.810522090607785, -1.6123290294982602),
             (0.0, -1.0785718004288043, -0.33107056298200943, -3.1000599508864317),
             (0.0, 2.0630208038302724, -0.3310706158154302, 0.04153261761194438)),
}


class TestGammaConstants:
    def test_frozen_decimals(self):
        g = gamma_constants()
        assert abs(g.gamma1 - GAMMA1) < 1e-15
        assert abs(g.gamma2 - GAMMA2) < 1e-15
        assert abs(g.gamma3 - GAMMA3) < 1e-15

    def test_radical_identities(self):
        # Gamma1 and Gamma3 are (sqrt2/3) sqrt(2 +/- sqrt2); their
        # squares add to 8/9 and their product is 2 sqrt2 / 9.
        g = gamma_constants()
        root2 = math.sqrt(2.0)
        assert abs(g.gamma1 - root2 / 3.0 * math.sqrt(2.0 + root2)) < 1e-15
        assert abs(g.gamma3 - root2 / 3.0 * math.sqrt(2.0 - root2)) < 1e-15
        assert abs(g.gamma1**2 + g.gamma3**2 - 8.0 / 9.0) < 1e-15
        assert abs(g.gamma1 * g.gamma3 - 2.0 * root2 / 9.0) < 1e-15
        assert abs(g.gamma2 - root2 / 3.0) < 1e-16

    def test_ordering(self):
        g = gamma_constants()
        assert g.gamma1 > 2.0 / 3.0 > g.gamma2 > g.gamma3 > 1.0 / 3.0

    def test_weighted_sum_is_the_flat_state_maximum(self):
        g = gamma_constants()
        combined = g.gamma1 + 2.0 * g.gamma2 + 3.0 * g.gamma3
        assert abs(combined - ME_MAX) < 1e-15
        closed = 2.0 / 3.0 * (math.sqrt(2.0) + math.sqrt(10.0 - math.sqrt(2.0)))
        assert abs(combined - closed) < 1e-15


class TestVertexPatterns:
    def test_twenty_four_rows_in_table_order(self):
        patterns = vertex_patterns()
        assert len(patterns) == 24
        assert [(p.table_id, p.row) for p in patterns] == [
            (t, r) for t in (1, 2, 3) for r in range(1, 9)
        ]

    def test_magnitude_multisets_per_table(self):
        g = gamma_constants()
        expected = {
            1: Counter({round(g.gamma3, 12): 3, round(g.gamma2, 12): 2,
                        round(g.gamma1, 12): 1}),
            2: Counter({round(g.gamma1, 12): 3, round(g.gamma2, 12): 2,
                        round(g.gamma3, 12): 1}),
            3: Counter({round(2.0 / 3.0, 12): 4, round(1.0 / 3.0, 12): 2}),
        }
        for pattern in vertex_patterns():
            counts = Counter(round(abs(s), 12) for s in pattern.signs)
            assert counts == expected[pattern.table_id], (
                pattern.table_id, pattern.row)

    def test_first_row_signs(self):
        g = gamma_constants()
        first = vertex_patterns()[0]
        assert first.signs == (g.gamma1, g.gamma2, g.gamma3,
                               g.gamma3, g.gamma2, g.gamma3)

    def test_rows_are_the_first_row_under_port_sign_flips(self):
        # Adding pi to A1[k] and A2[k] maps T_kl to -T_kl for l != k, so
        # row r of each table carries s_k s_l times its row 1 in slot (k, l).
        port_signs = ((1, 1, 1, 1), (1, -1, -1, -1), (1, -1, 1, 1), (1, 1, -1, 1),
                      (1, 1, 1, -1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
        patterns = vertex_patterns()
        for pattern in patterns:
            first = patterns[8 * (pattern.table_id - 1)].signs
            s = port_signs[pattern.row - 1]
            expected = tuple(s[k] * s[l] * v for (k, l), v in zip(PAIR_SLOTS, first))
            assert pattern.signs == expected, (pattern.table_id, pattern.row)

    @pytest.mark.parametrize("table_id,row", sorted(ATTAINING_PHASES))
    def test_frozen_phases_attain_the_row(self, table_id, row):
        # Each vertex is a T vector the phases can reach: these settings
        # were found once by least squares on t_coefficients.
        settings = MeasurementSettings(
            D4, *(PhaseVector(D4, phases) for phases in ATTAINING_PHASES[table_id, row]))
        pattern = vertex_patterns()[8 * (table_id - 1) + row - 1]
        got = t_coefficients(settings).values()
        assert max(abs(g - v) for g, v in zip(got, pattern.signs)) < 1e-9


class TestSortedMagnitudes:
    def test_orders_descending_with_stable_ties(self):
        state = make_state(D4, (1.0, 2.0, 1.0, 2.0))
        a = sorted_magnitudes(state)
        assert a[0] == a[1] > a[2] == a[3]

    def test_uses_absolute_values(self):
        state = make_state(D4, (-3.0, 1.0, -2.0, 0.5))
        a = sorted_magnitudes(state)
        assert a[0] > a[1] > a[2] > a[3]

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValidationError):
            sorted_magnitudes(maximally_entangled_state(Dimension(3)))


class TestBranchValues:
    def test_flat_state(self):
        me = maximally_entangled_state(D4)
        bmax = branch_values_max(me)
        assert abs(bmax.b1 - ME_MAX) < 1e-14
        assert bmax.max == bmax.b1
        bmin = branch_values_min(me)
        assert abs(bmin.s1 - ME_S1) < 1e-14
        assert abs(bmin.s2 + 10.0 / 3.0) < 1e-14
        assert bmin.min == bmin.s2

    def test_first_branch_never_below_second(self):
        # (A0 - A2)(A1 - A3) >= 0 for sorted magnitudes makes
        # B1 - B2 = (G1 - G3)(A0 - A2)(A1 - A3) + 2 G3 A2 A3 >= 0.
        rng = np.random.default_rng(31)
        for _ in range(2000):
            b = branch_values_max(random_state(rng, 4, signed=True))
            assert b.b1 >= b.b2 - 1e-12

    def test_invariant_under_signs_and_permutations(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            values = rng.uniform(0.1, 1.5, 4)
            base = make_state(D4, tuple(values))
            flipped = make_state(D4, tuple(values * np.array([1, -1, -1, 1])))
            shuffled = make_state(D4, tuple(values[[2, 0, 3, 1]]))
            # normalization sums squares in input order, so a shuffle
            # can shift the scale by one ulp; compare accordingly
            for other in (flipped, shuffled):
                got = branch_values_max(other)
                ref = branch_values_max(base)
                assert got.b1 == pytest.approx(ref.b1, rel=1e-14)
                assert got.b2 == pytest.approx(ref.b2, rel=1e-14)
                gmin = branch_values_min(other)
                rmin = branch_values_min(base)
                assert gmin.s1 == pytest.approx(rmin.s1, rel=1e-14)
                assert gmin.s2 == pytest.approx(rmin.s2, rel=1e-14)

    def test_optimal_max_family_value(self):
        # The larger branch at the radical state, which equals the
        # expansion a+^2 G1 + 2 a+ a- (G2 + G3) + a-^2 G3 on (a+, a+, a-, a-).
        state, value = optimal_max_state()
        assert value == branch_values_max(state).max
        ap, am = state.coefficients[0], state.coefficients[2]
        g = gamma_constants()
        expanded = ap * ap * g.gamma1 + 2.0 * ap * am * (g.gamma2 + g.gamma3) \
            + am * am * g.gamma3
        assert value == pytest.approx(expanded, abs=1e-14)

    def test_optimal_min_family_value(self):
        # The smaller branch at the radical state, which equals the
        # expansion -k+^2 G1 - 2 k+ k- (G1 + G2) + k-^2 G3 on (k+, k+, k-, k-).
        state, value = optimal_min_state()
        assert value == branch_values_min(state).min
        kp, km = state.coefficients[0], state.coefficients[2]
        g = gamma_constants()
        expanded = -kp * kp * g.gamma1 - 2.0 * kp * km * (g.gamma1 + g.gamma2) \
            + km * km * g.gamma3
        assert value == pytest.approx(expanded, abs=1e-14)


class TestOptimalStates:
    def test_max_family(self):
        state, value = optimal_max_state()
        assert state.coefficients[0] == state.coefficients[1]
        assert state.coefficients[2] == state.coefficients[3]
        assert abs(state.coefficients[0] - AP) < 1e-14
        assert abs(state.coefficients[2] - AM) < 1e-14
        assert abs(value - IMAX) < 1e-14

    def test_min_family(self):
        state, value = optimal_min_state()
        assert abs(state.coefficients[0] - KP) < 1e-14
        assert abs(state.coefficients[2] - KM) < 1e-14
        assert abs(value - IMIN) < 1e-14

    def test_families_sit_on_the_sphere(self):
        for state, _ in (optimal_max_state(), optimal_min_state()):
            assert abs(sum(c * c for c in state.coefficients) - 4.0) < 1e-12

    def test_max_beats_the_flat_state(self):
        _, value = optimal_max_state()
        assert value > ME_MAX + 0.07

    def test_min_beats_the_flat_state(self):
        _, value = optimal_min_state()
        assert value < -10.0 / 3.0 - 0.13


class TestVertexCandidates:
    def test_flat_state_extrema_and_witnesses(self):
        extrema = vertex_candidates(maximally_entangled_state(D4))
        assert abs(extrema.max - ME_MAX) < 1e-14
        assert abs(extrema.min + 10.0 / 3.0) < 1e-14
        wit_max, wit_min = extrema.witnesses
        assert (wit_max.pattern.table_id, wit_max.pattern.row) == (1, 1)
        assert wit_max.assignment == (0, 1, 2, 3)
        assert (wit_min.pattern.table_id, wit_min.pattern.row) == (3, 1)
        assert wit_min.assignment == (0, 1, 2, 3)

    def test_optimal_states_agree_with_branches(self):
        state, value = optimal_max_state()
        extrema = vertex_candidates(state)
        assert abs(extrema.max - value) < 1e-12
        wit_max = extrema.witnesses[0]
        assert (wit_max.pattern.table_id, wit_max.pattern.row) == (1, 1)

        state, value = optimal_min_state()
        extrema = vertex_candidates(state)
        assert abs(extrema.min - value) < 1e-12
        wit_min = extrema.witnesses[1]
        assert (wit_min.pattern.table_id, wit_min.pattern.row) == (2, 1)

    def test_contains_both_branches(self):
        # pattern (1, 1) with the identity assignment reproduces B1, so
        # the enumerated max can never fall below it; empirically it
        # also never falls below B2 or above S1, S2.
        rng = np.random.default_rng(33)
        for _ in range(500):
            state = random_state(rng, 4, signed=True)
            extrema = vertex_candidates(state)
            bmax = branch_values_max(state)
            bmin = branch_values_min(state)
            assert extrema.max >= bmax.max - 1e-12
            assert extrema.min <= bmin.min + 1e-12

    def test_strict_dominance_on_frozen_state(self):
        # On this state the enumeration exceeds the larger branch by
        # about 0.166 and undershoots the smaller one by about 0.218;
        # the branch values are not the enumeration extrema.
        state = make_state(D4, DOMINATED)
        extrema = vertex_candidates(state)
        bmax = branch_values_max(state)
        bmin = branch_values_min(state)
        assert abs(bmax.max - 1.005927248) < 1e-6
        assert abs(extrema.max - 1.171967529) < 1e-6
        assert abs(bmin.min + 1.083738103) < 1e-6
        assert abs(extrema.min + 1.301844148) < 1e-6
        assert extrema.max > bmax.max + 0.16
        assert extrema.min < bmin.min - 0.21

    def test_scale_of_search_space(self):
        # 24 patterns x 24 assignments; witnesses must reference rows
        # that exist
        extrema = vertex_candidates(make_state(D4, (1.3, 0.2, 0.9, 1.1)))
        for witness in extrema.witnesses:
            assert 1 <= witness.pattern.table_id <= 3
            assert 1 <= witness.pattern.row <= 8
            assert sorted(witness.assignment) == [0, 1, 2, 3]

    def test_matches_the_per_slot_loop_on_seeded_states(self):
        # Equal reprs, so a signed zero or a last-bit difference fails, and
        # equal witnesses, so the (table, row, assignment) tie rule holds.
        rng = np.random.default_rng(27)
        bases = [(1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 1.0)]
        for _ in range(650):
            x, y = rng.uniform(0.0, 1.0, 2)
            bases.append((x, x, y, y))
            bases.append(tuple(rng.uniform(0.0, 1.0, 4) * (rng.random(4) < 0.6)))
            bases.append(tuple(rng.uniform(0.05, 1.0, 4)))
            bases.append(tuple(rng.uniform(-1.0, 1.0, 4)))
        checked = 0
        for base in bases:
            if not any(base):
                continue
            flips = rng.choice((-1.0, 1.0), 4)
            for coefficients in (base, tuple(flips * base)):
                state = make_state(D4, coefficients)
                got = vertex_candidates(state)
                want = reference_vertex_candidates(state)
                assert (repr(got.max), repr(got.min)) == (repr(want.max), repr(want.min))
                assert got.witnesses == want.witnesses
                checked += 1
        assert checked >= 5000

    def test_enumeration_does_not_import_numpy_ma(self):
        # np.unique would import numpy.ma on first use, about 0.9 MB of
        # resident memory in a fresh process.
        code = ("import sys\n"
                "from bellmp import Dimension, make_state, vertex_candidates\n"
                "vertex_candidates(make_state(Dimension(4), (1.3, 0.2, 0.9, 1.1)))\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(coefficients=st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    def test_each_witness_reproduces_its_extremum_by_the_slot_sum(self, coefficients):
        assume(any(coefficients))
        state = make_state(D4, coefficients)
        extrema = vertex_candidates(state)
        wit_max, wit_min = extrema.witnesses
        assert vertex_slot_sum(state, wit_max) == extrema.max
        assert vertex_slot_sum(state, wit_min) == extrema.min


class TestThresholdNoise:
    def test_frozen_values(self):
        assert abs(threshold_noise(ME_MAX) - 0.30945026051218905) < 1e-12
        assert abs(threshold_noise(IMAX) - 0.3272105608116156) < 1e-12

    def test_no_violation_gives_non_positive_threshold(self):
        assert threshold_noise(2.0) == 0.0
        assert threshold_noise(1.0) < 0.0

    def test_relative_gain(self):
        gain = (threshold_noise(IMAX) - threshold_noise(ME_MAX)) \
            / threshold_noise(ME_MAX)
        assert abs(gain - 0.05739306947110157) < 1e-12
        assert noise_resistance_gain(IMAX, ME_MAX) == gain

    def test_flat_state_maximum(self):
        g = gamma_constants()
        assert max_entangled_value() == g.gamma1 + 2.0 * g.gamma2 + 3.0 * g.gamma3
        assert abs(max_entangled_value() - ME_MAX) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_non_positive_input(self, bad):
        with pytest.raises(ValidationError):
            threshold_noise(bad)

    def test_rejects_a_value_whose_threshold_overflows(self):
        # 2/I is inf, so 1 - 2/I would be -inf, not a real number.
        with pytest.raises(ValidationError, match="^threshold 1 - 2/I overflows a float at 1e-320$"):
            threshold_noise(1e-320)

    @pytest.mark.parametrize("reference", [2.0, 1.5])
    def test_gain_rejects_a_reference_that_does_not_violate(self, reference):
        # A reference at the classical bound has a zero threshold and one
        # below it a negative one; neither gives a relative gain.
        with pytest.raises(ValidationError):
            noise_resistance_gain(IMAX, reference)


class TestReferenceAngles:
    def test_frozen_table(self):
        settings = reference_optimal_angles()
        pi = math.pi
        assert settings.a1.phases == (0.0, pi / 6.0, -pi, 4.0 * pi / 9.0)
        assert settings.a2.phases == (0.0, -5.0 * pi / 9.0, 5.0 * pi / 9.0, -pi / 3.0)
        assert settings.b1.phases == (0.0, -pi / 2.0, 13.0 * pi / 18.0,
                                      -11.0 * pi / 18.0)
        assert settings.b2.phases == (0.0, 7.0 * pi / 36.0, -27.0 * pi / 36.0,
                                      -7.0 * pi / 18.0)

    def test_recorded_evaluations(self):
        # The table does not reproduce the optimizer's maxima under
        # this probability model; these are the diagnostic values the
        # reproduce command reports.
        from bellmp import bell_value

        settings = reference_optimal_angles()
        state, _ = optimal_max_state()
        assert abs(bell_value(state, settings) - 2.2412301822967566) < 1e-12
        me = maximally_entangled_state(D4)
        assert abs(bell_value(me, settings) - 2.054640277211943) < 1e-12
