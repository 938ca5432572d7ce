"""Multi-start optimizer: reproducibility, known extrema, bounds.

Frozen values below were produced by the configurations shown and
double-checked against the closed forms where one exists.  The suite
also pins the relationship between the numeric search and the
closed-form layer: restart values always stay inside the enumerated
vertex extrema, the attained optimum sometimes exceeds the branch
formulas (st2) and sometimes cannot reach them (st4).
"""

import ast
import functools
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bellmp.engine
import bellmp.optimize
from bellmp import (
    PAIR_SLOTS,
    Dimension,
    Direction,
    OptimizerConfig,
    ValidationError,
    bell_value,
    branch_values_max,
    branch_values_min,
    gamma_constants,
    make_state,
    max_abs_t_coefficient,
    maximally_entangled_state,
    optimal_max_state,
    optimal_min_state,
    optimize_angles,
    optimize_joint,
    t_coefficients,
    vertex_candidates,
)
from bellmp.engine import extreme_value_and_gradient, pair_matrix, value_and_gradient_arrays

from helpers import (angles_dsweep_states, random_state, reference_coordinate_map,
                     reference_extreme_hessian, reference_shifted, reference_theta_hessian)

D4 = Dimension(4)
ME_MAX = 2.896243218458708
IMAX = 2.972698267102243
IMIN = -3.4642382533934004
AP = 1.137145255099279
AM = 0.8407738511664092
KP = 1.190381505709163
KM = 0.7635390434454455

# States with a frozen optimum that disagrees with the branch values.
ST2 = (0.241576202, 1.966155825, 0.196910366, 0.192609751)
ST4 = (0.964311069, 1.418108747, 0.808998253, 0.636076702)
CX = (1.93276361, 0.36456124, 0.36237251, 0.01435635)

T01_SEARCH = functools.partial(max_abs_t_coefficient, (0, 1))


class TestConfigValidation:
    def test_defaults(self):
        config = OptimizerConfig()
        assert config.restarts == 50
        assert config.seed == 0
        assert config.direction is Direction.MAXIMIZE

    @pytest.mark.parametrize("build,kwargs", [
        (OptimizerConfig, {"restarts": 0}),
        (OptimizerConfig, {"restarts": 1.5}),
        (OptimizerConfig, {"restarts": True}),
        (OptimizerConfig, {"seed": -1}),
        (OptimizerConfig, {"seed": 1.5}),
        (OptimizerConfig, {"seed": True}),
        (OptimizerConfig, {"direction": "max"}),
        # the |T_kl| search checks its arguments through OptimizerConfig
        (T01_SEARCH, {"restarts": 0}),
        (T01_SEARCH, {"restarts": -1}),
        (T01_SEARCH, {"restarts": 1.5}),
        (T01_SEARCH, {"restarts": True}),
        (T01_SEARCH, {"seed": -1}),
    ])
    def test_rejects_bad_fields(self, build, kwargs):
        with pytest.raises(ValidationError):
            build(**kwargs)

    @pytest.mark.parametrize("restarts", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_int_restarts_are_stored_as_an_int(self, restarts):
        # One integer rule, model._as_int, for every integer input: the
        # seed as well.
        config = OptimizerConfig(restarts=restarts, seed=restarts)
        assert (type(config.restarts), type(config.seed)) == (int, int)
        assert config == OptimizerConfig(restarts=5, seed=5)


class TestFixedStateSearch:
    @pytest.mark.parametrize("seed", [0, 123])
    def test_flat_state_maximum(self, seed):
        me = maximally_entangled_state(D4)
        run = optimize_angles(me, OptimizerConfig(restarts=6, seed=seed))
        assert abs(run.best.value - ME_MAX) < 1e-9
        assert run.converged
        # winning settings must reproduce the reported value exactly
        # through the probability pipeline
        assert abs(bell_value(run.best.state, run.best.settings)
                   - run.best.value) < 1e-9

    def test_flat_state_minimum_matches_classical_bound(self):
        me = maximally_entangled_state(D4)
        run = optimize_angles(
            me, OptimizerConfig(restarts=10, seed=1,
                                direction=Direction.MINIMIZE))
        assert abs(run.best.value + 10.0 / 3.0) < 1e-9
        assert min(run.per_restart_values) >= -10.0 / 3.0 - 1e-9

    def test_three_outcome_extrema(self):
        me3 = maximally_entangled_state(Dimension(3))
        run = optimize_angles(
            me3, OptimizerConfig(restarts=8, seed=2,
                                 direction=Direction.MINIMIZE))
        assert abs(run.best.value + 4.0) < 1e-9
        run = optimize_angles(me3, OptimizerConfig(restarts=8, seed=2))
        closed = 4.0 / 9.0 * (3.0 + 2.0 * math.sqrt(3.0))
        assert abs(run.best.value - closed) < 1e-9

    def test_run_invariants(self):
        me = maximally_entangled_state(D4)
        run = optimize_angles(me, OptimizerConfig(restarts=5, seed=3))
        assert len(run.per_restart_values) == 5
        assert run.best.value == max(run.per_restart_values)
        assert run.iterations_used > 0
        # ties keep the lowest restart index
        assert run.per_restart_values.index(run.best.value) == run.best_restart
        assert run.per_restart_eigengaps == ()

        run = optimize_angles(
            me, OptimizerConfig(restarts=3, seed=3,
                                direction=Direction.MINIMIZE))
        assert run.best.value == min(run.per_restart_values)
        assert run.per_restart_values.index(run.best.value) == run.best_restart

    @pytest.mark.parametrize("coefficients,free,best_max,best_min", [
        ((1, 0, 1, 0), [2], 0.942809041582, -0.942809041582),
        ((0, 1, 1, 1), [2, 3], 2.270991863297, -2.951317965279),
    ], ids=["1010", "0111"])
    def test_search_frees_only_the_columns_the_state_reaches(
            self, coefficients, free, best_max, best_min):
        # A column with a_k = 0 leaves the value unchanged and the first
        # column of the support is the gauge, so only the support's other
        # columns are free and every other column stays exactly +0.0.
        # The optima are those of a search over every column but 0.
        state = make_state(D4, coefficients)
        for direction, want in ((Direction.MAXIMIZE, best_max), (Direction.MINIMIZE, best_min)):
            run = optimize_angles(state, OptimizerConfig(restarts=8, seed=0, direction=direction))
            assert abs(run.best.value - want) < 1e-12
            phases = np.array(run.best.settings.phases)
            fixed = np.delete(phases, free, axis=1)
            assert np.array_equal(fixed, np.zeros_like(fixed))
            assert not np.any(np.signbit(fixed))
            assert abs(bell_value(state, run.best.settings) - run.best.value) <= 1e-12


class TestDeterminism:
    def test_same_config_same_bits(self):
        state = make_state(D4, (1.2, 0.7, 1.1, 0.9))
        config = OptimizerConfig(restarts=4, seed=11)
        a = optimize_angles(state, config)
        b = optimize_angles(state, config)
        assert a.per_restart_values == b.per_restart_values
        assert a.best.value == b.best.value
        assert a.best.settings.a1.phases == b.best.settings.a1.phases


class TestRestartCounters:
    @pytest.mark.parametrize("free_state", [False, True])
    def test_counters_cover_every_restart(self, free_state):
        config = OptimizerConfig(restarts=7, seed=3)
        if free_state:
            run = optimize_joint(D4, config)
        else:
            run = optimize_angles(maximally_entangled_state(D4), config)
        for counters in (run.per_restart_values, run.per_restart_iterations,
                         run.per_restart_converged, run.per_restart_gradient_norms,
                         run.per_restart_rejected, run.per_restart_mu):
            assert len(counters) == 7
        assert len(run.per_restart_eigengaps) == (7 if free_state else 0)
        assert sum(run.per_restart_iterations) == run.iterations_used
        best = run.best_restart
        assert run.best.value == run.per_restart_values[best]
        assert run.converged == run.per_restart_converged[best]
        gradient_test = [norm <= bellmp.optimize._GRADIENT_TOLERANCE
                         for norm in run.per_restart_gradient_norms]
        if free_state:
            gap_test = [gap > bellmp.optimize._GAP_RTOL * (1.0 + abs(value))
                        for value, gap in zip(run.per_restart_values, run.per_restart_eigengaps)]
        else:
            gap_test = [True] * 7
        assert list(run.per_restart_converged) == [
            passed and simple for passed, simple in zip(gradient_test, gap_test)]
        assert 0 < run.evaluations.calls <= run.evaluations.rows
        assert run.evaluations.hessians <= run.evaluations.rows - sum(run.per_restart_rejected)
        for iterations, rejected, mu in zip(run.per_restart_iterations,
                                            run.per_restart_rejected, run.per_restart_mu):
            assert 0 <= rejected <= iterations
            # mu starts at 1, grows by 4 per rejected step and shrinks by 4
            # per kept one, except where the 1e-10 floor holds it up
            assert max(4.0 ** (2 * rejected - iterations), 1e-10) <= mu <= 4.0 ** rejected

    def test_a_capped_restart_is_not_converged(self, monkeypatch):
        # Restarts 14-16 of the seed-7 d = 4 joint minimum need 10, 14
        # and 15 Newton steps; a cap of 12 stops the last two short of
        # the gradient test, each at a simple eigenvalue.
        monkeypatch.setattr(bellmp.optimize, "_MAX_ITERATIONS", 12)
        run = optimize_joint(D4, OptimizerConfig(restarts=17, seed=7,
                                                 direction=Direction.MINIMIZE))
        assert run.per_restart_iterations[14:] == (10, 12, 12)
        assert run.per_restart_converged[14:] == (True, False, False)
        assert all(gap > 1e-6 for gap in run.per_restart_eigengaps[14:])
        assert all(norm > bellmp.optimize._GRADIENT_TOLERANCE
                   for norm in run.per_restart_gradient_norms[15:])

    @pytest.mark.parametrize("free_state", [False, True])
    def test_evaluations_count_the_kernel_calls_and_rows(self, monkeypatch, free_state):
        # The run derives its counts from the iterations; count the batched
        # kernel calls and their rows, and the rows whose Hessians are
        # formed, directly.
        rows, formed = [], []
        for name in ("value_and_gradient_arrays", "extreme_value_and_gradient"):
            def counting(*args, kernel=getattr(bellmp.optimize, name)):
                value, gradient, hessian = kernel(*args)
                rows.append(len(value))

                def counted(chosen):
                    H = hessian(chosen)
                    formed.append(len(H))
                    return H

                return value, gradient, counted

            monkeypatch.setattr(bellmp.optimize, name, counting)
        for d in (2, 3, 4):
            for direction in Direction:
                rows.clear()
                formed.clear()
                config = OptimizerConfig(restarts=7, seed=d, direction=direction)
                if free_state:
                    run = optimize_joint(Dimension(d), config)
                else:
                    run = optimize_angles(maximally_entangled_state(Dimension(d)), config)
                assert rows[0] == 7
                assert (run.evaluations.calls, run.evaluations.rows) == (len(rows), sum(rows))
                # A rejected trial point gets no Hessian, nor does a point
                # where its restart stops.
                assert run.evaluations.hessians == sum(formed)
                assert sum(formed) <= sum(rows) - sum(run.per_restart_rejected)

    def test_rejected_steps_and_mu_follow_the_schedule(self):
        # A lone restart that rejects nothing has mu = 4^-iterations until
        # the floor; one that gives up on mu stopped after rejections.  A
        # restart forms one Hessian at its start and one per kept step,
        # but none where it stops (none of these reaches the step cap).
        fun = _objective("joint", 4, Direction.MINIMIZE)
        starts = _starts(4, (7,), range(12))
        _, _, gnorm, iterations, rejected, mu, hessians = _minimize(fun, starts)
        converged = gnorm <= 1e-9
        for r in range(len(starts)):
            kept = iterations[r] - rejected[r]
            if rejected[r] == 0:
                assert mu[r] == max(0.25 ** kept, 1e-10)
            assert converged[r] or mu[r] > 1e8
            assert hessians[r] == kept + (not converged[r])


def _theta_map(d, columns=None):
    # The map C = Theta (x) (free columns of I_d) from the solver's
    # coordinates to the summed phases, over phase columns 1..d-1 as the
    # angle and joint searches use it unless columns are given.
    return reference_coordinate_map(d, range(1, d) if columns is None else columns)


def _eigengap(phases, largest):
    # d |lambda_ext - lambda_next| of the pair matrix, from its spectrum alone.
    w = np.linalg.eigvalsh(pair_matrix(phases))
    return len(w) * abs(w[-1] - w[-2] if largest else w[0] - w[1])


def _start_phases(d, stream, restarts):
    # The start phases phi0 that _multistart draws for the restarts listed.
    phases = np.zeros((len(restarts), 4, d))
    phases[:, :, 1:] = [np.random.default_rng((*stream, r)).uniform(
        0.0, 2.0 * math.pi, 4 * (d - 1)).reshape(4, d - 1) for r in restarts]
    return phases


def _starts(d, stream, restarts):
    # The coordinates y0 = diag(1/4, 1/2, 1/2) Theta^T L phi0 that
    # _multistart gives the solver.
    theta = bellmp.engine._PAIRS @ _start_phases(d, stream, restarts)
    return ((theta.reshape(len(restarts), 1, 4 * d) @ _theta_map(d))[:, 0]
            / np.repeat((4.0, 2.0, 2.0), d - 1))


def _kernel(search, d, direction, a):
    # The kernel a search evaluates: the quadratic form at coefficients a
    # (angles) or the extreme eigenvalue (joint).
    if search == "angles":
        def evaluate(theta):
            return value_and_gradient_arrays(a, theta)
    else:
        def evaluate(theta):
            return extreme_value_and_gradient(theta, direction is Direction.MAXIMIZE)
    return evaluate


def _objective(search, d, direction):
    # The function the driver hands the solver, over the coordinates y.
    a = np.asarray(random_state(np.random.default_rng(d), d).coefficients)
    return bellmp.optimize._objective(_kernel(search, d, direction, a), _theta_map(d),
                                      direction is Direction.MAXIMIZE)


_minimize = bellmp.optimize._minimize


class TestScheduleIndependence:
    """A restart's result must not depend on which restarts share its
    batch."""

    @pytest.mark.parametrize("search", ["angles", "joint"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_batch_equals_one_restart_at_a_time(self, search, d, direction):
        fun = _objective(search, d, direction)
        starts = np.random.default_rng(10 + d).uniform(
            0.0, 2.0 * math.pi, (5, 3 * (d - 1)))
        batch = _minimize(fun, starts)
        for r in range(len(starts)):
            alone = _minimize(fun, starts[r:r + 1])
            # point, value, gradient norm, iterations, rejected, mu,
            # Hessians formed
            for batched, single in zip(batch, alone):
                assert np.array_equal(batched[r], single[0])

    def test_capped_restarts_are_unaffected_by_their_batch(self, monkeypatch):
        # Restarts 14-16 of the seed-7 d = 4 joint minimum need 10, 14
        # and 15 Newton steps; a cap of 12 stops two of them unconverged
        # while the third leaves the batch early.
        monkeypatch.setattr(bellmp.optimize, "_MAX_ITERATIONS", 12)
        fun = _objective("joint", 4, Direction.MINIMIZE)
        starts = _starts(4, (7,), (14, 15, 16))
        batch = _minimize(fun, starts)
        assert (batch[2] <= 1e-9).tolist() == [True, False, False]
        assert batch[3].tolist() == [10, 12, 12]
        for r in range(len(starts)):
            alone = _minimize(fun, starts[r:r + 1])
            for batched, single in zip(batch, alone):
                assert np.array_equal(batched[r], single[0])

    @pytest.mark.parametrize("free_state", [False, True])
    def test_fewer_restarts_are_a_prefix(self, free_state):
        def search(restarts):
            config = OptimizerConfig(restarts=restarts, seed=4,
                                     direction=Direction.MINIMIZE)
            if free_state:
                return optimize_joint(Dimension(3), config)
            return optimize_angles(maximally_entangled_state(Dimension(3)), config)

        few, many = search(3), search(8)
        assert few.per_restart_values == many.per_restart_values[:3]
        assert few.per_restart_iterations == many.per_restart_iterations[:3]
        assert few.per_restart_converged == many.per_restart_converged[:3]

    def test_large_batch_rows_equal_single_rows(self):
        # 400 rows at d = 4, one batch for both kernels; the Hessians of
        # every third row, formed together, equal those of the whole batch.
        d = 4
        rng = np.random.default_rng(0)
        theta = bellmp.engine._PAIRS @ rng.uniform(0.0, 2.0 * math.pi, (400, 4, d))
        a = rng.uniform(-2.0, 2.0, d)
        subset = np.arange(0, len(theta), 3)
        for kernel in (lambda t: value_and_gradient_arrays(a, t),
                       lambda t: extreme_value_and_gradient(t, False)):
            value, gradient, hessian = kernel(theta)
            whole = hessian()
            assert np.array_equal(hessian(subset), whole[subset])
            for r in range(len(theta)):
                single = kernel(theta[r])
                assert value[r] == single[0]
                assert np.array_equal(gradient[r], single[1])
                assert np.array_equal(whole[r], single[2]())


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), largest=st.booleans(), data=st.data())
def test_batched_kernel_rows_equal_single_calls(d, rows, seed, largest, data):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-10.0, 10.0, (rows, 4, d))
    theta = bellmp.engine._PAIRS @ phases
    # one coefficient vector for every row, as optimize_angles passes
    coefficients = rng.uniform(-2.0, 2.0, d)
    # the rows whose Hessians the solver would form, in batch order
    subset = np.array(sorted(data.draw(st.sets(st.integers(0, rows - 1), min_size=1))))
    quadratic = value_and_gradient_arrays(coefficients, theta)
    extreme = extreme_value_and_gradient(theta, largest)
    whole_q, whole_e = quadratic[2](), extreme[2]()
    for batch, whole in ((quadratic, whole_q), (extreme, whole_e)):
        assert whole.shape == (rows, 4, d, 4, d)
        assert np.array_equal(batch[2](subset), whole[subset])
    for r in range(rows):
        single = value_and_gradient_arrays(coefficients, theta[r])
        # value, gradient, Hessian: of the whole batch and of the row alone
        assert quadratic[0][r] == single[0]
        assert np.array_equal(quadratic[1][r], single[1])
        assert np.array_equal(whole_q[r], single[2]())
        assert np.array_equal(quadratic[2]([r])[0], single[2]())
        single = extreme_value_and_gradient(theta[r], largest)
        assert extreme[0][r] == single[0]
        assert np.array_equal(extreme[1][r], single[1])
        assert np.array_equal(whole_e[r], single[2]())
        assert np.array_equal(extreme[2]([r])[0], single[2]())
    # optimize_joint reads its final eigenvectors and gaps from the same
    # decomposition, whose extreme eigenvalue is the kernel's value
    w = np.linalg.eigh(pair_matrix(phases))[0]
    assert np.array_equal(d * w[..., -1 if largest else 0], extreme[0])


_SEARCHES = dict(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
                 direction=st.sampled_from(list(Direction)),
                 search=st.sampled_from(["angles", "joint"]))


@settings(max_examples=60, deadline=None)
@given(**_SEARCHES)
def test_hessians_match_differences_of_the_gradient(d, seed, direction, search):
    # Through the solver's objective, so the Hessian C^T H C it sees is checked.
    rng = np.random.default_rng(seed)
    # A search's kernel, for random coefficients in the angle search.
    evaluate = _kernel(search, d, direction, rng.uniform(-2.0, 2.0, d))
    fun = bellmp.optimize._objective(evaluate, _theta_map(d), direction is Direction.MAXIMIZE)
    y = rng.uniform(0.0, 2.0 * math.pi, (1, 3 * (d - 1)))
    if search == "joint":
        phases = bellmp.optimize._gauge_phases((_theta_map(d) @ y[0]).reshape(4, d))
        assume(_eigengap(phases, direction is Direction.MAXIMIZE) >= 1e-3)
    H = fun(y)[2]([0])[0]
    scale = np.max(np.abs(H))
    assert np.max(np.abs(H - H.T)) <= 1e-14 * scale
    # The truncation error of the differences falls as step^2; at 1e-5 it
    # reached 2e-7 of scale at d = 5 (seed 2990, joint maximum).
    step = 1e-6
    shifts = step * np.eye(y.shape[1])
    fd = (fun(y + shifts)[1] - fun(y - shifts)[1]).T / (2.0 * step)
    assert np.max(np.abs(H - fd)) <= 1e-7 * scale


@pytest.mark.parametrize("d,columns", [(d, range(1, d)) for d in range(2, 9)]
                         + [(4, (k,)) for k in range(4)])
def test_gauge_phases_sum_to_the_summed_phases_of_y(d, columns):
    # theta = C y is (y0 + y1, y0 + y2, y0 - y2, y0 - y1) per given column
    # and zero elsewhere; the B1 = 0 phases of theta sum back to it.  With
    # y on a grid of 2^-40 every sum is exact, so both hold bit for bit.
    C = _theta_map(d, columns)
    c = len(columns)
    assert np.array_equal(C.T @ C, np.diag(np.repeat((4.0, 2.0, 2.0), c)))
    rng = np.random.default_rng(d)
    y = np.round(rng.uniform(-8.0, 8.0, (3, c)) * 2.0**40) / 2.0**40
    theta = (C @ y.reshape(-1)).reshape(4, d)
    expected = np.zeros((4, d))
    expected[:, list(columns)] = [y[0] + y[1], y[0] + y[2], y[0] - y[2], y[0] - y[1]]
    assert np.array_equal(theta, expected)
    phases = bellmp.optimize._gauge_phases(theta)
    assert np.array_equal(phases[2], np.zeros(d))
    assert np.array_equal(bellmp.engine._PAIRS @ phases, theta)
    # A start phi0 enters as y0 = diag(1/4, 1/2, 1/2) Theta^T L phi0,
    # whose summed phases are those of phi0.
    phi0 = np.zeros((4, d))
    phi0[:, list(columns)] = rng.uniform(0.0, 2.0 * math.pi, (4, c))
    y0 = (bellmp.engine._PAIRS @ phi0).reshape(-1) @ C / np.repeat((4.0, 2.0, 2.0), c)
    assert np.allclose(C @ y0, (bellmp.engine._PAIRS @ phi0).reshape(-1), rtol=0.0, atol=1e-14)


def _gauge_cases():
    # Every search that reports phases: the angle and joint searches in
    # both directions, and the |T_kl| search for every pair.
    cases = [pytest.param("angles", 4, direction, id=f"angles-{direction.value}")
             for direction in Direction]
    cases += [pytest.param("joint", d, direction, id=f"joint-{d}-{direction.value}")
              for d in (2, 3, 4, 5, 6) for direction in Direction]
    return cases + [pytest.param("T", 4, pair, id=f"T{pair[0]}{pair[1]}")
                    for pair in PAIR_SLOTS]


@pytest.mark.parametrize("search,d,how", _gauge_cases())
def test_searches_report_optima_in_the_gauge_b1_zero(search, d, how):
    # B1 is exactly zero, and so is column 0 (every column but l for
    # |T_kl|); the reported settings attain the reported value.
    dim = Dimension(d)
    if search == "T":
        l = how[1]
        magnitude, run = max_abs_t_coefficient(how, restarts=3, seed=1)
        phases = np.array(run.best.settings.phases)
        assert np.array_equal(np.delete(phases, l, axis=1), np.zeros((4, 3)))
        t = t_coefficients(run.best.settings).values()[PAIR_SLOTS.index(how)]
        assert abs(abs(t) - magnitude) <= 1e-12
    else:
        config = OptimizerConfig(restarts=4, seed=2, direction=how)
        if search == "joint":
            run = optimize_joint(dim, config)
        else:
            run = optimize_angles(make_state(dim, (1.2, 0.3, 0.9, 1.4)), config)
        phases = np.array(run.best.settings.phases)
        assert np.array_equal(phases[:, 0], np.zeros(4))
        assert abs(bell_value(run.best.state, run.best.settings)
                   - run.best.value) <= 1e-12
    assert np.array_equal(phases[2], np.zeros(d))
    assert not np.any(np.signbit(phases[phases == 0.0]))


def _eigen_step(H, g, mu):
    # The step through the full eigendecomposition H = Q diag(w) Q^T, and
    # the condition number of the shifted matrix.
    w, Q = np.linalg.eigh(H)
    shifted = w + mu + max(0.0, -w[0])
    return -Q @ ((Q.T @ g) / shifted), shifted[-1] / shifted[0]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 28), seed=st.integers(0, 2**32 - 1),
       negative=st.integers(0, 28), null=st.integers(0, 28),
       mu=st.sampled_from([1e-10, 1e-6, 1e-2, 0.25, 1.0, 4.0, 1e3]), rows=st.integers(1, 4))
def test_newton_step_equals_the_eigendecomposition_step(n, seed, negative, null, mu, rows):
    # Random symmetric matrices with a chosen number of negative and of
    # exactly zero eigenvalues, so indefinite and singular ones too.  The
    # two routes agree to 1e-12 relative while the shifted matrix is well
    # conditioned; beyond that both carry a forward error of order
    # eps kappa (at most 9 eps kappa over 14000 random cases).
    rng = np.random.default_rng(seed)
    H = np.empty((rows, n, n))
    for r in range(rows):
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        w = rng.uniform(0.1, 10.0, n)
        w[:min(negative, n)] *= -1.0
        w[n - min(null, n):] = 0.0
        H[r] = (Q * w) @ Q.T
        H[r] = 0.5 * (H[r] + H[r].T)
    g = rng.normal(size=(rows, n))
    lowest = np.linalg.eigvalsh(H)[:, 0]
    steps = bellmp.optimize._newton_steps(H, lowest, g, np.full(rows, mu))
    for r in range(rows):
        reference, kappa = _eigen_step(H[r], g[r], mu)
        bound = max(1e-12, 64 * np.finfo(float).eps * kappa)
        assert np.linalg.norm(steps[r] - reference) <= bound * np.linalg.norm(reference)
        assert steps[r] @ g[r] < 0.0
        # one row alone gives the same step, bit for bit
        alone = bellmp.optimize._newton_steps(H[r:r + 1], lowest[r:r + 1], g[r:r + 1],
                                              np.full(1, mu))
        assert np.array_equal(alone[0], steps[r])


# Per-restart Newton steps of the seed-7 d = 4 searches (50 restarts,
# as in bellmp reproduce), with the batched calls and rows they made.
_SEED7_ITERATIONS = {
    ("angles", Direction.MAXIMIZE): (
        (8, 15, 12, 15, 15, 10, 13, 9, 15, 10, 10, 18, 13, 11, 15, 19, 9, 15, 19, 15, 10,
         13, 14, 10, 17, 13, 17, 15, 19, 9, 11, 11, 9, 8, 17, 15, 9, 7, 11, 11, 13, 9, 8,
         15, 17, 9, 8, 14, 13, 9), 20, 677),
    ("angles", Direction.MINIMIZE): (
        (14, 12, 9, 13, 12, 16, 8, 14, 10, 22, 14, 11, 12, 7, 9, 13, 8, 11, 10, 11, 16, 10,
         9, 12, 10, 14, 16, 10, 9, 11, 11, 13, 12, 13, 11, 15, 9, 8, 10, 10, 14, 11, 14, 15,
         12, 8, 8, 8, 10, 10), 23, 625),
    ("joint", Direction.MAXIMIZE): (
        (10, 13, 11, 18, 7, 10, 10, 9, 9, 7, 11, 9, 9, 27, 17, 9, 13, 11, 11, 12, 8, 8, 11,
         15, 9, 8, 19, 8, 9, 11, 11, 7, 13, 7, 12, 9, 11, 7, 8, 13, 7, 11, 8, 13, 8, 13, 13,
         13, 11, 13), 28, 597),
    ("joint", Direction.MINIMIZE): (
        (11, 9, 15, 11, 12, 18, 10, 12, 8, 12, 10, 13, 13, 10, 10, 14, 15, 11, 12, 15, 16,
         9, 16, 11, 8, 13, 8, 12, 9, 11, 16, 8, 11, 8, 21, 10, 10, 10, 12, 13, 17, 11, 15,
         8, 10, 8, 14, 8, 11, 8), 22, 633),
}


# The best values of those searches, bit for bit: a kernel change that
# moves a last bit shows here even where the step counts hold.
_SEED7_BEST = {
    ("angles", Direction.MAXIMIZE): "0x1.72b81908455e4p+1",
    ("angles", Direction.MINIMIZE): "-0x1.aaaaaaaaaaaabp+1",
    ("joint", Direction.MAXIMIZE): "0x1.7c8160770a3e0p+1",
    ("joint", Direction.MINIMIZE): "-0x1.bb6c28b9f03bcp+1",
}


@pytest.mark.parametrize("search,direction", list(_SEED7_ITERATIONS))
def test_seed7_searches_take_their_pinned_newton_steps(search, direction):
    config = OptimizerConfig(restarts=50, seed=7, direction=direction)
    if search == "joint":
        run = optimize_joint(D4, config)
    else:
        run = optimize_angles(maximally_entangled_state(D4), config)
    iterations, calls, rows = _SEED7_ITERATIONS[search, direction]
    assert run.per_restart_iterations == iterations
    assert (run.evaluations.calls, run.evaluations.rows) == (calls, rows)
    assert run.best.value.hex() == _SEED7_BEST[search, direction]


# The d = 16 joint minimum, 20 restarts at seed 0, rejects 229 of its 653
# Newton steps (the seed-7 d = 4 searches reject about 17 %): per restart
# its steps and rejected steps, and the batched calls and rows it made.
_D16_MIN_STEPS = (
    (75, 45, 30, 28, 22, 29, 32, 17, 28, 29, 23, 32, 29, 45, 35, 34, 32, 15, 37, 36),
    (33, 18, 10, 9, 6, 10, 11, 4, 8, 10, 7, 11, 10, 18, 13, 12, 11, 2, 13, 13),
    76, 673)


def test_d16_joint_minimum_takes_its_pinned_newton_steps():
    run = optimize_joint(Dimension(16), OptimizerConfig(
        restarts=20, seed=0, direction=Direction.MINIMIZE))
    iterations, rejected, calls, rows = _D16_MIN_STEPS
    assert run.per_restart_iterations == iterations
    assert run.per_restart_rejected == rejected
    assert (run.evaluations.calls, run.evaluations.rows) == (calls, rows)
    # One Hessian per start and per kept step, none where a restart stops.
    assert run.evaluations.hessians == 424 <= rows - sum(rejected)


# The bench's angles_dsweep searches, 8 restarts at seed 0: per (d,
# state, direction) the per-restart Newton steps and the best value, bit
# for bit.  The states are those of helpers.angles_dsweep_states.
_DSWEEP_PINS = {
    (2, 0, Direction.MAXIMIZE): ((8, 8, 14, 7, 8, 9, 7, 10), "0x1.6a09e667f3bcep+1"),
    (2, 0, Direction.MINIMIZE): ((6, 6, 6, 6, 6, 6, 7, 7), "-0x1.6a09e667f3bcfp+1"),
    (2, 1, Direction.MAXIMIZE): ((8, 8, 11, 7, 8, 9, 7, 10), "0x1.686a8b0ef4e2ap+1"),
    (2, 1, Direction.MINIMIZE): ((6, 6, 6, 7, 6, 6, 7, 7), "-0x1.686a8b0ef4e2dp+1"),
    (2, 2, Direction.MAXIMIZE): ((8, 8, 8, 7, 8, 10, 7, 10), "0x1.537ddbb206416p+1"),
    (2, 2, Direction.MINIMIZE): ((6, 6, 6, 7, 6, 6, 7, 7), "-0x1.537ddbb206416p+1"),
    (3, 0, Direction.MAXIMIZE): ((9, 9, 9, 9, 11, 9, 13, 7), "0x1.6fbc4d90accbep+1"),
    (3, 0, Direction.MINIMIZE): ((13, 7, 13, 11, 9, 11, 9, 11), "-0x1.0000000000000p+2"),
    (3, 1, Direction.MAXIMIZE): ((9, 7, 9, 15, 13, 11, 11, 7), "0x1.632f9ace49a8dp+1"),
    (3, 1, Direction.MINIMIZE): ((13, 7, 11, 11, 9, 11, 8, 11), "-0x1.d7acd91126823p+1"),
    (3, 2, Direction.MAXIMIZE): ((9, 14, 9, 9, 10, 7, 13, 11), "0x1.6e3f8fd8cc4b6p+1"),
    (3, 2, Direction.MINIMIZE): ((9, 7, 12, 9, 9, 11, 9, 11), "-0x1.e14c11aea3ad8p+1"),
    (4, 0, Direction.MAXIMIZE): ((9, 20, 10, 12, 7, 14, 10, 19), "0x1.72b81908455e4p+1"),
    (4, 0, Direction.MINIMIZE): ((12, 11, 12, 9, 11, 10, 10, 9), "-0x1.aaaaaaaaaaaabp+1"),
    (4, 1, Direction.MAXIMIZE): ((15, 15, 10, 11, 8, 13, 11, 9), "0x1.6accb2626c768p+1"),
    (4, 1, Direction.MINIMIZE): ((10, 9, 16, 10, 11, 12, 12, 14), "-0x1.b12ded8b40d8ep+1"),
    (4, 2, Direction.MAXIMIZE): ((12, 16, 12, 12, 12, 15, 8, 11), "0x1.6593d20764be3p+1"),
    (4, 2, Direction.MINIMIZE): ((11, 8, 12, 12, 14, 10, 16, 10), "-0x1.ad1200d5eeaebp+1"),
    (6, 0, Direction.MAXIMIZE): ((12, 9, 18, 19, 24, 12, 14, 16), "0x1.75c93b5587988p+1"),
    (6, 0, Direction.MINIMIZE): ((20, 20, 12, 32, 8, 20, 18, 18), "-0x1.a605f0a4c5715p+1"),
    (6, 1, Direction.MAXIMIZE): ((12, 13, 11, 18, 26, 10, 12, 26), "0x1.6a477811b3f4bp+1"),
    (6, 1, Direction.MINIMIZE): ((15, 21, 20, 21, 8, 22, 24, 16), "-0x1.8e26ee35d642fp+1"),
    (6, 2, Direction.MAXIMIZE): ((22, 9, 19, 24, 21, 16, 20, 14), "0x1.70193edc73731p+1"),
    (6, 2, Direction.MINIMIZE): ((14, 20, 22, 20, 9, 16, 22, 12), "-0x1.7cb52593208cap+1"),
    (8, 0, Direction.MAXIMIZE): ((18, 11, 37, 24, 22, 24, 21, 30), "0x1.775932b3ee4fep+1"),
    (8, 0, Direction.MINIMIZE): ((18, 17, 16, 22, 17, 22, 10, 18), "-0x1.8b74142d45754p+1"),
    (8, 1, Direction.MAXIMIZE): ((22, 20, 24, 20, 13, 18, 15, 17), "0x1.473e5480b2cddp+1"),
    (8, 1, Direction.MINIMIZE): ((20, 15, 13, 18, 14, 18, 13, 18), "-0x1.5797a3e602f16p+1"),
    (8, 2, Direction.MAXIMIZE): ((32, 16, 24, 38, 21, 21, 24, 16), "0x1.55faa6dbe97afp+1"),
    (8, 2, Direction.MINIMIZE): ((14, 27, 24, 17, 22, 15, 11, 19), "-0x1.640d709731c50p+1"),
}


@pytest.mark.parametrize("d,state,direction", list(_DSWEEP_PINS))
def test_angles_dsweep_searches_take_their_pinned_newton_steps(d, state, direction):
    run = optimize_angles(angles_dsweep_states()[d, state],
                          OptimizerConfig(restarts=8, seed=0, direction=direction))
    iterations, best = _DSWEEP_PINS[d, state, direction]
    assert run.per_restart_iterations == iterations
    assert run.best.value.hex() == best


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _with_zeros(rng, array, zero_rows):
    # Exact +0.0 and -0.0 entries, and whole rows of zeros.
    array = array.copy()
    array[rng.uniform(size=array.shape) < 0.2] = 0.0
    array[rng.uniform(size=array.shape) < 0.1] = -0.0
    array[zero_rows] = 0.0
    return array


@pytest.mark.parametrize("seed", range(8))
def test_newton_steps_solve_with_h_plus_shift_times_identity(seed, monkeypatch):
    # The matrix LAPACK solves with equals the reference H + shift np.eye(n),
    # -0.0 entries of H turned into 0.0 as there.
    rng = np.random.default_rng(seed)
    rows, n = 5, int(rng.integers(1, 12))
    H = rng.normal(size=(rows, n, n))
    H = _with_zeros(rng, H + H.swapaxes(-1, -2), [0, 3])
    lowest = _with_zeros(rng, rng.normal(size=rows), [1])
    mu = rng.choice([1e-10, 1e-3, 0.25, 1.0, 4.0, 1e8], size=rows)
    g = _with_zeros(rng, rng.normal(size=(rows, n)), [2])
    solved = []
    solve = np.linalg.solve

    def recorded(a, b):
        solved.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    steps = bellmp.optimize._newton_steps(H, lowest, g, mu)
    (shifted,) = solved
    assert _same_bits(shifted, reference_shifted(H, lowest, mu))
    assert _same_bits(steps, -solve(reference_shifted(H, lowest, mu), g[:, :, None])[:, :, 0])


@pytest.mark.parametrize("d,columns", [(d, range(1, d)) for d in (2, 3, 4, 8, 16)]
                         + [(4, np.array([k])) for k in range(4)]
                         + [(6, np.array([1, 3, 4])), (3, np.array([], dtype=int))])
def test_coordinate_map_equals_the_kronecker_product(d, columns):
    assert _same_bits(bellmp.optimize._coordinate_map(d, columns),
                      reference_coordinate_map(d, columns))


def _theta_batch(seed, rows, d):
    # Summed phases with zero rows and exact-zero entries.
    rng = np.random.default_rng(seed)
    theta = bellmp.engine._PAIRS @ rng.uniform(-7.0, 7.0, (rows, 4, d))
    return rng, _with_zeros(rng, theta, [0, rows - 1])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("seed", range(3))
def test_theta_hessian_equals_the_fancy_indexed_reference(d, seed):
    rng, theta = _theta_batch(seed, 6, d)
    P = bellmp.engine._phased(theta)
    for coefficients in (rng.uniform(-2.0, 2.0, d), _with_zeros(rng, rng.uniform(-2.0, 2.0, d), [])):
        _, pa = bellmp.engine._theta_gradient(P, coefficients)
        for rows in ([1, 2, 4], slice(None)):
            assert _same_bits(bellmp.engine._theta_hessian(P[rows], coefficients, pa[rows]),
                              reference_theta_hessian(P[rows], coefficients, pa[rows]))
        assert _same_bits(bellmp.engine._theta_hessian(P[3], coefficients, pa[3]),
                          reference_theta_hessian(P[3], coefficients, pa[3]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("largest", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_extreme_hessian_equals_the_reference_closure(d, largest, seed):
    # Zero rows have a degenerate spectrum, so zero gaps get weight 0 there.
    _, theta = _theta_batch(seed, 6, d)
    hessian = extreme_value_and_gradient(theta, largest)[2]
    for rows in ([1, 2, 4], [0], Ellipsis):
        assert _same_bits(hessian(rows), reference_extreme_hessian(theta, largest, rows))
    assert _same_bits(extreme_value_and_gradient(theta[2], largest)[2](),
                      reference_extreme_hessian(theta[2], largest))


class TestVertexBounds:
    def test_restart_values_inside_enumerated_extrema(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            state = random_state(rng, 4)
            extrema = vertex_candidates(state)
            for direction in (Direction.MAXIMIZE, Direction.MINIMIZE):
                run = optimize_angles(
                    state, OptimizerConfig(restarts=4, seed=9,
                                           direction=direction))
                for value in run.per_restart_values:
                    assert value <= extrema.max + 1e-6
                    assert value >= extrema.min - 1e-6


class TestBranchDisagreements:
    def test_attained_maximum_can_exceed_both_branches(self):
        state = make_state(D4, ST2)
        run = optimize_angles(state, OptimizerConfig(restarts=20, seed=0))
        assert abs(run.best.value - 0.890803044140561) < 1e-9
        assert run.best.value > branch_values_max(state).max + 0.1

    def test_branch_maximum_can_be_unattainable(self):
        state = make_state(D4, ST4)
        run = optimize_angles(state, OptimizerConfig(restarts=30, seed=0))
        assert abs(run.best.value - 2.805011359219125) < 1e-9
        assert run.best.value < branch_values_max(state).max - 5e-3

    def test_branch_minimum_can_be_beaten(self):
        state = make_state(D4, ST4)
        run = optimize_angles(
            state, OptimizerConfig(restarts=30, seed=0,
                                   direction=Direction.MINIMIZE))
        assert abs(run.best.value + 3.332038033492877) < 1e-9
        assert run.best.value < branch_values_min(state).min - 0.03

    def test_enumerated_maximum_can_be_unattainable(self):
        # the enumeration stays an outer bound here: 1.0087 attained
        # vs 1.1720 enumerated
        state = make_state(D4, CX)
        run = optimize_angles(state, OptimizerConfig(restarts=12, seed=0))
        assert abs(run.best.value - 1.008742324182892) < 1e-9
        assert run.best.value > branch_values_max(state).max + 2e-3
        assert run.best.value <= vertex_candidates(state).max + 1e-9


class TestJointSearch:
    def test_global_maximum(self):
        run = optimize_joint(
            D4, OptimizerConfig(restarts=10, seed=7))
        assert abs(run.best.value - IMAX) < 1e-8
        assert run.converged
        mags = sorted((abs(c) for c in run.best.state.coefficients),
                      reverse=True)
        assert abs(mags[0] - AP) < 1e-6
        assert abs(mags[1] - AP) < 1e-6
        assert abs(mags[2] - AM) < 1e-6
        assert abs(mags[3] - AM) < 1e-6
        assert abs(bell_value(run.best.state, run.best.settings)
                   - run.best.value) < 1e-9
        _, closed = optimal_max_state()
        assert run.best.value <= closed + 1e-8

    def test_global_minimum(self):
        run = optimize_joint(
            D4, OptimizerConfig(restarts=12, seed=7,
                                direction=Direction.MINIMIZE))
        assert abs(run.best.value - IMIN) < 1e-8
        assert run.converged
        mags = sorted((abs(c) for c in run.best.state.coefficients),
                      reverse=True)
        assert abs(mags[0] - KP) < 1e-6
        assert abs(mags[3] - KM) < 1e-6
        _, closed = optimal_min_state()
        assert run.best.value >= closed - 1e-8

    def test_two_outcome_reduction(self):
        run = optimize_joint(
            Dimension(2), OptimizerConfig(restarts=6, seed=0))
        assert abs(run.best.value - 2.0 * math.sqrt(2.0)) < 1e-10
        assert run.converged


class TestEigenReduction:
    @pytest.mark.parametrize("d", [3, 4, 6])
    @pytest.mark.parametrize("largest", [True, False])
    def test_gradient_matches_central_differences(self, d, largest):
        rng = np.random.default_rng(100 + d)
        phases = rng.uniform(0.0, 2.0 * math.pi, (4, d))
        theta = bellmp.engine._PAIRS @ phases
        _, grad, _ = extreme_value_and_gradient(theta, largest)
        gap = _eigengap(phases, largest)
        assert gap > 1e-3  # differentiable here
        step = 1e-6
        fd = np.empty((4, d))
        for r in range(4):
            for k in range(d):
                hi = theta.copy()
                lo = theta.copy()
                hi[r, k] += step
                lo[r, k] -= step
                fd[r, k] = (
                    extreme_value_and_gradient(hi, largest)[0]
                    - extreme_value_and_gradient(lo, largest)[0]
                ) / (2.0 * step)
        assert np.max(np.abs(grad - fd)) < 1e-7

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_reported_state_is_non_negative_and_attains_value(self, d, direction):
        run = optimize_joint(
            Dimension(d), OptimizerConfig(restarts=3, seed=5,
                                          direction=direction))
        assert min(run.best.state.coefficients) >= 0.0
        assert abs(bell_value(run.best.state, run.best.settings)
                   - run.best.value) < 1e-9
        assert len(run.per_restart_eigengaps) == 3
        # The pi shifts that make the state non-negative conjugate the pair
        # matrix by a sign diagonal, which keeps its spectrum.
        gap = _eigengap(np.array(run.best.settings.phases), direction is Direction.MAXIMIZE)
        assert abs(gap - run.per_restart_eigengaps[run.best_restart]) < 1e-9

    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_joint_maximum_dominates_flat_state(self, d):
        dim = Dimension(d)
        joint = optimize_joint(
            dim, OptimizerConfig(restarts=6, seed=1))
        flat = optimize_angles(maximally_entangled_state(dim),
                               OptimizerConfig(restarts=6, seed=1))
        assert joint.best.value >= flat.best.value - 1e-9

    def test_degenerate_extreme_eigenvalue_is_not_converged(self, monkeypatch):
        # At zero phases M = (J - I) / 6 for d = 4: the top eigenvalue is
        # simple, the bottom one triple.  A solver that claims a zero
        # gradient there must not make the minimum count as converged.
        def stopped(fun, x0):
            x = np.zeros_like(x0)
            return (x, fun(x)[0], np.zeros(len(x)), np.zeros(len(x), dtype=int),
                    np.zeros(len(x), dtype=int), np.ones(len(x)), np.zeros(len(x), dtype=int))

        monkeypatch.setattr(bellmp.optimize, "_minimize", stopped)
        top = optimize_joint(D4, OptimizerConfig(restarts=1))
        assert abs(top.best.value - 2.0) < 1e-12
        assert top.converged
        bottom = optimize_joint(D4, OptimizerConfig(
            restarts=1, direction=Direction.MINIMIZE))
        assert abs(bottom.best.value + 2.0 / 3.0) < 1e-12
        assert top.per_restart_eigengaps[0] > 1.0
        assert bottom.per_restart_eigengaps[0] < 1e-12
        assert not bottom.converged


class TestCoefficientSearch:
    @pytest.mark.parametrize("pair,target", [
        ((0, 1), 0.871041976584251),
        ((2, 3), 0.871041976584251),
        ((0, 2), 0.47140452079103173),
        ((1, 3), 0.47140452079103173),
    ])
    def test_peak_magnitudes(self, pair, target):
        magnitude, run = max_abs_t_coefficient(pair, restarts=3, seed=0)
        assert abs(magnitude - target) < 1e-9
        # the run's best settings must reproduce the magnitude through
        # the full coefficient computation
        coefficient = t_coefficients(run.best.settings).values()[PAIR_SLOTS.index(pair)]
        assert abs(abs(coefficient) - magnitude) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_three_restarts_reach_every_peak(self, seed):
        # Gamma1, Gamma2 and Gamma1 by the gap l - k.
        g = gamma_constants()
        peaks = {1: g.gamma1, 2: g.gamma2, 3: g.gamma1}
        for k, l in PAIR_SLOTS:
            magnitude, _ = max_abs_t_coefficient((k, l), restarts=3, seed=seed)
            assert abs(magnitude - peaks[l - k]) < 1e-12

    def test_one_restart_stops_at_a_saddle_only_at_seed_2(self):
        # Seeds 0-5, one restart each: every pair reaches its maximum
        # (Gamma1 or Gamma2) except pair (0, 3) at seed 2, which stops at
        # Gamma3.
        g = gamma_constants()
        peaks = {1: g.gamma1, 2: g.gamma2, 3: g.gamma1}
        for seed in range(6):
            for k, l in PAIR_SLOTS:
                magnitude, _ = max_abs_t_coefficient((k, l), restarts=1, seed=seed)
                want = g.gamma3 if (seed, k, l) == (2, 0, 3) else peaks[l - k]
                assert abs(magnitude - want) < 1e-12

    def test_rejects_unknown_pair(self):
        with pytest.raises(ValidationError):
            max_abs_t_coefficient((1, 0))
        with pytest.raises(ValidationError):
            max_abs_t_coefficient((0, 4))

    @pytest.mark.parametrize("pair", [(0, True), (False, 1), (0, 1.0), np.array([0, 1])])
    def test_rejects_pairs_that_are_not_tuples_of_ints(self, pair):
        # (0, True) == (0, 1), but True is not an index.
        with pytest.raises(ValidationError, match="pair must be one of"):
            max_abs_t_coefficient(pair, restarts=3)


def test_optimize_imports_nothing_from_analytic():
    # The searches cross-check the closed forms of the analytic module,
    # so they share no formulas with it (module docstring).
    tree = ast.parse(inspect.getsource(bellmp.optimize))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not any("analytic" in name for name in names), sorted(names)
