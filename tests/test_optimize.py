"""Multi-start optimizer: reproducibility, known extrema, bounds.

Frozen values below were produced by the configurations shown and
double-checked against the closed forms where one exists.  The suite
also pins the relationship between the numeric search and the
closed-form layer: restart values always stay inside the enumerated
vertex extrema, the attained optimum sometimes exceeds the branch
formulas (st2) and sometimes cannot reach them (st4).
"""

import functools
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
    KernelVariant,
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
    zero_settings,
)
from bellmp.engine import (_extreme_eigh, extreme_value_and_gradient, pair_matrix,
                           value_and_gradient_arrays)

from helpers import random_state, settings_rows

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
        assert config.free_state is False

    @pytest.mark.parametrize("build,kwargs", [
        (OptimizerConfig, {"restarts": 0}),
        (OptimizerConfig, {"restarts": 1.5}),
        (OptimizerConfig, {"restarts": True}),
        (OptimizerConfig, {"free_state": "no"}),
        (OptimizerConfig, {"free_state": 1}),
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

    def test_free_state_cross_guards(self):
        me = maximally_entangled_state(D4)
        with pytest.raises(ValidationError):
            optimize_angles(me, OptimizerConfig(restarts=2, free_state=True))
        with pytest.raises(ValidationError):
            optimize_joint(D4, OptimizerConfig(restarts=2, free_state=False))


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
        config = OptimizerConfig(restarts=7, seed=3, free_state=free_state)
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
        for converged, norm in zip(run.per_restart_converged,
                                   run.per_restart_gradient_norms):
            assert not converged or norm <= bellmp.optimize._GRADIENT_TOLERANCE
        for converged, value, gap in zip(run.per_restart_converged, run.per_restart_values,
                                         run.per_restart_eigengaps):
            assert not converged or gap > bellmp.optimize._GAP_RTOL * (1.0 + abs(value))
        assert 0 < run.evaluations.calls <= run.evaluations.rows
        for iterations, rejected, mu in zip(run.per_restart_iterations,
                                            run.per_restart_rejected, run.per_restart_mu):
            assert 0 <= rejected <= iterations
            # mu starts at 1, grows by 4 per rejected step and shrinks by 4
            # per kept one, except where the 1e-10 floor holds it up
            assert max(4.0 ** (2 * rejected - iterations), 1e-10) <= mu <= 4.0 ** rejected

    @pytest.mark.parametrize("free_state", [False, True])
    def test_evaluations_count_the_kernel_calls_and_rows(self, monkeypatch, free_state):
        # The run derives its counts from the iterations; count the batched
        # kernel calls and their rows directly.
        rows = []
        for name in ("value_and_gradient_arrays", "extreme_value_and_gradient"):
            def counting(*args, kernel=getattr(bellmp.optimize, name)):
                result = kernel(*args)
                rows.append(len(result[0]))
                return result

            monkeypatch.setattr(bellmp.optimize, name, counting)
        for d in (2, 3, 4):
            for direction in Direction:
                rows.clear()
                config = OptimizerConfig(restarts=7, seed=d, direction=direction,
                                         free_state=free_state)
                if free_state:
                    run = optimize_joint(Dimension(d), config)
                else:
                    run = optimize_angles(maximally_entangled_state(Dimension(d)), config)
                assert rows[0] == 7
                assert (run.evaluations.calls, run.evaluations.rows) == (len(rows), sum(rows))

    def test_rejected_steps_and_mu_follow_the_schedule(self):
        # A lone restart that rejects nothing has mu = 4^-iterations until
        # the floor; one that gives up on mu stopped after rejections.
        fun = _objective("joint", 4, Direction.MINIMIZE)
        starts = _starts(4, (7,), range(12))
        *_, iterations, converged, rejected, mu = _minimize(fun, starts)
        for r in range(len(starts)):
            kept = iterations[r] - rejected[r]
            if rejected[r] == 0:
                assert mu[r] == max(0.25 ** kept, 1e-10)
            assert converged[r] or mu[r] > 1e8


def _basis(d):
    # The solver's basis over phase columns 1..d-1, as the angle and joint
    # searches use it.
    return bellmp.optimize._basis(d, range(1, d))


def _start_phases(d, stream, restarts):
    # The start phases phi0 that _multistart draws for the restarts listed.
    phases = np.zeros((len(restarts), 4, d))
    phases[:, :, 1:] = [np.random.default_rng((*stream, r)).uniform(
        0.0, 2.0 * math.pi, 4 * (d - 1)).reshape(4, d - 1) for r in restarts]
    return phases


def _starts(d, stream, restarts):
    # The coordinates y0 = basis^T phi0 that _multistart gives the solver.
    return (_start_phases(d, stream, restarts).reshape(len(restarts), 1, 4 * d)
            @ _basis(d))[:, 0]


def _kernel(search, d, direction, variant, a):
    # The kernel a search evaluates: the quadratic form at coefficients a
    # (angles) or the extreme eigenvalue (joint).
    if search == "angles":
        def evaluate(phases):
            return value_and_gradient_arrays(a, phases, d, variant)
    else:
        def evaluate(phases):
            return extreme_value_and_gradient(phases, d, variant,
                                              direction is Direction.MAXIMIZE)
    return evaluate


def _sign(direction):
    return 1.0 if direction is Direction.MAXIMIZE else -1.0


def _objective(search, d, direction, variant=KernelVariant.PLUS):
    # The function the driver hands the solver, over the gauge-free
    # coordinates.
    a = np.asarray(random_state(np.random.default_rng(d), d).coefficients)
    return bellmp.optimize._objective(_kernel(search, d, direction, variant, a), d,
                                      _basis(d), _sign(direction))


def _minimize(fun, starts):
    return bellmp.optimize._minimize(fun, starts, bellmp.optimize._MAX_ITERATIONS,
                                     bellmp.optimize._GRADIENT_TOLERANCE)


# Every (d, variant) whose objective is not constant, for d in 2, 3, 4, 6, 8.
_NONCONSTANT = [(d, variant) for d in (2, 3, 4, 6, 8) for variant in KernelVariant
                if d % 2 == 0 or variant is KernelVariant.PLUS]


class TestScheduleIndependence:
    """A restart's result must not depend on which restarts share its
    batch."""

    @pytest.mark.parametrize("search", ["angles", "joint"])
    @pytest.mark.parametrize("d,variant", _NONCONSTANT)
    @pytest.mark.parametrize("direction", list(Direction))
    def test_batch_equals_one_restart_at_a_time(self, search, d, variant, direction):
        fun = _objective(search, d, direction, variant)
        starts = np.random.default_rng(10 + d).uniform(
            0.0, 2.0 * math.pi, (5, 3 * (d - 1)))
        batch = _minimize(fun, starts)
        for r in range(len(starts)):
            alone = _minimize(fun, starts[r:r + 1])
            # point, value, gradient norm, iterations, converged, rejected, mu
            for batched, single in zip(batch, alone):
                assert np.array_equal(batched[r], single[0])

    def test_capped_restarts_are_unaffected_by_their_batch(self):
        # Restarts 14-16 of the seed-7 d = 4 joint minimum need 10, 14
        # and 15 Newton steps; a cap of 12 stops two of them unconverged
        # while the third leaves the batch early.
        fun = _objective("joint", 4, Direction.MINIMIZE)
        starts = _starts(4, (7,), (14, 15, 16))

        def capped(x):
            return bellmp.optimize._minimize(fun, x, 12, bellmp.optimize._GRADIENT_TOLERANCE)

        batch = capped(starts)
        assert batch[4].tolist() == [True, False, False]
        assert batch[3].tolist() == [10, 12, 12]
        for r in range(len(starts)):
            alone = capped(starts[r:r + 1])
            for batched, single in zip(batch, alone):
                assert np.array_equal(batched[r], single[0])

    @pytest.mark.parametrize("free_state", [False, True])
    def test_fewer_restarts_are_a_prefix(self, free_state):
        def search(restarts):
            config = OptimizerConfig(restarts=restarts, seed=4,
                                     free_state=free_state,
                                     direction=Direction.MINIMIZE)
            if free_state:
                return optimize_joint(Dimension(3), config)
            return optimize_angles(maximally_entangled_state(Dimension(3)), config)

        few, many = search(3), search(8)
        assert few.per_restart_values == many.per_restart_values[:3]
        assert few.per_restart_iterations == many.per_restart_iterations[:3]
        assert few.per_restart_converged == many.per_restart_converged[:3]

    def test_large_batch_rows_equal_single_rows(self):
        # 400 rows at d = 4, one batch for both kernels.
        d = 4
        rng = np.random.default_rng(0)
        phases = rng.uniform(0.0, 2.0 * math.pi, (400, 4, d))
        a = rng.uniform(-2.0, 2.0, d)
        for kernel in (lambda p: value_and_gradient_arrays(a, p, d, KernelVariant.PLUS),
                       lambda p: extreme_value_and_gradient(p, d, KernelVariant.PLUS, False)):
            batch = kernel(phases)
            for r in range(len(phases)):
                # value, gradient, Hessian
                for batched, single in zip(batch, kernel(phases[r])):
                    assert np.array_equal(batched[r], single)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 8), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), largest=st.booleans(),
       variant=st.sampled_from(list(KernelVariant)), shared=st.booleans())
def test_batched_kernel_rows_equal_single_calls(d, rows, seed, largest, variant,
                                                shared):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-10.0, 10.0, (rows, 4, d))
    # one coefficient vector for every row, or one per row
    coefficients = rng.uniform(-2.0, 2.0, d if shared else (rows, d))
    quadratic = value_and_gradient_arrays(coefficients, phases, d, variant)
    extreme = extreme_value_and_gradient(phases, d, variant, largest)
    for r in range(rows):
        a = coefficients if shared else coefficients[r]
        single = value_and_gradient_arrays(a, phases[r], d, variant)
        # value, gradient, Hessian
        assert quadratic[0][r] == single[0]
        assert np.array_equal(quadratic[1][r], single[1])
        assert np.array_equal(quadratic[2][r], single[2])
        single = extreme_value_and_gradient(phases[r], d, variant, largest)
        assert extreme[0][r] == single[0]
        assert np.array_equal(extreme[1][r], single[1])
        assert np.array_equal(extreme[2][r], single[2])
    # optimize_joint reads its final eigenvectors and gaps from the same
    # decomposition, whose extreme eigenvalue is the kernel's value
    w, _, k, _ = _extreme_eigh(pair_matrix(phases, d, variant), d, largest)
    assert np.array_equal(d * w[..., k], extreme[0])


_SEARCHES = dict(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
                 direction=st.sampled_from(list(Direction)),
                 variant=st.sampled_from(list(KernelVariant)),
                 search=st.sampled_from(["angles", "joint"]))


def _random_kernel(rng, d, variant, direction, search):
    # A search's kernel, for random coefficients in the angle search.
    assume(np.any(bellmp.engine._circulant(d, variant)))  # not the constant kernel
    return _kernel(search, d, direction, variant, rng.uniform(-2.0, 2.0, d))


@settings(max_examples=60, deadline=None)
@given(**_SEARCHES)
def test_hessians_match_differences_of_the_gradient(d, seed, direction, variant, search):
    # Through the solver's objective, so the projected Hessian is checked.
    rng = np.random.default_rng(seed)
    evaluate = _random_kernel(rng, d, variant, direction, search)
    fun = bellmp.optimize._objective(evaluate, d, _basis(d), _sign(direction))
    y = rng.uniform(0.0, 2.0 * math.pi, (1, 3 * (d - 1)))
    if search == "joint":
        phases = (_basis(d) @ y[0]).reshape(4, d)
        assume(_extreme_eigh(pair_matrix(phases, d, variant), d,
                             direction is Direction.MAXIMIZE)[3] >= 1e-3)
    H = fun(y)[2][0]
    scale = np.max(np.abs(H))
    assert np.max(np.abs(H - H.T)) <= 1e-14 * scale
    # The truncation error of the differences falls as step^2; at 1e-5 it
    # reached 2e-7 of scale at d = 5 (seed 2990, joint maximum).
    step = 1e-6
    shifts = step * np.eye(y.shape[1])
    fd = (fun(y + shifts)[1] - fun(y - shifts)[1]).T / (2.0 * step)
    assert np.max(np.abs(H - fd)) <= 1e-7 * scale


def _gauge_directions(d):
    # Row k: c = e_k on A1 and A2, -e_k on B1 and B2, as one 4 d vector.
    u = np.zeros((d, 4, d))
    u[:, :2] = np.eye(d)[:, None, :]
    u[:, 2:] = -np.eye(d)[:, None, :]
    return u.reshape(d, 4 * d)


@settings(max_examples=60, deadline=None)
@given(**_SEARCHES)
def test_gauge_directions_are_null_for_the_phase_hessian(d, seed, direction, variant, search):
    # Adding c_k to A1[k] and A2[k] and subtracting it from B1[k] and
    # B2[k] leaves every summed phase theta_r, hence the pair matrix,
    # unchanged: each such direction is null for the kernels' phase
    # Hessian and orthogonal to their phase gradient.
    rng = np.random.default_rng(seed)
    evaluate = _random_kernel(rng, d, variant, direction, search)
    _, g, H = evaluate(rng.uniform(0.0, 2.0 * math.pi, (4, d)))
    g, H = g.reshape(4 * d), H.reshape(4 * d, 4 * d)
    u = rng.uniform(-1.0, 1.0, d) @ _gauge_directions(d)
    assert np.max(np.abs(H @ u)) <= 1e-12 * np.max(np.abs(H)) * np.sum(np.abs(u))
    assert abs(g @ u) <= 1e-12 * np.max(np.abs(g)) * np.sum(np.abs(u))


@pytest.mark.parametrize("d,columns", [(d, range(1, d)) for d in range(2, 9)]
                         + [(4, (k,)) for k in range(4)])
def test_basis_is_orthonormal_and_orthogonal_to_the_gauge(d, columns):
    basis = bellmp.optimize._basis(d, columns)
    c = len(columns)
    assert basis.shape == (4 * d, 3 * c)
    assert np.array_equal(basis.T @ basis, np.eye(3 * c))
    assert np.array_equal(_gauge_directions(d) @ basis, np.zeros((d, 3 * c)))
    # With the gauge directions of its columns it spans those columns, and
    # its coordinates y give theta = (y0 + y1, y0 + y2, y0 - y2, y0 - y1).
    spanned = np.concatenate((basis.T, _gauge_directions(d)[list(columns)]))
    assert np.linalg.matrix_rank(spanned) == 4 * c
    y = np.random.default_rng(d).uniform(-1.0, 1.0, (3, c))
    theta = bellmp.engine._PAIRS @ (basis @ y.reshape(-1)).reshape(4, d)
    expected = np.zeros((4, d))
    expected[:, list(columns)] = [y[0] + y[1], y[0] + y[2], y[0] - y[2], y[0] - y[1]]
    assert np.allclose(theta, expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("search", ["angles", "joint"])
@pytest.mark.parametrize("direction", list(Direction))
def test_searches_report_phases_in_the_gauge_of_their_starts(search, direction):
    # Each restart's phases differ from its start only in the span of the
    # basis, so column 0 stays at zero and so does every gauge component
    # of the difference; the phases attain the restart's value.
    d, restarts = 4, 6
    config = OptimizerConfig(restarts=restarts, seed=2, direction=direction)
    evaluate = _kernel(search, d, direction, KernelVariant.PLUS, np.array([1.2, 0.3, 0.9, 1.4]))
    result = bellmp.optimize._multistart(evaluate, d, range(1, d), (2,), config)
    moved = (result.phases - _start_phases(d, (2,), range(restarts))).reshape(restarts, 4 * d)
    assert np.all(result.phases[:, :, 0] == 0.0)
    assert np.max(np.abs(moved @ _gauge_directions(d).T)) <= 1e-12 * np.max(np.abs(moved))
    assert np.max(np.abs(evaluate(result.phases)[0] - result.values)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(mu=st.sampled_from([1e-10, 1e-6, 1e-2, 0.25, 1.0, 4.0, 1e3]), **_SEARCHES)
def test_reduced_step_lifts_to_the_full_coordinate_step(mu, d, seed, direction, variant,
                                                        search):
    # The Newton step over all 4 (d - 1) phases of columns 1..d-1,
    # -(H + sigma I)^-1 g, with sigma = mu + max(0, -lambda_min(basis^T H
    # basis)), lies in the span of the basis, because g is orthogonal to
    # the gauge directions that H leaves null: it equals the solver's
    # reduced step lifted by the basis.  The full Hessian's spectrum is
    # the reduced one plus d - 1 zeros.
    rng = np.random.default_rng(seed)
    evaluate = _random_kernel(rng, d, variant, direction, search)
    phases = np.zeros((1, 4, d))
    phases[..., 1:] = rng.uniform(0.0, 2.0 * math.pi, (4, d - 1))
    sign = _sign(direction)
    _, g, H = evaluate(phases)
    n = 4 * (d - 1)
    g = -sign * g[0, :, 1:].reshape(n)
    H = -sign * H[0, :, 1:, :, 1:].reshape(n, n)
    fun = bellmp.optimize._objective(evaluate, d, _basis(d), sign)
    _, g_y, H_y = fun((phases.reshape(1, 1, 4 * d) @ _basis(d))[:, 0])
    reduced = np.linalg.eigvalsh(H_y[0])
    scale = np.max(np.abs(H))
    assert np.allclose(np.linalg.eigvalsh(H), np.sort(np.concatenate((reduced, np.zeros(d - 1)))),
                       rtol=0.0, atol=1e-12 * scale)
    sigma = mu + max(0.0, -reduced[0])
    reference = -np.linalg.solve(H + sigma * np.eye(n), g)
    shifted = np.linalg.eigvalsh(H + sigma * np.eye(n))
    bound = max(1e-12, 64 * np.finfo(float).eps * shifted[-1] / shifted[0])
    step = bellmp.optimize._newton_steps(H_y, g_y, np.full(1, mu))[0]
    lifted = (_basis(d) @ step).reshape(4, d)
    assert np.all(lifted[:, 0] == 0.0)
    lifted = lifted[:, 1:].reshape(n)
    assert np.linalg.norm(lifted - reference) <= bound * np.linalg.norm(reference)
    assert lifted @ g < 0.0


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
    steps = bellmp.optimize._newton_steps(H, g, np.full(rows, mu))
    for r in range(rows):
        reference, kappa = _eigen_step(H[r], g[r], mu)
        bound = max(1e-12, 64 * np.finfo(float).eps * kappa)
        assert np.linalg.norm(steps[r] - reference) <= bound * np.linalg.norm(reference)
        assert steps[r] @ g[r] < 0.0
        # one row alone gives the same step, bit for bit
        alone = bellmp.optimize._newton_steps(H[r:r + 1], g[r:r + 1], np.full(1, mu))
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


@pytest.mark.parametrize("search,direction", list(_SEED7_ITERATIONS))
def test_seed7_searches_take_their_pinned_newton_steps(search, direction):
    config = OptimizerConfig(restarts=50, seed=7, direction=direction,
                             free_state=search == "joint")
    if search == "joint":
        run = optimize_joint(D4, config)
    else:
        run = optimize_angles(maximally_entangled_state(D4), config)
    iterations, calls, rows = _SEED7_ITERATIONS[search, direction]
    assert run.per_restart_iterations == iterations
    assert (run.evaluations.calls, run.evaluations.rows) == (calls, rows)


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
            D4, OptimizerConfig(restarts=10, seed=7, free_state=True))
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
            D4, OptimizerConfig(restarts=12, seed=7, free_state=True,
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
            Dimension(2), OptimizerConfig(restarts=6, seed=0,
                                          free_state=True))
        assert abs(run.best.value - 2.0 * math.sqrt(2.0)) < 1e-10
        assert run.converged


class TestEigenReduction:
    @pytest.mark.parametrize("d", [3, 4, 6])
    @pytest.mark.parametrize("largest", [True, False])
    def test_gradient_matches_central_differences(self, d, largest):
        rng = np.random.default_rng(100 + d)
        phases = rng.uniform(0.0, 2.0 * math.pi, (4, d))
        _, grad, _ = extreme_value_and_gradient(phases, d, KernelVariant.PLUS, largest)
        gap = _extreme_eigh(pair_matrix(phases, d), d, largest)[3]
        assert gap > 1e-3  # differentiable here
        step = 1e-6
        fd = np.empty((4, d))
        for r in range(4):
            for k in range(d):
                hi = phases.copy()
                lo = phases.copy()
                hi[r, k] += step
                lo[r, k] -= step
                fd[r, k] = (
                    extreme_value_and_gradient(hi, d, KernelVariant.PLUS, largest)[0]
                    - extreme_value_and_gradient(lo, d, KernelVariant.PLUS, largest)[0]
                ) / (2.0 * step)
        assert np.max(np.abs(grad - fd)) < 1e-7

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_reported_state_is_non_negative_and_attains_value(self, d, direction):
        run = optimize_joint(
            Dimension(d), OptimizerConfig(restarts=3, seed=5, free_state=True,
                                          direction=direction))
        assert min(run.best.state.coefficients) >= 0.0
        assert abs(bell_value(run.best.state, run.best.settings)
                   - run.best.value) < 1e-9
        assert len(run.per_restart_eigengaps) == 3
        # The pi shifts that make the state non-negative conjugate the pair
        # matrix by a sign diagonal, which keeps its spectrum.
        gap = _extreme_eigh(pair_matrix(np.array(settings_rows(run.best.settings)), d), d,
                            direction is Direction.MAXIMIZE)[3]
        assert abs(gap - run.per_restart_eigengaps[run.best_restart]) < 1e-9

    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_joint_maximum_dominates_flat_state(self, d):
        dim = Dimension(d)
        joint = optimize_joint(
            dim, OptimizerConfig(restarts=6, seed=1, free_state=True))
        flat = optimize_angles(maximally_entangled_state(dim),
                               OptimizerConfig(restarts=6, seed=1))
        assert joint.best.value >= flat.best.value - 1e-9

    def test_degenerate_extreme_eigenvalue_is_not_converged(self, monkeypatch):
        # At zero phases M = (J - I) / 6 for d = 4: the top eigenvalue is
        # simple, the bottom one triple.  A solver that claims a zero
        # gradient there must not make the minimum count as converged.
        def stopped(fun, x0, max_iterations, gradient_tolerance):
            x = np.zeros_like(x0)
            return (x, fun(x)[0], np.zeros(len(x)), np.zeros(len(x), dtype=int),
                    np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=int), np.ones(len(x)))

        monkeypatch.setattr(bellmp.optimize, "_minimize", stopped)
        top = optimize_joint(D4, OptimizerConfig(restarts=1, free_state=True))
        assert abs(top.best.value - 2.0) < 1e-12
        assert top.converged
        bottom = optimize_joint(D4, OptimizerConfig(
            restarts=1, free_state=True, direction=Direction.MINIMIZE))
        assert abs(bottom.best.value + 2.0 / 3.0) < 1e-12
        assert top.per_restart_eigengaps[0] > 1.0
        assert bottom.per_restart_eigengaps[0] < 1e-12
        assert not bottom.converged


class TestConstantObjective:
    @pytest.mark.parametrize("d", [3, 5])
    def test_minus_variant_at_odd_d_is_rejected(self, d):
        dim = Dimension(d)
        me = maximally_entangled_state(dim)
        with pytest.raises(ValidationError, match="constant objective"):
            optimize_angles(me, OptimizerConfig(restarts=1),
                            KernelVariant.MINUS)
        with pytest.raises(ValidationError, match="constant objective"):
            optimize_joint(dim, OptimizerConfig(restarts=1, free_state=True),
                           KernelVariant.MINUS)
        # the value itself stays available, and it is 0 up to round-off
        assert abs(bell_value(me, zero_settings(dim), KernelVariant.MINUS)) < 1e-15


class TestCoefficientSearch:
    @pytest.mark.parametrize("pair,target", [
        ((0, 1), 0.871041976584251),
        ((2, 3), 0.871041976584251),
        ((0, 2), 0.47140452079103173),
        ((1, 3), 0.47140452079103173),
    ])
    def test_peak_magnitudes(self, pair, target):
        magnitude, settings = max_abs_t_coefficient(pair, restarts=3, seed=0)
        assert abs(magnitude - target) < 1e-9
        # returned settings must reproduce the magnitude through the
        # full coefficient computation
        coefficients = t_coefficients(settings)
        assert abs(abs(coefficients[pair]) - magnitude) < 1e-9

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
