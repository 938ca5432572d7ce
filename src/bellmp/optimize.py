"""Multi-start numerical search for extrema of the Bell value.

The Bell value depends on the 4 d measurement phases only through the
summed phases theta = phi^A + phi^B of the four setting pairs, only
through their differences between columns, and not on a column where
the state is zero.  So theta stays at zero there and on the first column
the state reaches, and each of the c others has three free coordinates y,
theta = (y0 + y1, y0 + y2, y0 - y2, y0 - y1) for the setting pairs
A1B1, A1B2, A2B1 and A2B2: one constant map with entries 0 and +-1.  The
kernels take theta and differentiate in it, and the solver runs over
the 3 c coordinates y.  Each optimum is reported in the gauge B1 = 0,
where A1 = theta_11, A2 = theta_21 and B2 = theta_12 - theta_11.
The joint problem over states and phases reduces to the phases too:
for fixed phases the Bell value is a^T M a on the sphere sum a^2 = d, so
the best state is the extreme eigenvector of the pair matrix M and the
value is d lambda_ext(M); its theta gradient follows from the
Hellmann-Feynman theorem, and its theta Hessian adds the second-order
eigenvalue perturbation term to that of a^T M a at the fixed state.
Each restart runs one regularized Newton loop on these exact Hessians
(in the manner of More and Sorensen 1983): the shift
mu + max(0, -lambda_min(H)) keeps every step a descent direction, and mu
shrinks after a kept step and grows after a rejected one.  A trial point
costs only its value and gradient; H and its eigenvalues, for the shift,
are formed once per kept point of a restart that steps again, and a
rejected step's retry reuses them.  Each step solves the shifted system
directly.  Each restart reports its rejected steps and final mu beside
its iterations.

All restarts of a search run as one batch: every objective call
evaluates the stacked phases of the restarts still running, while each
restart keeps its own regularization and stopping tests, the same for
every search.  A restart's result is the same, bit for bit, whichever
restarts share its batch.

On a 2-vCPU host a pass of an 8-restart angle search (the search's time
over its batched objective calls) costs about 165 us at d = 4 and
265 us at d = 8.  Of that, eigvalsh takes about 45 us and solve 12 us
on the eight 9 x 9 Hessians at d = 4, and 160 and 40 us on the 21 x 21
ones at d = 8, numpy wrappers included; no rewrite around them can
cheapen them while keeping every iterate, so they set its floor.  The
rest is the kernel and the small array operations of the loop.

Every closed-form number in the analytic module is cross-checked
against this machinery, which shares no formulas with it beyond the
probability model itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    PAIR_SLOTS,
    Dimension,
    MeasurementSettings,
    PureState,
    ValidationError,
    _as_int,
    _is_int,
    _require_dimension,
    make_state,
)
from .engine import _PAIRS, extreme_value_and_gradient, pair_matrix, value_and_gradient_arrays

__all__ = [
    "Direction",
    "Evaluations",
    "ExtremalResult",
    "OptimizerConfig",
    "OptimizationRun",
    "optimize_angles",
    "optimize_joint",
    "max_abs_t_coefficient",
]

_MAX_ITERATIONS = 10_000
_GRADIENT_TOLERANCE = 1e-9
# An extreme eigenvalue closer than this (relative) to its neighbour
# counts as degenerate, where lambda_ext has no gradient.
_GAP_RTOL = 1e-9


class Direction(enum.Enum):
    MAXIMIZE = "max"
    MINIMIZE = "min"


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    seed: int = 0
    direction: Direction = Direction.MAXIMIZE

    def __post_init__(self) -> None:
        object.__setattr__(self, "restarts", _as_int(self.restarts, "restarts", 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))
        if not isinstance(self.direction, Direction):
            raise ValidationError(f"direction must be a Direction, got {self.direction!r}")


@dataclass(frozen=True)
class Evaluations:
    """Objective evaluations of one search: the batched calls, the rows
    they evaluated, one restart's phases per row, and the rows at which
    a Hessian and its lowest eigenvalue were formed."""

    calls: int
    rows: int
    hessians: int


@dataclass(frozen=True)
class ExtremalResult:
    """The best restart of a search: its value, and the state and
    settings that reach it."""

    value: float
    state: PureState
    settings: MeasurementSettings


@dataclass(frozen=True)
class OptimizationRun:
    """Outcome of one multi-start search.

    per_restart_values lists the converged value of every restart in
    restart order; best is the extremal one, restart best_restart (ties
    keep the lowest restart index).  The other per_restart_ fields list
    each restart's iterations, final gradient norm, rejected Newton
    steps and final regularization mu.  per_restart_eigengaps lists, for
    the joint search, d |lambda_ext - lambda_next| of the pair matrix at
    each restart's final phases, and is empty for the angle search.
    hessians counts the rows at which a Hessian and its lowest
    eigenvalue were formed.  The properties derive the rest from these
    fields.
    """

    best: ExtremalResult
    best_restart: int
    per_restart_values: tuple[float, ...]
    per_restart_iterations: tuple[int, ...]
    per_restart_gradient_norms: tuple[float, ...]
    per_restart_rejected: tuple[int, ...]
    per_restart_mu: tuple[float, ...]
    per_restart_eigengaps: tuple[float, ...]
    hessians: int

    @property
    def per_restart_converged(self) -> tuple[bool, ...]:
        """Per restart, whether its gradient norm is at most 1e-9 and,
        where eigengaps are recorded, its eigengap exceeds
        1e-9 (1 + |value|), so that its extreme eigenvalue is simple:
        lambda_ext has no gradient where it is degenerate."""
        values = self.per_restart_values
        gaps = self.per_restart_eigengaps or (math.inf,) * len(values)
        return tuple(norm <= _GRADIENT_TOLERANCE and gap > _GAP_RTOL * (1.0 + abs(value))
                     for norm, gap, value in zip(self.per_restart_gradient_norms, gaps, values))

    @property
    def iterations_used(self) -> int:
        """The iterations of all restarts."""
        return sum(self.per_restart_iterations)

    @property
    def converged(self) -> bool:
        """The winning restart's convergence flag."""
        return self.per_restart_converged[self.best_restart]

    @property
    def evaluations(self) -> Evaluations:
        """The search's objective evaluations: _minimize evaluates every
        start once, then the restarts still running once per pass, each
        of which counts the pass as an iteration."""
        its = self.per_restart_iterations
        return Evaluations(1 + max(its), len(its) + sum(its), self.hessians)


def _norms(g: np.ndarray) -> np.ndarray:
    # Row norms through matmul, which takes the same BLAS dot for every
    # row whatever the batch size.
    return np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])


def _newton_steps(H: np.ndarray, lowest: np.ndarray, g: np.ndarray,
                  mu: np.ndarray) -> np.ndarray:
    # Per row, s = -(H + (mu + max(0, -lambda_min(H))) I)^-1 g.  LAPACK
    # works row by row, so a row's step does not depend on its batch.  The
    # shift goes onto the diagonal of a copy of H; H + 0.0 turns a -0.0
    # entry into 0.0, as adding the 0.0 entries of shift I does.
    m, n = len(H), H.shape[-1]
    shifted = H + 0.0
    shifted.reshape(m, n * n)[:, ::n + 1] += (mu - np.minimum(lowest, 0.0))[:, None]
    return -np.linalg.solve(shifted, g[:, :, None])[:, :, 0]


def _minimize(fun, x0: np.ndarray) -> tuple[np.ndarray, ...]:
    """Minimize fun from every row of the (R, n) batch of starts x0.

    fun maps an (m, n) batch of points to their (m,) values, (m, n)
    gradients and a function that forms the (n, n) Hessians of the rows
    it is given, row by row; the searches pass _objective.  Each restart
    takes the regularized Newton steps of the module docstring.  A step
    is kept when the value falls by more than 1e-13 (1 + |f|), or stays
    within that margin while the gradient norm falls; mu then shrinks by
    4 (to at least 1e-10), and grows by 4 after a rejected step.  A
    restart stops when |g| <= _GRADIENT_TOLERANCE, when mu exceeds 1e8
    or after _MAX_ITERATIONS steps, and its results are written out
    then; the loop holds only the restarts still running.  Returns per
    restart the point, value, gradient norm, iterations, rejected steps,
    final mu and Hessians formed.
    """
    x = np.array(x0, dtype=float)
    f, g, hessian = fun(x)
    gnorm = _norms(g)
    m, n = x.shape
    mu = np.ones(m)
    H, lowest = np.empty((m, n, n)), np.empty(m)
    # Every running restart has taken one step per pass.  The running
    # restarts' places in x0, their kept steps, and which of them sit at
    # the point fun last evaluated (kept, listed in moved): every start,
    # then the kept trial points.  A restart forms a Hessian at each such
    # point but the one it stops at.
    passes, place, steps_kept = 0, np.arange(m), np.zeros(m, dtype=int)
    kept, moved = np.ones(m, dtype=bool), place
    out = [np.empty_like(a) for a in (x, f, gnorm, mu)]
    iterations, rejected, hessians = np.empty((3, m), dtype=int)
    while True:
        stop = gnorm <= _GRADIENT_TOLERANCE
        stop |= mu > 1e8
        if passes >= _MAX_ITERATIONS:
            stop[:] = True
        gone = stop.nonzero()[0]
        if gone.size:
            at = place[gone]
            for result, final in zip(out, (x, f, gnorm, mu)):
                result[at] = final[gone]
            iterations[at] = passes
            rejected[at] = passes - steps_kept[gone]
            hessians[at] = 1 + steps_kept[gone] - kept[gone]
            if gone.size == stop.size:
                x, f, gnorm, mu = out
                return x, f, gnorm, iterations, rejected, mu, hessians
            go = ~stop
            moved = (kept & go).nonzero()[0]
            x, f, g, gnorm, mu, steps_kept, H, lowest, place, kept = [
                a[go] for a in (x, f, g, gnorm, mu, steps_kept, H, lowest, place, kept)]
        # Only the points that moved get a Hessian; LAPACK works row by row.
        if moved.size:
            formed = hessian(moved)
            H[kept] = formed
            lowest[kept] = np.linalg.eigvalsh(formed)[:, 0]
        x_try = x + _newton_steps(H, lowest, g, mu)
        f_try, g_try, hessian = fun(x_try)
        gnorm_try = _norms(g_try)
        margin = 1e-13 * (1.0 + np.abs(f))
        kept = (f_try < f - margin) | ((f_try <= f + margin) & (gnorm_try < gnorm))
        moved = kept.nonzero()[0]
        np.copyto(x, x_try, where=kept[:, None])
        np.copyto(g, g_try, where=kept[:, None])
        np.copyto(f, f_try, where=kept)
        np.copyto(gnorm, gnorm_try, where=kept)
        # mu >= 1e-10, so 4 mu never falls below the floor.
        mu *= np.where(kept, 0.25, 4.0)
        np.maximum(mu, 1e-10, out=mu)
        steps_kept += kept
        passes += 1


# Per free phase column, the summed phases (rows A1B1, A1B2, A2B1, A2B2)
# of the coordinates y: theta = (y0 + y1, y0 + y2, y0 - y2, y0 - y1).
# Theta^T Theta = diag(4, 2, 2).
_THETA = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [1.0, -1.0, 0.0]])
_THETA.flags.writeable = False


def _coordinate_map(d: int, columns: range | np.ndarray) -> np.ndarray:
    # The (4 d, 3 c) map C = Theta (x) (the c given columns of I_d) from
    # the coordinates y to the summed phases theta: one broadcast product
    # with the entries np.kron gives, -0.0 included.
    products = _THETA[:, None, :, None] * np.eye(d)[None, :, None, columns]
    return products.reshape(4 * d, 3 * len(columns))


def _gauge_phases(theta: np.ndarray) -> np.ndarray:
    # The (..., 4, d) phases with B1 = 0 whose summed phases are theta:
    # A1 = theta_11, A2 = theta_21, B2 = theta_12 - theta_11.
    t11, t12, t21, _ = np.moveaxis(theta, -2, 0)
    return np.stack((t11, t21, np.zeros_like(t11), t12 - t11), axis=-2)


def _objective(evaluate, C: np.ndarray, negate: bool):
    """The function the solver minimizes over the coordinates y, with
    theta = C y for the (4 d, 3 c) map C = Theta (x) (the c free columns
    of I_d): evaluate's value at theta, its gradient C^T g, and the
    function that forms C^T H C for chosen rows, all negated if negate
    is true, as for a maximum.  evaluate is one of the engine kernels.
    Each product is a stack of per-row products, so a row's result does
    not depend on its batch."""
    n, CT = len(C), C.T

    def fun(y: np.ndarray):
        m = len(y)
        value, gradient, hessian = evaluate((y[:, None, :] @ CT).reshape(m, 4, n // 4))
        gradient = (gradient.reshape(m, 1, n) @ C)[:, 0]

        def curvature(rows: np.ndarray) -> np.ndarray:
            H = CT @ hessian(rows).reshape(-1, n, n) @ C
            return np.negative(H, out=H) if negate else H

        if negate:
            return -value, np.negative(gradient, out=gradient), curvature
        return value, gradient, curvature

    return fun


def _multistart(evaluate, d: int, columns: range | np.ndarray, config: OptimizerConfig,
                finish) -> OptimizationRun:
    """Search for the config.direction extremum of evaluate over the
    summed phases of the given columns, the others held at zero, from
    config.restarts starts run as one batch.  Restart r draws the 4 c
    phases phi0 of its c columns uniformly from [0, 2 pi) with the PRNG
    stream (config.seed, r), so results are reproducible.  The solver
    runs over the 3 c coordinates y of theta = C y, from
    y0 = diag(1/4, 1/2, 1/2) Theta^T L phi0 per column.  finish(phases,
    best) takes every restart's phases, in the gauge B1 = 0, and the
    extremal restart, and returns the run's state, its settings and the
    per-restart eigengaps."""
    maximize = config.direction is Direction.MAXIMIZE
    restarts, c = config.restarts, len(columns)
    C = _coordinate_map(d, columns)
    starts = np.zeros((restarts, 4, d))
    starts[:, :, columns] = np.array([
        np.random.default_rng((config.seed, r)).uniform(0.0, 2.0 * math.pi, size=4 * c)
        for r in range(restarts)
    ]).reshape(restarts, 4, c)
    y0 = ((_PAIRS @ starts).reshape(restarts, 1, 4 * d) @ C)[:, 0] / np.repeat((4.0, 2.0, 2.0), c)
    y, f, gnorm, iterations, rejected, mu, hessians = _minimize(_objective(evaluate, C, maximize), y0)
    values = -f if maximize else f
    # f is the minimized objective in either direction; ties keep the lowest index.
    best = int(f.argmin())
    state, settings, eigengaps = finish(
        _gauge_phases((y[:, None, :] @ C.T).reshape(restarts, 4, d)), best)
    return OptimizationRun(
        best=ExtremalResult(float(values[best]), state, settings),
        best_restart=best,
        per_restart_values=tuple(values.tolist()),
        per_restart_iterations=tuple(iterations.tolist()),
        per_restart_gradient_norms=tuple(gnorm.tolist()),
        per_restart_rejected=tuple(rejected.tolist()),
        per_restart_mu=tuple(mu.tolist()),
        per_restart_eigengaps=eigengaps,
        hessians=int(hessians.sum()),
    )


def optimize_angles(state: PureState, config: OptimizerConfig) -> OptimizationRun:
    """Multi-start search over the phases at a fixed state, in the summed
    phases of the columns k with a_k != 0 but the first; the best
    settings have B1 = 0 and every other column at zero."""
    dim = state.dim
    a = np.asarray(state.coefficients)
    return _multistart(lambda theta: value_and_gradient_arrays(a, theta),
                       dim.d, np.flatnonzero(a)[1:], config,
                       lambda phases, best:
                       (state, MeasurementSettings.from_phases(dim, phases[best].tolist()), ()))


def optimize_joint(dim: Dimension, config: OptimizerConfig) -> OptimizationRun:
    """Joint search over state coefficients and phases.

    For fixed phases the Bell value is the quadratic form a^T M a on the
    sphere sum a^2 = d, so its extremum over states is d lambda_ext(M),
    reached at a = sqrt(d) v with v the extreme unit eigenvector of the
    pair matrix.  The search therefore runs over the phases alone,
    optimizing d lambda_ext(M(phases)) with the same multi-start solver
    and restart streams as optimize_angles.

    The reported state is non-negative: v is flipped so that v_0 >= 0,
    and every other negative v_k becomes |v_k| with pi added to A1[k]
    and A2[k], which leaves the value unchanged and the settings in the
    gauge B1 = 0 of the search, with column 0 at zero.  The run records
    each restart's eigengap, which per_restart_converged tests.
    """
    d = _require_dimension(dim)
    largest = config.direction is Direction.MAXIMIZE

    def finish(phases: np.ndarray, best: int):
        # eigh sorts ascending: the extreme is column k, its neighbour the adjacent one.
        w, V = np.linalg.eigh(pair_matrix(phases))
        k = -1 if largest else 0
        gaps = d * (w[:, 1:] - w[:, :-1])[:, k]  # d |lambda_ext - lambda_next|
        phases, v = phases[best].copy(), V[best, :, k]
        if v[0] < 0.0:
            v = -v
        phases[:2, v < 0.0] += math.pi
        state = make_state(dim, tuple(math.sqrt(d) * float(c) for c in np.abs(v)))
        return state, MeasurementSettings.from_phases(dim, phases.tolist()), tuple(gaps.tolist())

    return _multistart(lambda theta: extreme_value_and_gradient(theta, largest),
                       d, range(1, d), config, finish)


def max_abs_t_coefficient(pair: tuple[int, int], restarts: int = 8,
                          seed: int = 0) -> tuple[float, OptimizationRun]:
    """Numerically maximize |T_kl| for one index pair (d = 4): the magnitude and its run.

    T_kl is the Bell value at the unnormalized state e_k + e_l, so this
    is optimize_angles at that state, normalized to a_k = a_l = sqrt 2,
    where the value is 2 T_kl.  The search frees column l alone; the
    run's best settings have B1 = 0 and every column but l at zero.  Only
    the maximum is searched: adding pi to A1[l] and A2[l] maps T_kl to
    -T_kl, so the maximum of T_kl is the maximum of |T_kl|.  Callers
    use at least 3 restarts; a single restart can stop at a saddle:
    over seeds 0-5 one restart reaches every pair's maximum except
    pair (0, 3) at seed 2, which stops at Gamma3 = 0.360797.
    """
    if not (isinstance(pair, tuple) and all(map(_is_int, pair)) and pair in PAIR_SLOTS):
        raise ValidationError(f"pair must be one of {PAIR_SLOTS}, got {pair!r}")
    state = make_state(Dimension(4), [float(j in pair) for j in range(4)])
    run = optimize_angles(state, OptimizerConfig(restarts=restarts, seed=seed))
    return abs(run.best.value) / 2.0, run
