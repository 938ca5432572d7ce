"""Multi-start numerical search for extrema of the Bell value.

The Bell value depends on the 4 d measurement phases only through the
summed phases theta = phi^A + phi^B of the four setting pairs, and only
through their differences between columns.  So column 0 of every phase
vector stays at zero, and in each other column the direction that adds
c to A1 and A2 and subtracts it from B1 and B2 moves no theta.  The
solver runs over the 3 (d - 1) coordinates of an orthonormal basis of
the remaining directions, whose Hessian has no such null directions.
The joint problem over states and phases reduces to the phases too:
for fixed phases the Bell value is a^T M a on the sphere sum a^2 = d, so
the best state is the extreme eigenvector of the pair matrix M and the
value is d lambda_ext(M); its phase gradient follows from the
Hellmann-Feynman theorem, and its phase Hessian adds the second-order
eigenvalue perturbation term to that of a^T M a at the fixed state.
Each restart runs one regularized Newton loop on these exact Hessians
(in the manner of More and Sorensen 1983): the shift
mu + max(0, -lambda_min(H)) keeps every step a descent direction, and mu
shrinks after a kept step and grows after a rejected one.  A step needs
only the eigenvalues of H, for the shift, and one direct solve of the
shifted system.  Each restart reports its rejected steps and final mu
beside its iterations.

All restarts of a search run as one batch: every objective call
evaluates the stacked phases of the restarts still running, while each
restart keeps its own regularization and stopping tests, the same for
every search.  A restart's result is the same, bit for bit, whichever
restarts share its batch.

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
    Dimension,
    KernelVariant,
    MeasurementSettings,
    PhaseVector,
    PureState,
    ValidationError,
    make_state,
    require_seed,
)
from .engine import (_circulant, _extreme_eigh, extreme_value_and_gradient, pair_matrix,
                     value_and_gradient_arrays)
from .analytic import PAIR_SLOTS

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
    free_state: bool = False

    def __post_init__(self) -> None:
        if (not isinstance(self.restarts, int) or isinstance(self.restarts, bool)
                or self.restarts < 1):
            raise ValidationError(f"restarts must be an int >= 1, got {self.restarts!r}")
        require_seed(self.seed)
        if not isinstance(self.direction, Direction):
            raise ValidationError(f"direction must be a Direction, got {self.direction!r}")
        if not isinstance(self.free_state, bool):
            raise ValidationError(f"free_state must be a bool, got {self.free_state!r}")


@dataclass(frozen=True)
class Evaluations:
    """Objective evaluations of one search: the batched calls, and the
    rows they evaluated, one restart's phases per row."""

    calls: int
    rows: int


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
    each restart's iterations, convergence, final gradient norm,
    rejected Newton steps and final regularization mu; iterations_used
    is their iteration sum.  per_restart_eigengaps lists, for the joint
    search, d |lambda_ext - lambda_next| of the pair matrix at each
    restart's final phases, and is empty for the angle search.  A
    restart counts as converged when it passes the gradient test and,
    for the joint search, its eigengap exceeds 1e-9 (1 + |value|), so
    that its extreme eigenvalue is simple; converged is the winning
    restart's flag.
    """

    best: ExtremalResult
    best_restart: int
    per_restart_values: tuple[float, ...]
    iterations_used: int
    converged: bool
    per_restart_iterations: tuple[int, ...]
    per_restart_converged: tuple[bool, ...]
    per_restart_gradient_norms: tuple[float, ...]
    per_restart_rejected: tuple[int, ...]
    per_restart_mu: tuple[float, ...]
    per_restart_eigengaps: tuple[float, ...]
    evaluations: Evaluations


def _norms(g: np.ndarray) -> np.ndarray:
    # Row norms through matmul, which takes the same BLAS dot for every
    # row whatever the batch size.
    return np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])


def _newton_steps(H: np.ndarray, g: np.ndarray, mu: np.ndarray) -> np.ndarray:
    # Per row, s = -(H + (mu + max(0, -lambda_min(H))) I)^-1 g.  LAPACK
    # works row by row, so a row's step does not depend on its batch.
    shift = mu + np.maximum(0.0, -np.linalg.eigvalsh(H)[:, 0])
    shifted = H + shift[:, None, None] * np.eye(H.shape[-1])
    return -np.linalg.solve(shifted, g[:, :, None])[:, :, 0]


def _minimize(fun, x0: np.ndarray, max_iterations: int, gradient_tolerance: float
              ) -> tuple[np.ndarray, ...]:
    """Minimize fun from every row of the (R, n) batch of starts x0.

    fun maps an (m, n) batch of points to their (m,) values, (m, n)
    gradients and (m, n, n) Hessians, row by row; the searches pass the
    gauge-free coordinates of _objective.  Each restart takes
    regularized Newton steps s = -(H + (mu + max(0, -lambda_min(H))) I)^-1 g,
    a descent direction even where H is indefinite: lambda_min comes
    from the eigenvalues alone, and the shifted, positive definite
    system is solved directly.  A step is kept when the value falls by
    more than 1e-13 (1 + |f|), or stays within that margin while the
    gradient norm falls; mu then shrinks by 4 (to at least 1e-10), and
    grows by 4 after a rejected step.  A restart stops when its
    gradient test passes, when mu exceeds 1e8 or after max_iterations
    steps.  The loop updates full-size arrays in place, stepping only the
    restarts still running.  Returns per restart the point, value,
    gradient norm, iterations, convergence flag, rejected steps and
    final mu, as (R, n), (R,), (R,), (R,), (R,), (R,) and (R,) arrays.
    """
    x = np.array(x0, dtype=float)
    f, g, H = fun(x)
    gnorm = _norms(g)
    mu = np.ones(len(x))
    iterations = np.zeros(len(x), dtype=int)
    rejected = np.zeros(len(x), dtype=int)
    # The restarts still stepping; the others keep their final entries.
    active = np.arange(len(x))
    while True:
        done = ((gnorm[active] <= gradient_tolerance) | (mu[active] > 1e8)
                | (iterations[active] >= max_iterations))
        active = active[~done]
        if not len(active):
            return x, f, gnorm, iterations, gnorm <= gradient_tolerance, rejected, mu
        x_try = x[active] + _newton_steps(H[active], g[active], mu[active])
        f_try, g_try, H_try = fun(x_try)
        gnorm_try = _norms(g_try)
        f_old = f[active]
        margin = 1e-13 * (1.0 + np.abs(f_old))
        kept = (f_try < f_old - margin) | ((f_try <= f_old + margin) & (gnorm_try < gnorm[active]))
        moved = active[kept]
        x[moved], f[moved], g[moved], H[moved], gnorm[moved] = \
            x_try[kept], f_try[kept], g_try[kept], H_try[kept], gnorm_try[kept]
        mu[active] = np.where(kept, np.maximum(mu[active] * 0.25, 1e-10), mu[active] * 4.0)
        rejected[active] += ~kept
        iterations[active] += 1


def _settings(phases: np.ndarray, dim: Dimension) -> MeasurementSettings:
    vectors = [PhaseVector(dim, tuple(float(v) for v in row)) for row in phases]
    return MeasurementSettings(dim, *vectors)


def _require_nonconstant(d: int, variant: KernelVariant) -> None:
    # At odd d the minus kernel sums to zero over every outcome class, so
    # the Bell value is 0 for every state and every angle.
    if not np.any(_circulant(d, variant)):
        raise ValidationError(
            f"the {variant.value} kernel makes the Bell value identically 0 at "
            f"d = {d}: constant objective, nothing to optimize"
        )


# Per free phase column, an orthonormal basis (rows A1, A2, B1, B2) of
# the directions that move the summed phases: with coordinates y,
# theta = (y0 + y1, y0 + y2, y0 - y2, y0 - y1) for the setting pairs
# A1B1, A1B2, A2B1 and A2B2.  The fourth direction, (1, 1, -1, -1) / 2,
# moves no theta: it is the gauge, and the searches leave it out.
_COLUMN_BASIS = 0.5 * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                                [1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
_COLUMN_BASIS.flags.writeable = False


def _basis(d: int, columns: range | tuple[int, ...]) -> np.ndarray:
    # The (4 d, 3 c) orthonormal basis over the c phase columns given,
    # zero in the others.  Row p d + k is phase row p, column k; column
    # s c + j is coordinate y_s of the j-th column given.
    return np.kron(_COLUMN_BASIS, np.eye(d)[:, columns])


def _objective(evaluate, d: int, basis: np.ndarray, sign: float):
    """The function the solver minimizes over the coordinates y of the
    basis: -sign times evaluate's value at the phases basis y, and its
    gradient basis^T g and Hessian basis^T H basis.  evaluate maps
    (m, 4, d) phases to (m,) values, (m, 4, d) phase gradients and
    (m, 4, d, 4, d) phase Hessians.  Each projection is a stack of
    per-row products, so a row's result does not depend on its batch."""
    n = 4 * d

    def fun(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = len(y)
        value, gradient, hessian = evaluate((y[:, None, :] @ basis.T).reshape(m, 4, d))
        return (-sign * value, -sign * (gradient.reshape(m, 1, n) @ basis)[:, 0],
                -sign * (basis.T @ hessian.reshape(m, n, n) @ basis))

    return fun


@dataclass(frozen=True)
class _Search:
    # Per restart: value in the Bell value's own sign, phases, gradient
    # norm, iterations, gradient-test flag, rejected steps and final mu;
    # then the search's evaluations and the index of its extremal restart.
    values: np.ndarray
    phases: np.ndarray
    gradient_norms: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    rejected: np.ndarray
    mu: np.ndarray
    evaluations: Evaluations
    best: int


def _multistart(evaluate, d: int, columns: range | tuple[int, ...],
                stream: tuple[int, ...], config: OptimizerConfig) -> _Search:
    """Search for the config.direction extremum of evaluate over the
    given phase columns, the other phases held at zero, from
    config.restarts starts run as one batch.  Restart r draws the 4 c
    phases of its c columns uniformly from [0, 2 pi) with the independent
    PRNG stream (*stream, r), so results are reproducible.  The solver
    runs over the 3 c gauge-free coordinates y of _basis, from
    y0 = basis^T phi0; the search reports phi0 + basis (y - y0), which
    keeps each start's gauge component."""
    maximize = config.direction is Direction.MAXIMIZE
    sign = 1.0 if maximize else -1.0
    restarts, c = config.restarts, len(columns)
    basis = _basis(d, columns)
    starts = np.zeros((restarts, 4, d))
    starts[:, :, columns] = np.array([
        np.random.default_rng((*stream, r)).uniform(0.0, 2.0 * math.pi, size=4 * c)
        for r in range(restarts)
    ]).reshape(restarts, 4, c)
    y0 = (starts.reshape(restarts, 1, 4 * d) @ basis)[:, 0]
    y, f, gnorm, iterations, converged, rejected, mu = _minimize(
        _objective(evaluate, d, basis, sign), y0, _MAX_ITERATIONS, _GRADIENT_TOLERANCE)
    phases = starts + ((y - y0)[:, None, :] @ basis.T).reshape(starts.shape)
    values = -sign * f
    # _minimize evaluates every start once, then the restarts still
    # running once per pass, each of which counts the pass as an iteration.
    evaluations = Evaluations(1 + int(iterations.max()), restarts + int(iterations.sum()))
    # Ties keep the lowest index.
    best = int(values.argmax() if maximize else values.argmin())
    return _Search(values, phases, gnorm, iterations, converged, rejected, mu,
                   evaluations, best)


def _make_run(search: _Search, state: PureState, settings: MeasurementSettings,
              converged: np.ndarray, eigengaps: tuple[float, ...] = ()) -> OptimizationRun:
    values = tuple(search.values.tolist())
    best = search.best
    return OptimizationRun(
        best=ExtremalResult(values[best], state, settings),
        best_restart=best,
        per_restart_values=values,
        iterations_used=int(search.iterations.sum()),
        converged=bool(converged[best]),
        per_restart_iterations=tuple(int(i) for i in search.iterations),
        per_restart_converged=tuple(bool(c) for c in converged),
        per_restart_gradient_norms=tuple(float(g) for g in search.gradient_norms),
        per_restart_rejected=tuple(int(r) for r in search.rejected),
        per_restart_mu=tuple(float(m) for m in search.mu),
        per_restart_eigengaps=eigengaps,
        evaluations=search.evaluations,
    )


def optimize_angles(state: PureState, config: OptimizerConfig,
                    variant: KernelVariant = KernelVariant.PLUS) -> OptimizationRun:
    """Multi-start search over the phases at a fixed state, run in the
    3 (d - 1) gauge-free coordinates."""
    if config.free_state:
        raise ValidationError("optimize_angles requires config.free_state = False")
    d = state.dim.d
    _require_nonconstant(d, variant)
    a = np.asarray(state.coefficients)
    search = _multistart(lambda phases: value_and_gradient_arrays(a, phases, d, variant),
                         d, range(1, d), (config.seed,), config)
    return _make_run(search, state, _settings(search.phases[search.best], state.dim),
                     search.converged)


def optimize_joint(dim: Dimension, config: OptimizerConfig,
                   variant: KernelVariant = KernelVariant.PLUS) -> OptimizationRun:
    """Joint search over state coefficients and phases.

    For fixed phases the Bell value is the quadratic form a^T M a on the
    sphere sum a^2 = d, so its extremum over states is d lambda_ext(M),
    reached at a = sqrt(d) v with v the extreme unit eigenvector of the
    pair matrix.  The search therefore runs over the phases alone,
    optimizing d lambda_ext(M(phases)) with the same multi-start solver
    and restart streams as optimize_angles.

    The reported state is non-negative: v is flipped so that v_0 >= 0,
    and every other negative v_k becomes |v_k| with pi added to A1[k]
    and A2[k], which leaves the value unchanged.  A restart counts as
    converged if it passes the gradient test and its extreme eigenvalue
    is simple (eigengap above 1e-9 (1 + |value|) in Bell-value units,
    as listed in per_restart_eigengaps), since lambda_ext has no
    gradient where it is degenerate.
    """
    if not config.free_state:
        raise ValidationError("optimize_joint requires config.free_state = True")
    d = dim.d
    _require_nonconstant(d, variant)
    largest = config.direction is Direction.MAXIMIZE
    search = _multistart(
        lambda phases: extreme_value_and_gradient(phases, d, variant, largest),
        d, range(1, d), (config.seed,), config)
    _, V, k, gaps = _extreme_eigh(pair_matrix(search.phases, d, variant), d, largest)
    converged = search.converged & (gaps > _GAP_RTOL * (1.0 + np.abs(search.values)))
    best = search.best
    phases, v = search.phases[best].copy(), V[best, :, k]
    if v[0] < 0.0:
        v = -v
    phases[:2, v < 0.0] += math.pi
    state = make_state(dim, tuple(math.sqrt(d) * float(c) for c in np.abs(v)))
    return _make_run(search, state, _settings(phases, dim), converged, tuple(gaps.tolist()))


def max_abs_t_coefficient(pair: tuple[int, int], restarts: int = 8,
                          seed: int = 0) -> tuple[float, MeasurementSettings]:
    """Numerically maximize |T_kl| for one index pair (d = 4).

    T_kl is the Bell value at the unnormalized state e_k + e_l, and it
    depends on the phases only through one angle per party and setting,
    the four angles of phase column k, and on those only through their
    summed phases.  So the search runs over the three gauge-free
    coordinates of that column; the returned settings carry the angles
    there.  Only the maximum is searched:
    adding pi to A1[k] and A2[k] maps T_kl to -T_kl, so the maximum of
    T_kl is the maximum of |T_kl|.  The search stops as the other
    searches do.  Callers use at least 3 restarts; a single restart can
    stop at a saddle: over seeds 0-5 one restart reaches every pair's
    maximum except pair (0, 3) at seed 2, which stops at Gamma3 =
    0.360797.
    """
    if pair not in PAIR_SLOTS:
        raise ValidationError(f"pair must be one of {PAIR_SLOTS}, got {pair!r}")
    k, l = pair
    a = np.zeros(4)
    a[[k, l]] = 1.0

    def evaluate(phases: np.ndarray) -> tuple[np.ndarray, ...]:
        return value_and_gradient_arrays(a, phases, 4, KernelVariant.PLUS)

    search = _multistart(evaluate, 4, (k,), (seed, 1),
                         OptimizerConfig(restarts=restarts, seed=seed))
    best = search.best
    return abs(float(search.values[best])), _settings(search.phases[best], Dimension(4))
