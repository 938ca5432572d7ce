"""Multi-start numerical search for extrema of the Bell value.

The search variables are the 4 d measurement phases, with one phase
per vector pinned to zero, since only differences matter.  The joint
problem over states and phases reduces to the phases too: for fixed
phases the Bell value is a^T M a on the sphere sum a^2 = d, so the best
state is the extreme eigenvector of the pair matrix M and the value is
d lambda_ext(M); its phase gradient follows from the Hellmann-Feynman
theorem, and its phase Hessian adds the second-order eigenvalue
perturbation term to that of a^T M a at the fixed state.  Each restart
runs one regularized Newton loop on these exact Hessians (in the manner
of More and Sorensen 1983): the shift mu + max(0, -lambda_min(H)) keeps
every step a descent direction, and mu shrinks after a kept step and
grows after a rejected one.  A step needs only the eigenvalues of H,
for the shift, and one direct solve of the shifted system.  Each
restart reports its rejected steps and final mu beside its iterations.

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
    """The best restart of a search: its value, the state and settings
    that reach it, and how the search found it."""

    value: float
    state: PureState
    settings: MeasurementSettings
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class OptimizationRun:
    """Outcome of one multi-start search.

    per_restart_values lists the converged value of every restart in
    restart order; best is the extremal one (ties keep the lowest
    restart index).  The other per_restart_ fields list each restart's
    iterations, convergence, final gradient norm, rejected Newton steps
    and final regularization mu; iterations_used is their iteration
    sum.  A restart counts as converged when it passes the gradient
    test and, for the joint search, its extreme eigenvalue is simple;
    converged is the winning restart's flag.
    """

    best: ExtremalResult
    per_restart_values: tuple[float, ...]
    iterations_used: int
    converged: bool
    per_restart_iterations: tuple[int, ...]
    per_restart_converged: tuple[bool, ...]
    per_restart_gradient_norms: tuple[float, ...]
    per_restart_rejected: tuple[int, ...]
    per_restart_mu: tuple[float, ...]
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
    gradients and (m, n, n) Hessians, row by row.  Each restart takes
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


def _place(x: np.ndarray, d: int, free: slice) -> np.ndarray:
    # (m, n) free variables -> (m, 4, d) phases, zero outside the columns free.
    phases = np.zeros((len(x), 4, d))
    phases[:, :, free] = x.reshape(len(x), 4, -1)
    return phases


def _objective(evaluate, d: int, free: slice, sign: float):
    """The function the solver minimizes: -sign times evaluate's value,
    and its gradient in the free columns, at the phases that hold the
    free variables, and its Hessian over them.  evaluate maps (m, 4, d)
    phases to (m,) values, (m, 4, d) phase gradients and (m, 4, d, 4, d)
    phase Hessians."""
    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        value, gradient, hessian = evaluate(_place(x, d, free))
        m, n = x.shape
        return (-sign * value, -sign * gradient[:, :, free].reshape(m, n),
                -sign * hessian[:, :, free, :, free].reshape(m, n, n))

    return fun


def _best(values: np.ndarray, direction: Direction) -> int:
    # The extremal restart; ties keep the lowest index.
    return int(values.argmax() if direction is Direction.MAXIMIZE else values.argmin())


@dataclass(frozen=True)
class _Search:
    # Per restart: value in the Bell value's own sign, phases, gradient
    # norm, iterations, gradient-test flag, rejected steps and final mu.
    values: np.ndarray
    phases: np.ndarray
    gradient_norms: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    rejected: np.ndarray
    mu: np.ndarray
    evaluations: Evaluations
    best: int


def _multistart(evaluate, d: int, free: slice, stream: tuple[int, ...],
                config: OptimizerConfig) -> _Search:
    """Search for the config.direction extremum of evaluate over the
    phase columns free, the other phases held at zero, from
    config.restarts starts run as one batch.  Restart r draws its start
    uniformly from [0, 2 pi) with the independent PRNG stream
    (*stream, r), so results are reproducible."""
    sign = 1.0 if config.direction is Direction.MAXIMIZE else -1.0
    fun = _objective(evaluate, d, free, sign)
    calls = rows = 0

    def counted(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nonlocal calls, rows
        calls += 1
        rows += len(x)
        return fun(x)

    n = 4 * len(range(d)[free])
    x0 = np.array([
        np.random.default_rng((*stream, r)).uniform(0.0, 2.0 * math.pi, size=n)
        for r in range(config.restarts)
    ])
    x, f, gnorm, iterations, converged, rejected, mu = _minimize(
        counted, x0, _MAX_ITERATIONS, _GRADIENT_TOLERANCE)
    values = -sign * f
    return _Search(values, _place(x, d, free), gnorm, iterations, converged, rejected, mu,
                   Evaluations(calls, rows), _best(values, config.direction))


def _make_run(search: _Search, state: PureState, settings: MeasurementSettings,
              config: OptimizerConfig, variant: KernelVariant,
              converged: np.ndarray, extra: tuple[str, ...] = ()) -> OptimizationRun:
    values = tuple(search.values.tolist())
    best = search.best
    result = ExtremalResult(
        value=values[best],
        state=state,
        settings=settings,
        diagnostics=(
            f"direction={config.direction.value}",
            f"variant={variant.value}",
            f"best_restart={best}",
            *extra,
            f"gradient_norm={search.gradient_norms[best]:.3e}",
        ),
    )
    return OptimizationRun(
        best=result,
        per_restart_values=values,
        iterations_used=int(search.iterations.sum()),
        converged=bool(converged[best]),
        per_restart_iterations=tuple(int(i) for i in search.iterations),
        per_restart_converged=tuple(bool(c) for c in converged),
        per_restart_gradient_norms=tuple(float(g) for g in search.gradient_norms),
        per_restart_rejected=tuple(int(r) for r in search.rejected),
        per_restart_mu=tuple(float(m) for m in search.mu),
        evaluations=search.evaluations,
    )


# Gauge: only phase differences matter, so entry 0 of every phase
# vector stays at zero and the searches run over the other columns.
_GAUGE = slice(1, None)


def optimize_angles(state: PureState, config: OptimizerConfig,
                    variant: KernelVariant = KernelVariant.PLUS) -> OptimizationRun:
    """Multi-start search over the 4 d phases at a fixed state."""
    if config.free_state:
        raise ValidationError("optimize_angles requires config.free_state = False")
    d = state.dim.d
    _require_nonconstant(d, variant)
    a = np.asarray(state.coefficients)
    search = _multistart(lambda phases: value_and_gradient_arrays(a, phases, d, variant),
                         d, _GAUGE, (config.seed,), config)
    return _make_run(search, state, _settings(search.phases[search.best], state.dim),
                     config, variant, search.converged)


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
    is simple (eigengap above 1e-9 (1 + |value|) in Bell-value units),
    since lambda_ext has no gradient where it is degenerate.
    """
    if not config.free_state:
        raise ValidationError("optimize_joint requires config.free_state = True")
    d = dim.d
    _require_nonconstant(d, variant)
    largest = config.direction is Direction.MAXIMIZE
    search = _multistart(
        lambda phases: extreme_value_and_gradient(phases, d, variant, largest),
        d, _GAUGE, (config.seed,), config)
    _, V, k, gaps = _extreme_eigh(pair_matrix(search.phases, d, variant), d, largest)
    converged = search.converged & (gaps > _GAP_RTOL * (1.0 + np.abs(search.values)))
    best = search.best
    phases, v = search.phases[best].copy(), V[best, :, k]
    if v[0] < 0.0:
        v = -v
    phases[:2, v < 0.0] += math.pi
    state = make_state(dim, tuple(math.sqrt(d) * float(c) for c in np.abs(v)))
    return _make_run(search, state, _settings(phases, dim), config, variant,
                     converged, (f"eigengap={gaps[best]:.3e}",))


def max_abs_t_coefficient(pair: tuple[int, int], restarts: int = 8,
                          seed: int = 0) -> tuple[float, MeasurementSettings]:
    """Numerically maximize |T_kl| for one index pair (d = 4).

    T_kl is the Bell value at the unnormalized state e_k + e_l, and it
    depends on the phases only through one angle per party and setting,
    so the search runs over those four angles in phase column k; the
    returned settings carry them there.  Only the maximum is searched:
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

    search = _multistart(evaluate, 4, slice(k, k + 1), (seed, 1),
                         OptimizerConfig(restarts=restarts, seed=seed))
    best = search.best
    return abs(float(search.values[best])), _settings(search.phases[best], Dimension(4))
