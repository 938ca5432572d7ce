"""Multi-start numerical search for extrema of the Bell value.

The search variables are the 4 d measurement phases, with one phase
per vector pinned to zero, since only differences matter.  The joint
problem over states and phases reduces to the phases too: for fixed
phases the Bell value is a^T M a on the sphere sum a^2 = d, so the best
state is the extreme eigenvector of the pair matrix M and the value is
d lambda_ext(M); its phase gradient follows from the Hellmann-Feynman
theorem.  Each restart runs Barzilai-Borwein steps with a nonmonotone
backtracking guard, then polishes with damped Newton on a
finite-difference Hessian of the analytic gradient; the polish is what
reliably drives the gradient norm to the 1e-9 default at degenerate
optima where first-order steps stall.

All restarts of a search run as one batch: every objective call
evaluates the stacked phases of the restarts still running, while each
restart keeps its own step size, line search, stopping tests and
Newton damping.  A restart's result is the same, bit for bit, whichever
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
from .engine import _circulant, extreme_value_and_gradient, value_and_gradient_arrays
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
_STALL_WINDOW = 12
_STALL_RTOL = 1e-13
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_POLISH_STEPS = 40
_FD_STEP = 1e-7
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
    iterations, convergence and final gradient norm; iterations_used
    is their iteration sum.  A restart counts as converged when it
    passes the gradient test and, for the joint search, its extreme
    eigenvalue is simple; converged is the winning restart's flag.
    """

    best: ExtremalResult
    per_restart_values: tuple[float, ...]
    iterations_used: int
    converged: bool
    per_restart_iterations: tuple[int, ...]
    per_restart_converged: tuple[bool, ...]
    per_restart_gradient_norms: tuple[float, ...]
    evaluations: Evaluations


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Row-wise dot products through matmul, which takes the same BLAS
    # dot for every row whatever the batch size.
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _norms(g: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(g, g))


def _bb_steps(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Barzilai-Borwein steps |s.s / s.y|, 1 where s.y = 0, clipped to
    # [1e-12, 1e3].
    sy = _dots(s, y)
    ratio = np.divide(_dots(s, s), sy, out=np.ones_like(sy), where=sy != 0.0)
    return np.minimum(np.maximum(np.abs(ratio), 1e-12), 1e3)


def _fd_hessians(fun, x: np.ndarray, g0: np.ndarray) -> np.ndarray:
    # One objective call on the m n rows x[r] + h e_t; row (r, t) gives
    # column t of restart r's Hessian.
    m, n = x.shape
    shifted = np.repeat(x[:, None, :], n, axis=1)
    shifted[:, np.arange(n), np.arange(n)] += _FD_STEP
    _, g = fun(shifted.reshape(m * n, n))
    H = ((g.reshape(m, n, n) - g0[:, None, :]) / _FD_STEP).transpose(0, 2, 1)
    return 0.5 * (H + H.transpose(0, 2, 1))


def _solve(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Solves every system A[r] s = b[r]; a singular one is marked unsolved
    # instead of failing the batch.
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        s = np.zeros_like(b)
        solved = np.ones(len(A), dtype=bool)
        for r in range(len(A)):
            try:
                s[r] = np.linalg.solve(A[r:r + 1], b[r:r + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[r] = False
        return s, solved


def _backtrack(fun, x: np.ndarray, g: np.ndarray, step: np.ndarray, gnorm: np.ndarray,
               reference: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nonmonotone Armijo backtracking along -g from every row of x:
    each row's step is halved until its trial point passes the test
    against reference, for at most _MAX_HALVINGS trials, and each
    halving re-evaluates only the rows still pending.  Returns the
    accepted mask and the trial points, values and gradients, which
    hold only where accepted."""
    x_new = x - step[:, None] * g
    f_new, g_new = fun(x_new)
    accepted = f_new <= reference - _ARMIJO * step * gnorm * gnorm
    if accepted.all():
        return accepted, x_new, f_new, g_new
    rows = np.flatnonzero(~accepted)
    x, g, t, gnorm, reference = x[rows], g[rows], step[rows], gnorm[rows], reference[rows]
    for _ in range(_MAX_HALVINGS - 1):
        t = t * 0.5
        x_try = x - t[:, None] * g
        f_try, g_try = fun(x_try)
        ok = f_try <= reference - _ARMIJO * t * gnorm * gnorm
        if ok.any():
            hit = rows[ok]
            x_new[hit], f_new[hit], g_new[hit] = x_try[ok], f_try[ok], g_try[ok]
            accepted[hit] = True
            keep = ~ok
            if not keep.any():
                break
            rows, x, g, t, gnorm, reference = (
                rows[keep], x[keep], g[keep], t[keep], gnorm[keep], reference[keep])
    return accepted, x_new, f_new, g_new


def _first_order(fun, x: np.ndarray, f: np.ndarray, g: np.ndarray,
                 max_iterations: int, gradient_tolerance: float) -> np.ndarray:
    """Barzilai-Borwein steps with a nonmonotone Armijo guard for every
    row of x, updating x, f and g in place; returns the iterations."""
    R = len(x)
    iterations = np.zeros(R, dtype=int)
    # The working set holds the restarts still stepping, compacted.  They
    # advance together, so they share one iteration count and one array
    # of values per past iteration.
    rows = np.arange(R)
    xs, fs, gs = x.copy(), f.copy(), g.copy()
    x_prev, g_prev = np.zeros_like(xs), np.zeros_like(gs)
    has_prev = np.zeros(R, dtype=bool)
    fail_streak = np.zeros(R, dtype=int)
    history = [fs]
    k = 0
    while True:
        gnorm = _norms(gs)
        done = (gnorm <= gradient_tolerance) | (fail_streak >= 2)
        if len(history) == _STALL_WINDOW:
            done |= history[0] - fs < _STALL_RTOL * (1.0 + np.abs(fs))
        if k >= max_iterations:
            done[:] = True
        if done.any():
            out = rows[done]
            x[out], f[out], g[out] = xs[done], fs[done], gs[done]
            iterations[out] = k
            keep = ~done
            if not keep.any():
                return iterations
            rows, xs, fs, gs, gnorm = rows[keep], xs[keep], fs[keep], gs[keep], gnorm[keep]
            x_prev, g_prev = x_prev[keep], g_prev[keep]
            has_prev, fail_streak = has_prev[keep], fail_streak[keep]
            history = [h[keep] for h in history]
        k += 1
        if has_prev.all():
            step = _bb_steps(xs - x_prev, gs - g_prev)
        else:
            step = np.where(has_prev, _bb_steps(xs - x_prev, gs - g_prev),
                            0.1 / np.maximum(1.0, gnorm))
        accepted, x_new, f_new, g_new = _backtrack(
            fun, xs, gs, step, gnorm, np.maximum.reduce(history[-5:]))
        if accepted.all():
            x_prev, g_prev, xs, fs, gs = xs, gs, x_new, f_new, g_new
            has_prev[:] = True
            fail_streak[:] = 0
        else:
            column = accepted[:, None]
            x_prev, g_prev = np.where(column, xs, x_prev), np.where(column, gs, g_prev)
            xs, gs = np.where(column, x_new, xs), np.where(column, g_new, gs)
            fs = np.where(accepted, f_new, fs)
            has_prev |= accepted
            fail_streak = np.where(accepted, 0, fail_streak + 1)
        history.append(fs)
        del history[:-_STALL_WINDOW]


def _polish(fun, x: np.ndarray, f: np.ndarray, g: np.ndarray, iterations: np.ndarray,
            max_iterations: int, gradient_tolerance: float) -> None:
    """Damped Newton steps on a finite-difference Hessian for every row
    of x, updating x, f, g and iterations in place."""
    n = x.shape[1]
    identity = np.eye(n)
    rows = np.arange(len(x))
    xs, fs, gs, its = x.copy(), f.copy(), g.copy(), iterations.copy()
    mu = np.full(len(x), 1e-6)
    for step in range(_POLISH_STEPS + 1):
        gnorm = _norms(gs)
        done = (gnorm <= gradient_tolerance) | (its >= max_iterations) | (mu > 1e8)
        if step == _POLISH_STEPS:
            done[:] = True
        if done.any():
            out = rows[done]
            x[out], f[out], g[out], iterations[out] = xs[done], fs[done], gs[done], its[done]
            keep = ~done
            if not keep.any():
                return
            rows, xs, fs, gs, its = rows[keep], xs[keep], fs[keep], gs[keep], its[keep]
            gnorm, mu = gnorm[keep], mu[keep]
        its += 1
        H = _fd_hessians(fun, xs, gs)
        s, solved = _solve(H + mu[:, None, None] * identity, -gs)
        x_try, f_try, g_try = xs + s, fs.copy(), gs.copy()
        if solved.any():
            f_try[solved], g_try[solved] = fun(x_try[solved])
        better = solved & ((_norms(g_try) < gnorm) | (f_try < fs - 1e-13))
        column = better[:, None]
        xs, fs, gs = np.where(column, x_try, xs), np.where(better, f_try, fs), \
            np.where(column, g_try, gs)
        mu = np.where(better, np.maximum(mu * 0.3, 1e-10), mu * 10.0)


def _minimize(fun, x0: np.ndarray, max_iterations: int, gradient_tolerance: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize fun from every row of the (R, n) batch of starts x0.

    fun maps an (m, n) batch of points to their (m,) values and (m, n)
    gradients, row by row.  Each restart takes Barzilai-Borwein steps
    until its gradient test passes, two line searches fail in a row or
    its value stalls, then damped Newton steps; a restart that passed
    its gradient test takes none.  Returns per restart the point,
    value, gradient norm, iterations and convergence flag, as (R, n),
    (R,), (R,), (R,) and (R,) arrays.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    iterations = _first_order(fun, x, f, g, max_iterations, gradient_tolerance)
    # Damped Newton polish: first-order steps stall in the flat,
    # nearly quadratic basin around degenerate optima.
    _polish(fun, x, f, g, iterations, max_iterations, gradient_tolerance)
    gnorm = _norms(g)
    return x, f, gnorm, iterations, gnorm <= gradient_tolerance


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
    free variables.  evaluate maps (m, 4, d) phases to (m,) values and
    (m, 4, d) phase gradients."""
    def fun(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value, gradient = evaluate(_place(x, d, free))
        return -sign * value, -sign * gradient[:, :, free].reshape(len(x), -1)

    return fun


def _best(values: np.ndarray, direction: Direction) -> int:
    # The extremal restart; ties keep the lowest index.
    return int(values.argmax() if direction is Direction.MAXIMIZE else values.argmin())


@dataclass(frozen=True)
class _Search:
    # Per restart: value in the Bell value's own sign, phases, gradient
    # norm, iterations and gradient-test flag.
    values: np.ndarray
    phases: np.ndarray
    gradient_norms: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    evaluations: Evaluations
    best: int


def _multistart(evaluate, d: int, free: slice, stream: tuple[int, ...],
                config: OptimizerConfig, max_iterations: int = _MAX_ITERATIONS,
                gradient_tolerance: float = _GRADIENT_TOLERANCE) -> _Search:
    """Search for the config.direction extremum of evaluate over the
    phase columns free, the other phases held at zero, from
    config.restarts starts run as one batch.  Restart r draws its start
    uniformly from [0, 2 pi) with the independent PRNG stream
    (*stream, r), so results are reproducible."""
    sign = 1.0 if config.direction is Direction.MAXIMIZE else -1.0
    fun = _objective(evaluate, d, free, sign)
    calls = rows = 0

    def counted(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal calls, rows
        calls += 1
        rows += len(x)
        return fun(x)

    n = 4 * len(range(d)[free])
    x0 = np.array([
        np.random.default_rng((*stream, r)).uniform(0.0, 2.0 * math.pi, size=n)
        for r in range(config.restarts)
    ])
    x, f, gnorm, iterations, converged = _minimize(counted, x0, max_iterations,
                                                   gradient_tolerance)
    values = -sign * f
    return _Search(values, _place(x, d, free), gnorm, iterations, converged,
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
        lambda phases: extreme_value_and_gradient(phases, d, variant, largest)[:2],
        d, _GAUGE, (config.seed,), config)
    _, _, vectors, gaps = extreme_value_and_gradient(search.phases, d, variant, largest)
    converged = search.converged & (gaps > _GAP_RTOL * (1.0 + np.abs(search.values)))
    best = search.best
    phases, v = search.phases[best].copy(), vectors[best]
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
    T_kl is the maximum of |T_kl|.  Callers use at least 3 restarts; a
    single restart can stop at a saddle (at seed 0, pairs (1, 2) and
    (2, 3) stop at +-1/3).
    """
    if pair not in PAIR_SLOTS:
        raise ValidationError(f"pair must be one of {PAIR_SLOTS}, got {pair!r}")
    k, l = pair
    a = np.zeros(4)
    a[[k, l]] = 1.0

    def evaluate(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return value_and_gradient_arrays(a, phases, 4, KernelVariant.PLUS)

    search = _multistart(evaluate, 4, slice(k, k + 1), (seed, 1),
                         OptimizerConfig(restarts=restarts, seed=seed), 2000, 1e-11)
    best = search.best
    return abs(float(search.values[best])), _settings(search.phases[best], Dimension(4))
