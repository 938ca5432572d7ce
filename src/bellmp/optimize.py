"""Multi-start numerical search for extrema of the Bell value.

The search variables are the 4 d measurement phases (with one phase
per vector pinned to zero, since only differences matter) and, for the
joint problem, the state coefficients on the sphere sum a^2 = d.  Each
restart runs Barzilai-Borwein steps with a nonmonotone backtracking
guard, then polishes with damped Newton on a finite-difference Hessian
of the analytic gradient; the polish is what reliably drives the
gradient norm to the 1e-9 default at degenerate optima where
first-order steps stall.

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
)
from .engine import value_and_gradient_arrays
from .analytic import PAIR_SLOTS, ExtremalResult

__all__ = [
    "Direction",
    "OptimizerConfig",
    "OptimizationRun",
    "optimize_angles",
    "optimize_joint",
    "max_abs_t_coefficient",
]

_STALL_WINDOW = 12
_STALL_RTOL = 1e-13
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_POLISH_STEPS = 40
_FD_STEP = 1e-7
_STATE_STAGE_ITER = 400
_PHASE_STAGE_ITER = 2000
_JOINT_ROUNDS = 200


class Direction(enum.Enum):
    MAXIMIZE = "max"
    MINIMIZE = "min"


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    max_iterations: int = 10_000
    gradient_tolerance: float = 1e-9
    seed: int = 0
    direction: Direction = Direction.MAXIMIZE
    free_state: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.restarts, int) or self.restarts < 1:
            raise ValidationError(f"restarts must be an int >= 1, got {self.restarts!r}")
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be an int >= 1, got {self.max_iterations!r}"
            )
        if not (math.isfinite(self.gradient_tolerance) and self.gradient_tolerance > 0):
            raise ValidationError(
                f"gradient_tolerance must be positive, got {self.gradient_tolerance!r}"
            )
        if not isinstance(self.direction, Direction):
            raise ValidationError(f"direction must be a Direction, got {self.direction!r}")


@dataclass(frozen=True)
class OptimizationRun:
    """Outcome of one multi-start search.

    per_restart_values lists the converged value of every restart in
    restart order; best is the extremal one (ties keep the lowest
    restart index).  iterations_used sums over restarts.  converged
    reflects the winning restart's gradient test.
    """

    best: ExtremalResult
    per_restart_values: tuple[float, ...]
    iterations_used: int
    converged: bool


def _fd_hessian(fun, x: np.ndarray, g0: np.ndarray) -> np.ndarray:
    n = x.size
    H = np.empty((n, n))
    for t in range(n):
        xt = x.copy()
        xt[t] += _FD_STEP
        _, gt = fun(xt)
        H[:, t] = (gt - g0) / _FD_STEP
    return 0.5 * (H + H.T)


def _minimize(fun, x0: np.ndarray, max_iterations: int,
              gradient_tolerance: float) -> tuple[np.ndarray, float, float, int, bool]:
    """Minimize fun(x) -> (value, gradient).  Returns
    (x, value, gradient_norm, iterations, converged)."""
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    history = [f]
    x_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    fail_streak = 0
    iterations = 0

    while iterations < max_iterations:
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gradient_tolerance:
            return x, f, gnorm, iterations, True
        if fail_streak >= 2:
            break
        if len(history) >= _STALL_WINDOW and \
                history[-_STALL_WINDOW] - history[-1] < _STALL_RTOL * (1.0 + abs(history[-1])):
            break
        iterations += 1
        if x_prev is None:
            step = 0.1 / max(1.0, gnorm)
        else:
            s = x - x_prev
            y = g - g_prev
            sy = float(s @ y)
            step = abs(float(s @ s) / sy) if sy != 0.0 else 1.0
            step = min(max(step, 1e-12), 1e3)
        reference = max(history[-5:])
        t = step
        accepted = False
        for _ in range(_MAX_HALVINGS):
            x_new = x - t * g
            f_new, g_new = fun(x_new)
            if f_new <= reference - _ARMIJO * t * gnorm * gnorm:
                accepted = True
                break
            t *= 0.5
        if accepted:
            x_prev, g_prev = x, g
            x, f, g = x_new, f_new, g_new
            fail_streak = 0
        else:
            fail_streak += 1
        history.append(f)

    # Damped Newton polish: first-order steps stall in the flat,
    # nearly quadratic basin around degenerate optima.
    mu = 1e-6
    identity = np.eye(x.size)
    for _ in range(_POLISH_STEPS):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gradient_tolerance:
            return x, f, gnorm, iterations, True
        if iterations >= max_iterations or mu > 1e8:
            break
        iterations += 1
        H = _fd_hessian(fun, x, g)
        try:
            s = np.linalg.solve(H + mu * identity, -g)
        except np.linalg.LinAlgError:
            mu *= 10.0
            continue
        f_new, g_new = fun(x + s)
        if float(np.linalg.norm(g_new)) < gnorm or f_new < f - 1e-13:
            x, f, g = x + s, f_new, g_new
            mu = max(mu * 0.3, 1e-10)
        else:
            mu *= 10.0
    gnorm = float(np.linalg.norm(g))
    return x, f, gnorm, iterations, gnorm <= gradient_tolerance


def _phases_from_free(x: np.ndarray, d: int) -> np.ndarray:
    phases = np.zeros((4, d))
    phases[:, 1:] = x.reshape(4, d - 1)
    return phases


def _phase_objective(coefficients: np.ndarray, d: int, variant: KernelVariant,
                     sign: float):
    # Gauge: entry 0 of every phase vector is pinned to zero, leaving
    # 4 (d - 1) free variables.
    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_phases, _ = value_and_gradient_arrays(
            coefficients, _phases_from_free(x, d), d, variant
        )
        return -sign * value, -sign * grad_phases[:, 1:].reshape(-1)

    return fun


def _settings_from_free(x: np.ndarray, dim: Dimension) -> MeasurementSettings:
    phases = _phases_from_free(x, dim.d)
    vectors = [PhaseVector(dim, tuple(float(v) for v in row)) for row in phases]
    return MeasurementSettings(dim, *vectors)


def _signed(direction: Direction) -> float:
    return 1.0 if direction is Direction.MAXIMIZE else -1.0


def _pick_best(values: list[float], direction: Direction) -> int:
    best = 0
    for r, v in enumerate(values):
        if (direction is Direction.MAXIMIZE and v > values[best]) or \
                (direction is Direction.MINIMIZE and v < values[best]):
            best = r
    return best


def optimize_angles(state: PureState, config: OptimizerConfig,
                    variant: KernelVariant = KernelVariant.PLUS) -> OptimizationRun:
    """Multi-start search over the 4 d phases at a fixed state.

    Restart r draws its initial free phases uniformly from [0, 2 pi)
    with an independent PRNG stream derived from (config.seed, r), so
    results are reproducible.
    """
    if config.free_state:
        raise ValidationError("optimize_angles requires config.free_state = False")
    d = state.dim.d
    coefficients = np.asarray(state.coefficients)
    sign = _signed(config.direction)
    fun = _phase_objective(coefficients, d, variant, sign)

    def worker(r: int) -> tuple:
        rng = np.random.default_rng((config.seed, r))
        x0 = rng.uniform(0.0, 2.0 * math.pi, size=4 * (d - 1))
        x, f, gnorm, iterations, converged = _minimize(
            fun, x0, config.max_iterations, config.gradient_tolerance
        )
        return -sign * f, x, gnorm, iterations, converged

    results = [worker(r) for r in range(config.restarts)]
    values = [res[0] for res in results]
    best = _pick_best(values, config.direction)
    value, x, gnorm, _, converged = results[best]
    settings = _settings_from_free(x, state.dim)
    result = ExtremalResult(
        value=value,
        state=state,
        settings=settings,
        branch="numeric",
        diagnostics=(
            f"direction={config.direction.value}",
            f"variant={variant.value}",
            f"best_restart={best}",
            f"gradient_norm={gnorm:.3e}",
        ),
    )
    return OptimizationRun(
        best=result,
        per_restart_values=tuple(values),
        iterations_used=sum(res[3] for res in results),
        converged=bool(converged),
    )


def _state_stage(coefficients: np.ndarray, phases: np.ndarray, d: int,
                 variant: KernelVariant, sign: float, gradient_tolerance: float
                 ) -> tuple[np.ndarray, float, float, int]:
    """Projected gradient ascent of sign * value over the sphere
    sum a^2 = d with a >= 0.  Returns (a, value, residual_norm, iterations)."""

    def value_grad(a: np.ndarray) -> tuple[float, np.ndarray]:
        v, _, ga = value_and_gradient_arrays(a, phases, d, variant)
        return sign * v, sign * ga

    a = coefficients
    h, g = value_grad(a)
    step = 0.1
    iterations = 0
    residual = math.inf
    for iterations in range(1, _STATE_STAGE_ITER + 1):
        tangent = g - (float(g @ a) / d) * a
        blocked = (a <= 0.0) & (tangent < 0.0)
        tangent = np.where(blocked, 0.0, tangent)
        residual = float(np.linalg.norm(tangent))
        if residual <= gradient_tolerance:
            break
        t = step
        accepted = False
        for _ in range(_MAX_HALVINGS):
            candidate = np.clip(a + t * tangent, 0.0, None)
            norm = float(candidate @ candidate)
            if norm <= 0.0:
                t *= 0.5
                continue
            candidate *= math.sqrt(d / norm)
            h_new, g_new = value_grad(candidate)
            if h_new >= h + _ARMIJO * t * residual * residual:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        a, h, g = candidate, h_new, g_new
        step = min(t * 2.0, 10.0)
    return a, sign * h, residual, iterations


def _joint_objective(d: int, variant: KernelVariant, sign: float):
    # Combined vector: the free phases, then an unnormalized state
    # direction w with a = sqrt(d) w / |w|.  The sphere constraint
    # becomes a flat scale direction that the damped solver tolerates.
    nx = 4 * (d - 1)

    def fun(z: np.ndarray) -> tuple[float, np.ndarray]:
        x = z[:nx]
        w = z[nx:]
        norm = float(np.linalg.norm(w))
        a = math.sqrt(d) / norm * w
        value, grad_phases, ga = value_and_gradient_arrays(
            a, _phases_from_free(x, d), d, variant
        )
        gw = math.sqrt(d) / norm * (ga - (float(ga @ w) / (norm * norm)) * w)
        grad = np.concatenate([grad_phases[:, 1:].reshape(-1), gw])
        return -sign * value, -sign * grad

    return fun


def optimize_joint(dim: Dimension, config: OptimizerConfig,
                   variant: KernelVariant = KernelVariant.PLUS) -> OptimizationRun:
    """Joint search over state coefficients and phases.

    Each restart alternates a phase stage (multivariate minimization,
    warm-started between rounds) with a projected-gradient state stage
    on the sphere (coefficients kept real and non-negative), then
    finishes with a joint polish over phases and state together, whose
    gradient test decides convergence.  Initial draws per restart:
    free phases first, then coefficients, from the (config.seed,
    restart) stream; coefficients start positive.
    """
    if not config.free_state:
        raise ValidationError("optimize_joint requires config.free_state = True")
    d = dim.d
    nx = 4 * (d - 1)
    sign = _signed(config.direction)

    def worker(r: int) -> tuple:
        rng = np.random.default_rng((config.seed, r))
        x = rng.uniform(0.0, 2.0 * math.pi, size=nx)
        a = rng.uniform(0.1, 1.0, size=d)
        a *= math.sqrt(d / float(a @ a))
        value_prev = math.inf
        iterations = 0
        converged = False
        value = 0.0
        for _ in range(_JOINT_ROUNDS):
            budget = min(_PHASE_STAGE_ITER, config.max_iterations - iterations)
            if budget < 1:
                break
            fun = _phase_objective(a, d, variant, sign)
            x, _, _, used, _ = _minimize(
                fun, x, budget, config.gradient_tolerance
            )
            iterations += used
            a, value, _, used = _state_stage(
                a, _phases_from_free(x, d), d, variant, sign,
                config.gradient_tolerance,
            )
            iterations += used
            if abs(value - value_prev) <= 1e-11 * (1.0 + abs(value)):
                break
            value_prev = value
        budget = config.max_iterations - iterations
        if budget >= 1:
            fun = _joint_objective(d, variant, sign)
            z0 = np.concatenate([x, a])
            f0 = -sign * value
            z, f, _, used, conv = _minimize(
                fun, z0, budget, config.gradient_tolerance
            )
            iterations += used
            w = z[nx:]
            a_polished = math.sqrt(d) / float(np.linalg.norm(w)) * w
            # Keep the polish only if it did not degrade the value or
            # leave the non-negative coefficient region.
            if f <= f0 + _STALL_RTOL and float(np.min(a_polished)) > -1e-9:
                x = z[:nx]
                a = np.maximum(a_polished, 0.0)
                value = -sign * f
                converged = conv
        return value, x, a, iterations, converged

    results = [worker(r) for r in range(config.restarts)]
    values = [res[0] for res in results]
    best = _pick_best(values, config.direction)
    value, x, a, _, converged = results[best]
    state = make_state(dim, tuple(float(v) for v in a))
    settings = _settings_from_free(x, dim)
    result = ExtremalResult(
        value=value,
        state=state,
        settings=settings,
        branch="numeric",
        diagnostics=(
            f"direction={config.direction.value}",
            f"variant={variant.value}",
            f"best_restart={best}",
        ),
    )
    return OptimizationRun(
        best=result,
        per_restart_values=tuple(values),
        iterations_used=sum(res[3] for res in results),
        converged=bool(converged),
    )


def max_abs_t_coefficient(pair: tuple[int, int], restarts: int = 8,
                          seed: int = 0) -> tuple[float, MeasurementSettings]:
    """Numerically maximize |T_kl| for one index pair (d = 4).

    T_kl is the Bell value at the unnormalized state e_k + e_l, and it
    depends on the phases only through one angle per party and setting,
    so the search runs over those four angles placed in phase column k;
    the returned settings carry them there.
    """
    if pair not in PAIR_SLOTS:
        raise ValidationError(f"pair must be one of {PAIR_SLOTS}, got {pair!r}")
    k, l = pair
    a = np.zeros(4)
    a[[k, l]] = 1.0

    def phases_of(q: np.ndarray) -> np.ndarray:
        phases = np.zeros((4, 4))
        phases[:, k] = q
        return phases

    def objective(sign: float):
        def fun(q: np.ndarray) -> tuple[float, np.ndarray]:
            value, grad_phases, _ = value_and_gradient_arrays(
                a, phases_of(q), 4, KernelVariant.PLUS
            )
            return -sign * value, -sign * grad_phases[:, k]

        return fun

    dim = Dimension(4)
    best_value = -math.inf
    best_settings: MeasurementSettings | None = None
    for sign in (1.0, -1.0):
        fun = objective(sign)
        for r in range(restarts):
            rng = np.random.default_rng((seed, int(sign > 0), r))
            q0 = rng.uniform(0.0, 2.0 * math.pi, size=4)
            q, f, _, _, _ = _minimize(fun, q0, 2000, 1e-11)
            magnitude = abs(f)  # f = -sign * T, so |f| = |T|
            if magnitude > best_value:
                best_value = magnitude
                vectors = [PhaseVector(dim, tuple(float(v) for v in row))
                           for row in phases_of(q)]
                best_settings = MeasurementSettings(dim, *vectors)
    assert best_settings is not None
    return best_value, best_settings
