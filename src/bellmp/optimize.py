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
from .engine import _circulant, extreme_value_and_gradient, value_and_gradient_arrays
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
# An extreme eigenvalue closer than this (relative) to its neighbour
# counts as degenerate, where lambda_ext has no gradient.
_GAP_RTOL = 1e-9


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
    reflects the winning restart's gradient test and, for the joint
    search, a simple extreme eigenvalue.
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


def _settings(phases: np.ndarray, dim: Dimension) -> MeasurementSettings:
    vectors = [PhaseVector(dim, tuple(float(v) for v in row)) for row in phases]
    return MeasurementSettings(dim, *vectors)


def _signed(direction: Direction) -> float:
    return 1.0 if direction is Direction.MAXIMIZE else -1.0


def _require_nonconstant(d: int, variant: KernelVariant) -> None:
    # At odd d the minus kernel sums to zero over every outcome class, so
    # the Bell value is 0 for every state and every angle.
    if not np.any(_circulant(d, variant)):
        raise ValidationError(
            f"the {variant.value} kernel makes the Bell value identically 0 at "
            f"d = {d}: constant objective, nothing to optimize"
        )


def _pick_best(values: list[float], direction: Direction) -> int:
    best = 0
    for r, v in enumerate(values):
        if (direction is Direction.MAXIMIZE and v > values[best]) or \
                (direction is Direction.MINIMIZE and v < values[best]):
            best = r
    return best


def _multistart(fun, d: int, config: OptimizerConfig) -> tuple[list[tuple], int]:
    """Minimize fun over the 4 (d - 1) free phases from config.restarts
    starts.  Restart r draws its start uniformly from [0, 2 pi) with an
    independent PRNG stream derived from (config.seed, r), so results
    are reproducible.  Returns one (value, x, gradient_norm, iterations,
    converged) per restart, value in the Bell value's own sign, and the
    index of the extremal one (ties keep the lowest index)."""
    sign = _signed(config.direction)
    results = []
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        x0 = rng.uniform(0.0, 2.0 * math.pi, size=4 * (d - 1))
        x, f, gnorm, iterations, converged = _minimize(
            fun, x0, config.max_iterations, config.gradient_tolerance
        )
        results.append((-sign * f, x, gnorm, iterations, converged))
    return results, _pick_best([res[0] for res in results], config.direction)


def _make_run(results: list[tuple], best: int, state: PureState,
              settings: MeasurementSettings, config: OptimizerConfig,
              variant: KernelVariant, converged: bool,
              extra: tuple[str, ...] = ()) -> OptimizationRun:
    value, _, gnorm, _, _ = results[best]
    result = ExtremalResult(
        value=value,
        state=state,
        settings=settings,
        branch="numeric",
        diagnostics=(
            f"direction={config.direction.value}",
            f"variant={variant.value}",
            f"best_restart={best}",
            *extra,
            f"gradient_norm={gnorm:.3e}",
        ),
    )
    return OptimizationRun(
        best=result,
        per_restart_values=tuple(res[0] for res in results),
        iterations_used=sum(res[3] for res in results),
        converged=bool(converged),
    )


def optimize_angles(state: PureState, config: OptimizerConfig,
                    variant: KernelVariant = KernelVariant.PLUS) -> OptimizationRun:
    """Multi-start search over the 4 d phases at a fixed state."""
    if config.free_state:
        raise ValidationError("optimize_angles requires config.free_state = False")
    d = state.dim.d
    _require_nonconstant(d, variant)
    fun = _phase_objective(np.asarray(state.coefficients), d, variant,
                           _signed(config.direction))
    results, best = _multistart(fun, d, config)
    _, x, _, _, converged = results[best]
    settings = _settings(_phases_from_free(x, d), state.dim)
    return _make_run(results, best, state, settings, config, variant, converged)


def _eigen_objective(d: int, variant: KernelVariant, sign: float):
    # -sign d lambda_ext(M(phases)): minus the Bell value at the best
    # state for these phases.
    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_phases, _, _ = extreme_value_and_gradient(
            _phases_from_free(x, d), d, variant, sign > 0
        )
        return -sign * value, -sign * grad_phases[:, 1:].reshape(-1)

    return fun


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
    and A2[k], which leaves the value unchanged.  converged requires
    the winning restart's gradient test and a simple extreme eigenvalue
    (eigengap above 1e-9 (1 + |value|) in Bell-value units), since
    lambda_ext has no gradient where it is degenerate.
    """
    if not config.free_state:
        raise ValidationError("optimize_joint requires config.free_state = True")
    d = dim.d
    _require_nonconstant(d, variant)
    sign = _signed(config.direction)
    results, best = _multistart(_eigen_objective(d, variant, sign), d, config)
    value, x, _, _, converged = results[best]
    phases = _phases_from_free(x, d)
    _, _, v, gap = extreme_value_and_gradient(phases, d, variant, sign > 0)
    if v[0] < 0.0:
        v = -v
    phases[:2, v < 0.0] += math.pi
    state = make_state(dim, tuple(math.sqrt(d) * float(c) for c in np.abs(v)))
    converged = converged and gap > _GAP_RTOL * (1.0 + abs(value))
    return _make_run(results, best, state, _settings(phases, dim), config,
                     variant, converged, (f"eigengap={gap:.3e}",))


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
