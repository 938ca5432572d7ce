"""One benchmark workload, run in its own fresh process by run.py.

    python3 bench/workload.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (build inputs, warm up, print ``ready FACTOR PROBES_S``
and exit: the machine-speed factor over the set-up and the seconds its
speed probes took, see speed.py),
``run`` (then time whole jobs for SECONDS, at the reference speed of
speed.py) or ``trace`` (then, for SECONDS, alternate an untraced job and
a job with every layer wrapped, in raw seconds).  After
``ready`` the process prints one JSON object.  Every job checks its
outputs; an operation that raises or answers wrongly counts as failed.
``bellmp`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import bellmp
from bellmp import Dimension, Direction, KernelVariant, OptimizerConfig
from bellmp import report as report_module

import layers
import speed

HIT_TOLERANCE = 1e-6

_ROOT2 = math.sqrt(2.0)
_BASE = math.sqrt(10.0 - _ROOT2)
# Gamma1 + 2 Gamma2 + 3 Gamma3 from the paper's radicals: the maximum
# over angles at the flat d = 4 state.
FLAT_MAX_D4 = (_BASE * (2.0 + 3.0 * _ROOT2) + 3.0 * _BASE * (4.0 - _ROOT2)) / 21.0 \
    + 2.0 * _ROOT2 / 3.0
# Closed-form optimizer references, keyed by (search, d, direction).
# "angles" means a phase search at the flat state.  Anything else is
# judged against the best restart of its own solve.
REFERENCES = {
    ("angles", 2, "max"): 2.0 * _ROOT2,
    ("angles", 2, "min"): -2.0 * _ROOT2,
    ("angles", 4, "max"): FLAT_MAX_D4,
    ("angles", 4, "min"): -10.0 / 3.0,
    ("joint", 2, "max"): 2.0 * _ROOT2,
}


def optimizer_reference(span: str, args: tuple, kwargs: dict) -> float | None:
    """Closed-form value an optimizer call should reach, if one exists."""
    config = args[1] if len(args) > 1 else kwargs["config"]
    direction = config.direction.value
    if span.endswith("optimize_angles"):
        state = args[0]
        if any(abs(c - 1.0) > 1e-12 for c in state.coefficients):
            return None
        return REFERENCES.get(("angles", state.dim.d, direction))
    return REFERENCES.get(("joint", args[0].d, direction))


def restart_hits(run, reference: float | None) -> tuple[int, int]:
    """(restarts ending within HIT_TOLERANCE of the reference, restarts)."""
    target = run.best.value if reference is None else reference
    values = run.per_restart_values
    return sum(abs(v - target) <= HIT_TOLERANCE for v in values), len(values)


def observed_hits(observation: layers.Observation) -> tuple[int, int]:
    reference = optimizer_reference(observation.span, observation.args, observation.kwargs)
    return restart_hits(observation.result, reference)


def build_case(d: int, coefficients, phases) -> tuple[bellmp.PureState, bellmp.MeasurementSettings]:
    """State and settings through the validated model types; traced as
    the model.build span."""
    dim = Dimension(d)
    state = bellmp.make_state(dim, coefficients)
    vectors = [bellmp.PhaseVector(dim, tuple(phases[r * d:(r + 1) * d])) for r in range(4)]
    return state, bellmp.MeasurementSettings(dim, *vectors)


@dataclass
class Case:
    """One solve: the timed call, a check of its result returning
    (operations attempted, operations failed), and its optimizer
    restarts as (hits, restarts)."""

    solve: Callable[[], object]
    check: Callable[[object], tuple[int, int]]
    restarts: Callable[[object], tuple[int, int]] = lambda result: (0, 0)


@dataclass
class Totals:
    # (start, end) of each job and of each solve, on the clock the job ran with.
    walls: list[tuple[float, float]] = field(default_factory=list)
    solves: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    hits: int = 0
    restarts: int = 0


def _verdict(ok: bool) -> tuple[int, int]:
    return 1, 0 if ok else 1


def interleave(few: list[Case], many: list[Case]) -> list[Case]:
    """Spread the many short solves evenly between the few long ones.
    Machine speed drifts within a second, so short solves run in one
    burst per job would sample it at a single moment."""
    out: list[Case] = []
    step = len(many) / len(few)
    for i, case in enumerate(few):
        out.append(case)
        out.extend(many[round(i * step):round((i + 1) * step)])
    return out


class Workload:
    # Spans the traced run must see called at least once.
    expected: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.cases: list[Case] = []
        # Untimed solves run once before the first timed one.
        self.warmups: list[Callable[[], object]] = []

    def warmup(self) -> None:
        for solve in self.warmups:
            solve()

    def job(self, totals: Totals, tracer: layers.Tracer | None,
            now: Callable[[], float] = time.perf_counter) -> None:
        """Solve every case once, timed, then check the results."""
        results = []
        start = now()
        for case in self.cases:
            t0 = now()
            try:
                result = case.solve()
            except Exception:  # a raising operation is a failed one
                traceback.print_exc()
                result = None
            totals.solves.append((t0, now()))
            results.append(result)
        totals.walls.append((start, now()))
        with layers.paused(tracer):
            for case, result in zip(self.cases, results):
                if result is None:
                    attempted, failed = 1, 1
                else:
                    try:
                        attempted, failed = case.check(result)
                    except Exception:
                        traceback.print_exc()
                        attempted, failed = 1, 1
                    hits, restarts = case.restarts(result)
                    totals.hits += hits
                    totals.restarts += restarts
                totals.attempted += attempted
                totals.failed += failed


class Reproduce(Workload):
    """The self-check users run: ``bellmp reproduce`` with its defaults,
    50 restarts and optimizer seed 7.  --seed does not change the job:
    the report's run time depends on its optimizer seed by almost a
    factor of two (7.5-13.6 s over seeds 0-5, see bench/README.md)."""

    RESTARTS = 50
    REPORT_SEED = 7
    expected = (
        layers.KERNEL, "optimize.optimize_angles", "optimize.optimize_joint",
        "optimize.max_abs_t_coefficient", "optimize._state_stage",
        "lhv.lhv_bounds", "lhv.lhv_value", "engine.bell_value",
        "report.build_reproduction_report",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = [Case(self._solve, self._check, self._restarts)]
        self.warmups = [lambda: bellmp.build_reproduction_report(
            restarts=1, seed=self.REPORT_SEED)]

    def _solve(self):
        # The report does not return its optimizer runs; collect them at
        # the names the report module resolves.
        runs = []
        saved = {name: getattr(report_module, name)
                 for name in ("optimize_angles", "optimize_joint")}

        def capture(name, fn):
            def call(*args, **kwargs):
                run = fn(*args, **kwargs)
                runs.append((optimizer_reference(name, args, kwargs), run))
                return run
            return call

        for name, fn in saved.items():
            setattr(report_module, name, capture(name, fn))
        try:
            report = bellmp.build_reproduction_report(
                restarts=self.RESTARTS, seed=self.REPORT_SEED)
        finally:
            for name, fn in saved.items():
                setattr(report_module, name, fn)
        return report, runs

    @staticmethod
    def _check(result) -> tuple[int, int]:
        report, _ = result
        failed = sum(not row.passed for row in report.rows)
        if not report.overall_pass:
            failed = max(failed, 1)
        return len(report.rows), failed

    @staticmethod
    def _restarts(result) -> tuple[int, int]:
        counts = [restart_hits(run, reference) for reference, run in result[1]]
        return sum(h for h, _ in counts), sum(n for _, n in counts)


class AnglesDsweep(Workload):
    """optimize_angles over d in {2, 3, 4, 6, 8}, both directions, at the
    flat state and two random states: the kernel and _minimize without
    the state stage.

    The job is fixed: its random states and optimizer seed do not follow
    --seed, because the search's work depends on both (kernel calls per
    job spread by 18% over seeds 0-9, see bench/README.md)."""

    DIMENSIONS = (2, 3, 4, 6, 8)
    RANDOM_STATES = 2
    RESTARTS = 8
    FIXED_SEED = 0
    expected = (layers.KERNEL, "optimize.optimize_angles")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(self.FIXED_SEED)
        for d in self.DIMENSIONS:
            dim = Dimension(d)
            states = [bellmp.maximally_entangled_state(dim)] + [
                bellmp.make_state(dim, [rng.uniform(0.1, 1.0) for _ in range(d)])
                for _ in range(self.RANDOM_STATES)
            ]
            for state in states:
                for direction in Direction:
                    config = OptimizerConfig(
                        restarts=self.RESTARTS, seed=self.FIXED_SEED, direction=direction)
                    self.cases.append(self._case(state, config))
        warm = bellmp.maximally_entangled_state(Dimension(4))
        self.warmups = [self._case(warm, OptimizerConfig(restarts=1)).solve]

    def _case(self, state, config) -> Case:
        reference = optimizer_reference("optimize_angles", (state, config), {})
        pick = max if config.direction is Direction.MAXIMIZE else min

        def check(run) -> tuple[int, int]:
            values = run.per_restart_values
            consistent = abs(bellmp.bell_value(state, run.best.settings) - run.best.value) <= 1e-9
            ok = (len(values) == config.restarts and run.best.value == pick(values)
                  and consistent
                  and (reference is None or abs(run.best.value - reference) <= HIT_TOLERANCE))
            return _verdict(ok)

        return Case(lambda: bellmp.optimize_angles(state, config), check,
                    lambda run: restart_hits(run, reference))


class ExactEnum(Workload):
    """Exact rational lhv_bounds for d = 2..12 and both kernel variants,
    plus vertex_candidates and both branch formulas on seeded d = 4
    states.  No numpy engine, no optimizer."""

    MAX_D = 12
    RANDOM_STATES = 100
    expected = (
        "lhv.lhv_bounds", "lhv.lhv_value", "analytic.vertex_candidates",
        "analytic.branch_values_max", "analytic.branch_values_min",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        bounds = []
        for d in range(2, self.MAX_D + 1):
            # The classical maximum is 2 at every d; the minimum is -2 at
            # d = 2 and -2(d + 1)/(d - 1) from d = 3 on (-10/3 at d = 4).
            low = Fraction(-2) if d == 2 else Fraction(-2 * (d + 1), d - 1)
            for variant in KernelVariant:
                bounds.append(self._bounds_case(d, variant, Fraction(2), low))
        dim = Dimension(4)
        # Paper values: the flat state, and the optimal max and min
        # states with their extrema to the paper's precision.
        known = [
            ((1.0, 1.0, 1.0, 1.0), FLAT_MAX_D4, -10.0 / 3.0, 1e-9),
            ((1.13715, 1.13715, 0.84077, 0.84077), 2.9727, None, 1e-4),
            ((1.19038, 1.19038, 0.76354, 0.76354), None, -3.46424, 1e-4),
        ]
        states = [self._state_case(bellmp.make_state(dim, coefficients), high, low, tol)
                  for coefficients, high, low, tol in known]
        for _ in range(self.RANDOM_STATES):
            coefficients = [self.rng.uniform(-1.0, 1.0) for _ in range(4)]
            states.append(self._state_case(bellmp.make_state(dim, coefficients)))
        self.cases = interleave(bounds, states)
        # lhv_bounds at d = 4 and the flat-state vertex/branch solve.
        self.warmups = [bounds[4].solve, states[0].solve]

    @staticmethod
    def _bounds_case(d: int, variant: KernelVariant, high, low) -> Case:
        def check(report) -> tuple[int, int]:
            ok = (report.max_value == high and report.min_value == low
                  and bellmp.lhv_value(report.argmax, variant) == high
                  and bellmp.lhv_value(report.argmin, variant) == low)
            return _verdict(ok)

        return Case(lambda: bellmp.lhv_bounds(Dimension(d), variant), check)

    @staticmethod
    def _state_case(state, high=None, low=None, tol=0.0) -> Case:
        def solve():
            return (bellmp.vertex_candidates(state), bellmp.branch_values_max(state),
                    bellmp.branch_values_min(state))

        def check(result) -> tuple[int, int]:
            vertex, bmax, bmin = result
            # The enumeration is an outer bound on both branch values.
            ok = vertex.max >= bmax.max - 1e-12 and vertex.min <= bmin.min + 1e-12
            if high is not None:
                ok = ok and abs(vertex.max - high) <= tol and abs(bmax.max - high) <= tol
            if low is not None:
                ok = ok and abs(vertex.min - low) <= tol and abs(bmin.min - low) <= tol
            return _verdict(ok)

        return Case(solve, check)


class EvaluateSample(Workload):
    """The validated probability-table path at d = 4: model types built
    from seeded inputs, then bell_value, bell_value_noisy, bell_gradient
    and t_coefficients; plus sample_experiment at 200 000 shots per
    setting, which sets the process's peak memory."""

    D = 4
    EVALUATIONS = 600
    SAMPLES = 100
    SHOTS = 200_000
    FD_STEP = 1e-5
    expected = (
        "model.build", "model.make_state", "engine.bell_value",
        "engine.bell_value_noisy", "engine.bell_gradient", "engine.t_coefficients",
        "engine.joint_probabilities", "engine.sample_experiment", layers.KERNEL,
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n = 4 * self.D
        # The flat state at zero phases, where I = 2 exactly.
        evaluations = [self._evaluation_case([1.0] * self.D, [0.0] * n, 0.0, flat=True)]
        for _ in range(self.EVALUATIONS - 1):
            evaluations.append(self._evaluation_case(*self._draw(), self.rng.random()))
        samples = [self._sample_case(*self._draw(), self.rng.randrange(2**32))
                   for _ in range(self.SAMPLES)]
        self.cases = interleave(samples, evaluations)
        self.warmups = [evaluations[1].solve, samples[0].solve]

    def _draw(self) -> tuple[list[float], list[float]]:
        coefficients = [self.rng.uniform(-1.0, 1.0) for _ in range(self.D)]
        phases = [self.rng.uniform(0.0, 2.0 * math.pi) for _ in range(4 * self.D)]
        return coefficients, phases

    def _evaluation_case(self, coefficients, phases, noise: float, flat: bool = False) -> Case:
        d = self.D
        direction = np.array([self.rng.uniform(-1.0, 1.0) for _ in range(4 * d)])

        def solve():
            state, settings = build_case(d, coefficients, phases)
            return (state, bellmp.bell_value(state, settings),
                    bellmp.bell_value_noisy(state, settings, noise),
                    bellmp.bell_gradient(state, settings),
                    bellmp.t_coefficients(settings))

        def check(result) -> tuple[int, int]:
            state, value, noisy, gradient, t = result
            # Central difference of the Bell value along a seeded direction.
            h = self.FD_STEP
            plus = build_case(d, coefficients, np.asarray(phases) + h * direction)[1]
            minus = build_case(d, coefficients, np.asarray(phases) - h * direction)[1]
            slope = (bellmp.bell_value(state, plus) - bellmp.bell_value(state, minus)) / (2 * h)
            ok = (math.isfinite(value)
                  and abs(noisy - (1.0 - noise) * value) <= 1e-12
                  and abs(t.bilinear(state) - value) <= 1e-10
                  and abs(float(gradient @ direction) - slope) <= 1e-6
                  and (not flat or abs(value - 2.0) <= 1e-12))
            return _verdict(ok)

        return Case(solve, check)

    def _sample_case(self, coefficients, phases, sample_seed: int) -> Case:
        def solve():
            state, settings = build_case(self.D, coefficients, phases)
            return state, settings, bellmp.sample_experiment(
                state, settings, self.SHOTS, sample_seed)

        def check(result) -> tuple[int, int]:
            state, settings, estimate = result
            exact = bellmp.bell_value(state, settings)
            return _verdict(abs(estimate.value_estimate - exact) <= 5.0 * estimate.std_error)

        return Case(solve, check)


WORKLOADS = {
    "reproduce": Reproduce,
    "angles_dsweep": AnglesDsweep,
    "exact_enum": ExactEnum,
    "evaluate_sample": EvaluateSample,
}


def measure(workload: Workload, seconds: float, clock: speed.SpeedClock) -> Totals:
    """Run whole jobs until `seconds` have passed (at least one job)."""
    totals = Totals()
    start = time.perf_counter()
    while True:
        workload.job(totals, None, clock.work)
        if time.perf_counter() - start >= seconds:
            return totals


def raw(intervals: list[tuple[float, float]]) -> list[float]:
    return [end - start for start, end in intervals]


def end_to_end(totals: Totals, clock: speed.SpeedClock) -> tuple[dict[str, float], dict]:
    walls = [clock.scaled(*interval) for interval in totals.walls]
    solves = sorted(clock.scaled(*interval) for interval in totals.solves)
    rank = math.ceil(0.9 * len(solves))
    metrics = {
        "wall_s": statistics.median(walls),
        "solve_p50_ms": statistics.median(solves) * 1e3,
        # Nearest-rank 90th percentile; info records how many solves lie
        # beyond it (on reproduce the run holds too few for a tail).
        "solve_p90_ms": solves[rank - 1] * 1e3,
        # Workloads that make no optimizer restarts report 1.
        "restart_hit_rate": totals.hits / totals.restarts if totals.restarts else 1.0,
        "pass_share": (totals.attempted - totals.failed) / totals.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"jobs": len(walls), "solves": len(solves),
            "solves_beyond_p90": len(solves) - rank, "restarts": totals.restarts,
            "raw_wall_s": statistics.median(raw(totals.walls)),
            "raw_solve_p50_ms": statistics.median(raw(totals.solves)) * 1e3,
            "speed_factor": clock.median_factor(), "probes": len(clock.at)}
    return metrics, info


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    setup = speed.SpeedClock()
    with setup.running():
        start = setup.work()
        workload = WORKLOADS[name](seed)
        workload.warmup()
        end = setup.work()
    factor = setup.scaled(start, end) / (end - start)
    print(f"ready {factor!r} {setup.paused!r}", flush=True)
    if mode == "setup":
        return 0
    info = {"numpy": np.__version__}
    if mode == "run":
        clock = speed.SpeedClock()
        with clock.running():
            totals = measure(workload, seconds, clock)
        metrics, more = end_to_end(totals, clock)
        info.update(more)
        attempted, failed = totals.attempted, totals.failed
    else:
        # Untraced and traced jobs alternate, so drift in machine speed
        # affects both sides of trace.overhead_share alike.
        tracer = layers.Tracer({"model.build": (sys.modules[__name__], "build_case")})
        untraced, traced = Totals(), Totals()
        start = time.perf_counter()
        while True:
            workload.job(untraced, None)
            tracer.attach()
            try:
                workload.job(traced, tracer)
            finally:
                tracer.detach()
            if time.perf_counter() - start >= seconds:
                break
        metrics, flags = layers.layer_metrics(
            tracer, len(traced.walls), workload.expected, observed_hits)
        base = statistics.median(raw(untraced.walls))
        metrics["trace.overhead_share"] = (statistics.median(raw(traced.walls)) - base) / base
        info.update(flags, jobs=len(traced.walls))
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
