"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps functions of the ``bellmp`` modules by replacing
module attributes: every module that holds a reference to a wrapped
function (the defining module, the modules that imported it, the
package itself) gets the wrapper, so the name each caller resolves is
the traced one.  Each wrapper records one span per call.  Spans are
aggregated in memory per name as calls, inclusive time and self time,
where self time is the span's duration minus the time covered by the
wrapped calls it made.

Some functions the metrics read are private or are expected to be
renamed or removed by later refactors.  A missing name is recorded in
``Tracer.missing`` instead of failing the run, and a workload lists the
spans it must call, so a layer that silently stopped being reached
shows up as flagged rather than as a zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

MODULES = ("model", "engine", "optimize", "lhv", "analytic", "report", "cli")

# Wrapped in addition to each module's __all__, and reported as missing
# when absent: the functions the per-layer metrics and the workloads'
# expected spans name.
NAMED = {
    "model": ("make_state",),
    "engine": (
        "value_and_gradient_arrays", "bell_value", "bell_value_noisy",
        "bell_gradient", "t_coefficients", "t_coefficients_alt",
        "joint_probabilities", "sample_experiment",
    ),
    "optimize": (
        "optimize_angles", "optimize_joint", "max_abs_t_coefficient",
        "_state_stage",
    ),
    "lhv": ("lhv_bounds", "lhv_value"),
    "analytic": ("vertex_candidates", "branch_values_max", "branch_values_min"),
    "report": ("build_reproduction_report",),
}

KERNEL = "engine.value_and_gradient_arrays"
# Spans whose arguments and results are kept for the optimizer and LHV
# metrics (restart outcomes, iterations, strategies covered).
OBSERVED = ("optimize.optimize_angles", "optimize.optimize_joint", "lhv.lhv_bounds")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Observation:
    span: str
    args: tuple
    kwargs: dict
    result: object
    kernel_calls: int


class Tracer:
    """Wrappers for the bellmp layers, plus the benchmark's own functions
    given as {span name: (module, attribute)}.  attach() puts them in
    place and detach() restores the originals, so untraced jobs run the
    program unchanged."""

    def __init__(self, own: dict[str, tuple[ModuleType, str]]) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.observations: list[Observation] = []
        self.missing: list[str] = []
        self.paused = False
        self._stack: list[float] = []
        self._patched: list[tuple[ModuleType, str, object]] = []
        originals: dict[int, tuple[Callable, str]] = {}
        for short in MODULES:
            module = importlib.import_module(f"bellmp.{short}")
            names = set(getattr(module, "__all__", ())) | set(NAMED.get(short, ()))
            for attr in sorted(names):
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{short}.{attr}")
                elif callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", None) == module.__name__:
                    originals[id(fn)] = (fn, f"{short}.{attr}")
        for span, (module, attr) in own.items():
            fn = getattr(module, attr)
            originals[id(fn)] = (fn, span)
        self._wrappers = {key: self._wrap(span, fn) for key, (fn, span) in originals.items()}
        self._targets = [m for n, m in sorted(sys.modules.items())
                         if n == "bellmp" or n.startswith("bellmp.")]
        self._targets += [module for module, _ in own.values() if module not in self._targets]

    def span(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, SpanStats())
        kernel = self.stats.setdefault(KERNEL, SpanStats())
        stack = self._stack
        observed = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            kernel_before = kernel.calls
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if observed:
                self.observations.append(Observation(
                    name, args, kwargs, result, kernel.calls - kernel_before))
            return result

        return wrapper

    def attach(self) -> None:
        for module in self._targets:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def detach(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


@contextmanager
def paused(tracer: Tracer | None):
    """Call through without recording, for the benchmark's own checks."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def layer_metrics(tracer: Tracer, jobs: int, expected: tuple[str, ...],
                  restart_hits: Callable[[Observation], tuple[int, int]]
                  ) -> tuple[dict[str, float], dict[str, list[str]]]:
    """Per-layer metrics of the traced jobs.  Counts and self times are
    per job; a ratio whose base is zero (the layer did not run) is 0."""

    def per_call_us(name: str) -> float:
        s = tracer.span(name)
        return s.total_s / s.calls * 1e6 if s.calls else 0.0

    def self_s(prefix: str) -> float:
        return sum(s.self_s for n, s in tracer.stats.items() if n.startswith(prefix))

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    runs = [o for o in tracer.observations if o.span.startswith("optimize.")]
    restarts = sum(len(o.result.per_restart_values) for o in runs)
    hits = sum(restart_hits(o)[0] for o in runs)
    bounds = [o for o in tracer.observations if o.span == "lhv.lhv_bounds"]
    strategies = sum(o.args[0].d ** 4 for o in bounds)
    kernel = tracer.span(KERNEL)
    metrics = {
        "engine.kernel.calls": kernel.calls / jobs,
        "engine.kernel.self_s": kernel.self_s / jobs,
        "engine.kernel.us_per_call": per_call_us(KERNEL),
        "engine.bell_value.us_per_call": per_call_us("engine.bell_value"),
        "engine.joint_probabilities.self_s":
            tracer.span("engine.joint_probabilities").self_s / jobs,
        "engine.sample.self_s": tracer.span("engine.sample_experiment").self_s / jobs,
        "optimize.self_s": self_s("optimize.") / jobs,
        "optimize.iterations": sum(o.result.iterations_used for o in runs) / jobs,
        "optimize.kernel_calls_per_restart":
            share(sum(o.kernel_calls for o in runs), restarts),
        "optimize.useful_restart_ratio": share(hits, restarts),
        "optimize.converged_share": share(sum(o.result.converged for o in runs), len(runs)),
        "lhv.bounds.self_s": tracer.span("lhv.lhv_bounds").self_s / jobs,
        "lhv.value.calls": tracer.span("lhv.lhv_value").calls / jobs,
        "lhv.strategies_per_s": share(strategies, tracer.span("lhv.lhv_bounds").total_s),
        "analytic.vertex.us_per_call": per_call_us("analytic.vertex_candidates"),
        "model.build.us_per_call": per_call_us("model.build"),
        "report.self_s": self_s("report.") / jobs,
    }
    uncalled = [name for name in expected
                if name not in tracer.missing and tracer.span(name).calls == 0]
    metrics["trace.missing_names"] = float(len(tracer.missing))
    metrics["trace.uncalled_expected"] = float(len(uncalled))
    return metrics, {"missing": tracer.missing, "uncalled_expected": uncalled}
