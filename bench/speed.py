"""Machine-speed probes, so that time metrics hold still on a shared host.

On a host shared with other tenants the same single-threaded job runs
up to a third slower in some stretches than in others, and CPU time
slows down with it (see bench/README.md).  The benchmark therefore
reports times at a fixed reference speed: every measured interval is
multiplied by ``REFERENCE_S / c``, where ``c`` is how long a fixed
calibration (``calibrate``) takes at that moment and ``REFERENCE_S`` is
its median on the machine the baseline was taken on.  A program that
does less work or cheaper work reads faster by the same share as in
raw seconds; a machine that slows everything down reads unchanged.

Inside a workload process ``SpeedClock`` takes a probe from a SIGALRM
timer every ``INTERVAL_S``.  The handler runs between two bytecodes of
whatever the program is doing, times one calibration and resumes it.
The clock's time (``work``) leaves the probes out, and ``scaled`` turns
an interval of it into reference seconds.  A workload process runs one
clock over its set-up and another over its timed jobs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# About the median of calibrate() on the baseline machine (2 vCPUs,
# Python 3.11.7, numpy 2.4.6).  It only sets the scale of the numbers.
REFERENCE_S = 0.0028
INTERVAL_S = 0.1
# Probes taken back to back on entering and on leaving a clock's span.
BURST = 5
ROUNDS = 300
DRAWS = 25_000
_START = np.linspace(0.0, 1.0, 16)
_CDF = np.linspace(1.0 / 16.0, 1.0, 16)


def calibrate() -> float:
    """Seconds taken by a fixed piece of numpy work (about 3 ms), in two
    halves: many operations on 16 numbers, the kind the optimizer's
    kernel is made of, and one pass of inverse-CDF sampling over DRAWS
    numbers, the kind sample_experiment does.  The large-array half made
    evaluate_sample steadier; the small one tracks the other workloads."""
    a = _START
    start = time.perf_counter()
    for _ in range(ROUNDS):
        a = np.exp(1j * a).real + 1.0
    uniform = np.random.default_rng(0).random(DRAWS)
    np.bincount(np.searchsorted(_CDF, uniform, side="right"), minlength=16)
    return time.perf_counter() - start


class SpeedClock:
    """Time with the probes left out, and the machine speed along it."""

    def __init__(self) -> None:
        self.at: list[float] = []       # work time of each probe
        self.took: list[float] = []     # its calibration, seconds
        self.paused = 0.0               # seconds spent in probes
        self._busy = False
        self._cumulative: list[float] = []
        self._factors: list[float] = []

    def work(self) -> float:
        """perf_counter() minus the probes so far.  A probe that fires
        between the two reads is detected and the read repeated."""
        while True:
            probes = len(self.at)
            now = time.perf_counter() - self.paused
            if probes == len(self.at):
                return now

    def probe(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            took = calibrate()
            at = start - self.paused
            self.paused += time.perf_counter() - start
            self.took.append(took)
            self.at.append(at)
        finally:
            self._busy = False

    def _burst(self) -> None:
        start = time.perf_counter()
        calibrate()  # untimed: the first call in a process pays numpy's set-up
        self.paused += time.perf_counter() - start
        for _ in range(BURST):
            self.probe()

    @contextmanager
    def running(self):
        """Probe BURST times on entering and on leaving, and every
        INTERVAL_S in between."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._burst()
            self._integrate()

    def _integrate(self) -> None:
        # A probe's factor comes from the median of it and its two
        # neighbours.  That drops a lone probe an interrupt slowed (about
        # one in 25 reads twice the others) but keeps a change of speed,
        # which can come within a second; medians over seven probes blurred
        # those changes and made the metrics spread more between runs.
        took = self.took
        self._factors = [REFERENCE_S / statistics.median(took[max(0, k - 1):k + 2])
                         for k in range(len(took))]
        # Reference seconds elapsed up to each probe.  Between two probes
        # the factor is the mean of theirs.
        self._cumulative = [self.at[0] * self._factors[0]]
        for k in range(1, len(self.took)):
            mean = (self._factors[k - 1] + self._factors[k]) / 2.0
            self._cumulative.append(self._cumulative[-1] + (self.at[k] - self.at[k - 1]) * mean)

    def _reference(self, w: float) -> float:
        k = bisect.bisect_right(self.at, w) - 1
        if k < 0:
            return w * self._factors[0]
        if k == len(self.at) - 1:
            return self._cumulative[k] + (w - self.at[k]) * self._factors[k]
        mean = (self._factors[k] + self._factors[k + 1]) / 2.0
        return self._cumulative[k] + (w - self.at[k]) * mean

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the work-time interval [start, end]."""
        return self._reference(end) - self._reference(start)

    def median_factor(self) -> float:
        return statistics.median(self._factors)
