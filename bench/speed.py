"""Correction of job timings for contention from other tenants of the host.

On a shared host the same pure-Python job can take twice as long while
another tenant loads the core, and such periods last from seconds to
minutes, so a 30-second run sees anywhere from none to most of its time
slowed.  While the jobs run, a ``SIGALRM`` interval timer runs a fixed
Fraction loop (independent of ifslab) every ``INTERVAL_S`` and records its
time; one more sample is taken just before and just after each job.  The
garbage collector is off during each sample, so no collection over the job's
live heap lands in one.

A job's *contention factors* are the median wall and CPU times of the loop
over its samples, each divided by ``REFERENCE_S``, the loop's time on an
uncontended core of the machine the benchmark was defined on.  The median
keeps one slow sample (a page fault, a cache refill after a large job) from
moving the factor.  The job's wall and CPU times, minus the time spent in
the sampler during it, are divided by the matching factor.  CPU time has
its own factor because time slicing stretches wall time but not CPU time,
while a loaded sibling hyperthread stretches both.  Everything stays in one
thread: the handler runs between bytecodes of the job.

The correction is incomplete for jobs that stress caches and memory more
than the loop does (the dict- and set-heavy pair searches of pairs-wide):
over a 30-second window their corrected times still drift by several
percent with the kind of load on the host.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
REFERENCE_S = 220e-6  # uncontended loop time: Python 3.11, x86_64 at 2.0 GHz, 2 vCPUs


def calibration_loop() -> tuple[float, float]:
    """Wall and CPU seconds taken by a fixed exact-arithmetic loop, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        x = Fraction(1)
        for i in range(1, 40):
            x = x * Fraction(i + 1, i) / Fraction(i + 2, i + 1)
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the calibration loop while active (use as a context manager)."""

    def __init__(self) -> None:
        self.loops: list[tuple[float, float]] = []  # loop wall and CPU times of the current job
        self.spent = [0.0, 0.0]  # wall and CPU time inside the sampler, loop included

    def sample(self, *_signal) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.loops.append(calibration_loop())
        self.spent[0] += time.perf_counter() - wall
        self.spent[1] += time.process_time() - cpu

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """Run ``fn()`` once: (its result, sampler (wall, CPU) inside it, (wall, CPU) factors)."""
        self.loops = []
        self.sample()
        start = tuple(self.spent)
        result = fn()
        spent = (self.spent[0] - start[0], self.spent[1] - start[1])
        self.sample()
        factors = tuple(statistics.median(loop[i] for loop in self.loops) / REFERENCE_S for i in (0, 1))
        return result, spent, factors
