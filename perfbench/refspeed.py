"""The machine's speed while a call runs, from a fixed reference kernel.

The benchmark shares its CPUs with other work, and the speed of the same
code flips between a fast and a slow phase, up to 2x apart, several times a
second to once a minute.  So while the benchmark measures, a timer signal
runs a short fixed kernel that does not depend on qrl every INTERVAL_S, in
the benchmark's own thread, between two bytecodes of whatever is running.
A call's time, less the time the kernel took inside it, is then scaled to
the speed at which the kernel takes NOMINAL_MS:

    scaled_ms = (raw_ms - kernel_ms_inside) * NOMINAL_MS / mean_kernel_ms

A change to qrl moves the scaled time fully; a change in the machine's speed
moves the kernel and the call together and largely cancels.  The kernel is
small-matrix numpy driven from Python, which is what the qrl inner loops are
made of.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

NOMINAL_MS = 1.2  # about the kernel's time in the fast phase
INTERVAL_S = 0.025  # gap between two kernel runs while sampling
_LOOPS = 100

_rng = np.random.default_rng(20230718)
_H = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_H = _H + _H.conj().T
_M = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))


def kernel() -> float:
    acc = 0.0
    for _ in range(_LOOPS):
        w, v = np.linalg.eigh(_H)
        x = _M @ v
        acc += float(w[0]) + abs(x[0, 0])
    return acc


def sample(reps: int = 9) -> float:
    """Median milliseconds of `reps` kernel runs back to back, after one
    untimed run that takes the first-call costs."""
    kernel()
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


class Sampler:
    """Runs the kernel from SIGALRM every INTERVAL_S while on, and keeps
    each run's (start, end) in perf_counter seconds."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._on = False

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.ends.append(time.perf_counter())
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        if not self.starts:
            kernel()  # first-call costs stay out of every run kept
        signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def split(self, start: float, end: float) -> tuple:
        """(milliseconds of the interval outside kernel runs, mean kernel
        milliseconds of the runs that start inside it, or, if none do, of
        the last run before it and the first after it)."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.starts, end)
        spent = sum(min(self.ends[i], end) - max(self.starts[i], start) for i in range(lo, hi))
        inside = [self.ends[i] - self.starts[i] for i in range(lo, hi) if self.starts[i] >= start]
        if not inside:
            near = [i for i in (lo - 1, hi) if 0 <= i < len(self.starts)]
            inside = [self.ends[i] - self.starts[i] for i in near]
        return (end - start - spent) * 1e3, 1e3 * sum(inside) / len(inside)

    def scaled_ms(self, start: float, end: float) -> float:
        """The interval's time outside kernel runs, at the reference speed."""
        busy_ms, ref_ms = self.split(start, end)
        return busy_ms * NOMINAL_MS / ref_ms
