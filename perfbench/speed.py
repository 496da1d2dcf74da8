"""Times at a reference machine speed.

On a shared host the CPU speed one process gets switches between a fast and
a slow state, about 1.8x apart, within milliseconds, and the share of time
spent in each drifts over seconds to minutes, with nothing else of ours
running (README, "Why timings are scaled").  A fixed kernel of the
benchmark's own, which calls nothing of qkdsim, runs twice before and twice
after every operation, and once every SAMPLE_INTERVAL_S during it from a
SIGALRM handler in the one worker thread.  The handler's time is taken off
the operation's.  Every time the benchmark reports is scaled by
CALIBRATION_REF_S / (the kernel's mean time over those runs): it is the time
the operation would have taken at the speed at which the kernel takes
CALIBRATION_REF_S.  The raw times go to the result file.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import time

import numpy as np
from scipy import special

CALIBRATION_REF_S = 0.0025
SAMPLE_INTERVAL_S = 0.1
# A run of the kernel longer than this many times the fastest of its group
# was held up: the process did not run for part of it.  The slow state is
# no more than about 2.1x the fast one.
STALL_FACTOR = 3.0


def calibration_kernel() -> float:
    """The kind of work qkdsim does: interpreted float arithmetic and dict
    access, numpy ufuncs on small arrays, scalar scipy.special calls, and
    number formatting.  2.3-4.8 ms on a 2-vCPU Xeon KVM guest."""
    acc, table = 0.0, {}
    for i in range(5000):
        acc += (i * 0.5 + acc * 1e-3) ** 0.5
        table[i & 31] = acc
    x = np.linspace(0.1, 0.9, 16)
    for _ in range(250):
        x = np.exp(-x) * 0.9 + np.minimum(x, 0.05)
    for k in range(480):
        acc += float(special.betainc(k % 60 + 1.0, 1e6 - k, 1e-5 * (1 + k % 7)))
    text = ",".join(f"{v * i:.9g}" for i in range(1, 45) for v in x.tolist())
    return acc + float(x.sum()) + len(text)


def timed_kernel() -> float:
    """Seconds of one run of the kernel, with the collector off so that the
    program's heap does not enter the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(reps: int) -> list[float]:
    """Seconds of each of `reps` runs of the kernel back to back."""
    return [timed_kernel() for _ in range(reps)]


def kernel_mean(times: list[float]) -> float:
    """Mean of the kernel's times, leaving out stalled runs."""
    cutoff = STALL_FACTOR * min(times)
    kept = [t for t in times if t <= cutoff]
    return sum(kept) / len(kept)


class Sampler:
    """Runs the kernel every SAMPLE_INTERVAL_S of wall time while `running`,
    from a SIGALRM handler, and keeps the kernel's times and the total time
    spent in the handler."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self.during: list[float] = []   # samples of the last operation
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(timed_kernel())
        finally:
            self.handler_s += time.perf_counter() - start
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
