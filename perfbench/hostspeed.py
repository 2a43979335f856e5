"""Host-speed normalization of wall-clock times.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over tens of seconds while the process keeps its CPU (CPU time tracks
wall time), so raw per-run medians spread by 20-30%.  A fixed calibration
kernel, independent of the program under test, slows down with the host and
not with the program.  Timing it next to each measurement and dividing by
its reference time gives a speed factor; a measured time divided by the
factor reads as seconds on the reference host at its reference speed.

The kernel mixes what the program does: complex arithmetic in Python, small
numpy products and dict updates.
"""

from __future__ import annotations

import cmath
import signal
import statistics
import time

import numpy as np

#: kernel time on the reference host (2-vCPU Xeon VM at 2.1 GHz, Python 3.11)
REFERENCE_S = 0.0034

_QS = np.exp(cmath.log(0.3) * np.arange(69))


def kernel() -> float:
    """Run the calibration kernel once; return its wall time."""
    t0 = time.perf_counter()
    acc = 0j
    seen = {}
    for k in range(256):
        x = cmath.exp(complex(k * 1e-4, 0.1))
        acc += complex(np.prod((1.0 - _QS * x) * (1.0 - _QS / x)))
        seen[k, acc.real > 0] = acc
    return time.perf_counter() - t0


def factor_now(repeats: int = 7) -> float:
    """Speed factor from a burst of kernel runs (for short-lived processes)."""
    return statistics.median(kernel() for _ in range(repeats)) / REFERENCE_S


class Sampler:
    """Times the kernel every ``period`` seconds from SIGALRM while active.

    Samples are (start, duration).  ``spent`` accumulates kernel time so a
    measured interval can exclude it.
    """

    def __init__(self, period: float = 0.2):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def sample(self):
        """Time the kernel once and record it."""
        t0 = time.perf_counter()
        dt = kernel()
        self.samples.append((t0, dt))
        self.spent += dt

    def _tick(self, signum, frame):
        self.sample()

    def top_up(self, count: int):
        """Sample until at least ``count`` samples exist."""
        while len(self.samples) < count:
            self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float, at_least: int = 5) -> float:
        """Mean kernel time over the interval, widened to the nearest
        ``at_least`` samples when it holds fewer, over REFERENCE_S.  The
        mean, not the median, because the interval's duration integrates
        every slow spell in it."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if len(inside) < at_least:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:at_least]
            inside = [dt for _, dt in nearest]
        return statistics.mean(inside) / REFERENCE_S
