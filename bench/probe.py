"""Speed probe: corrects timings for the machine's speed at the time.

On a shared machine the same pass can take twice as long from one minute to
the next, because other tenants slow the core down.  The probe measures
that slowdown where the benchmark runs: a SIGALRM timer interrupts the main
thread every PERIOD_S seconds and times a fixed kernel: a plain Python loop
and a chain of numpy calls on a small array, the two kinds of work the
workloads spend their time in.  A timing taken over [t0, t1] is then
rescaled by REF_S over the median kernel time of the samples taken in that
interval, which gives the seconds it would have taken on a core that runs
the kernel in REF_S.  Raw timings are reported alongside.

The probe costs about 0.6% of the run.  On the reference machine the
corrected pass times spread about half as much as the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# kernel time on an undisturbed core of the reference machine (2-vCPU Xeon
# VM); only the ratio to it matters, so it never changes between commits
REF_S = 1.5e-4
_ARRAY = np.linspace(0.1, 2.0, 121)


def _kernel():
    s = 0
    for i in range(2000):
        s += i * i
    a = _ARRAY
    for _ in range(20):
        a = np.log1p(a * 0.5) / (a + 1.0)


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []     # sample start times, ascending
        self.kernel_s: list[float] = []  # kernel durations
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.times.append(t0)
        self.kernel_s.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median kernel time over [t0, t1] relative to REF_S.  An interval
        shorter than the sampling period borrows its nearest samples."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.times), hi + 2)
        if lo >= hi:
            raise RuntimeError("the speed probe took no samples")
        return statistics.median(self.kernel_s[lo:hi]) / REF_S

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at reference speed."""
        return (t1 - t0) / self.slowdown(t0, t1)
