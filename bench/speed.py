"""Machine-speed sampling, so that timings survive a machine whose speed drifts.

On a shared host the same pure-Python loop can take up to half as long
again from one half-minute to the next, and epgraph slows down with it.
``SpeedProbe`` times a fixed reference loop every ``INTERVAL`` seconds
from a SIGALRM handler (in the benchmark's own thread, between
bytecodes) and turns a measured interval into seconds at the reference
speed: the raw time times the median of ``NOMINAL / sample`` over the
samples taken during and around it. The handler's own time is kept in
``spent`` so callers can take it out of what they measure.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.1
REF_ITERS = 12_000
# the reference loop's time during a run on a quiet machine (Python 3.11, x86-64)
NOMINAL = 1.0e-3


def reference_loop() -> int:
    """Pure interpreter work; it reads no memory that would evict epgraph's."""
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.at.append(start + took / 2)
        self.took.append(took)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Reference-speed seconds per measured second over [start, end]."""
        lo = bisect.bisect_left(self.at, start - INTERVAL)
        hi = bisect.bisect_right(self.at, end + INTERVAL)
        if lo == hi:  # no sample close by: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        if lo == hi:
            return 1.0
        return statistics.median(NOMINAL / t for t in self.took[lo:hi])

    def sample_quantiles(self) -> str:
        if len(self.took) < 2:
            return "-"
        deciles = statistics.quantiles(self.took, n=10)
        return "/".join(f"{deciles[i] * 1e3:.3f}" for i in (0, 4, 8))

    def mean_factor(self) -> float:
        return statistics.mean(NOMINAL / t for t in self.took) if self.took else 1.0
