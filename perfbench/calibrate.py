"""Calibrated time: seconds corrected for this host's drifting CPU speed.

On a shared host the speed of Python bytecode drifts from minute to
minute (on the 2-core host this benchmark was built on, a fixed loop's
20 s averages had an interquartile spread of 20%), which would swamp
any change worth measuring.  ``Sampler`` times a fixed pure-Python unit
of work, owned by the benchmark and independent of mstd, every 100 ms
from a SIGALRM handler while the workload runs.  A phase's calibrated
time is its wall time, less the time spent in the handler, scaled by
NOMINAL_UNIT_S over the unit's time measured during that phase.  Both
commits of a comparison run the same unit, so ratios between them are
unaffected; raw seconds are reported alongside.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.05
# Set-up lasts under a second, so it is sampled more densely.
SETUP_PERIOD_S = 0.02
# Time of one unit at nominal speed.  Calibrated seconds are seconds on
# a host where the unit takes exactly this long.
NOMINAL_UNIT_S = 0.0004


def unit() -> int:
    """Fixed mix of small-int loops, big-int shift/OR and set building."""
    mask = (1 << 101) - 12345
    acc = 0
    for i in range(1200):
        acc |= mask << (i % 64)
        acc ^= acc >> 7
    seen = set()
    for a in range(0, 200, 2):
        for b in range(a, 200, 3):
            seen.add(a + b)
    return acc.bit_count() + len(seen)


class Sampler:
    """Times ``unit`` every PERIOD_S while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        unit()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def start(self, period: float = PERIOD_S) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def correction(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds spent sampling, speed factor) for the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = range(lo, hi)
        busy = sum(self.ends[i] - self.starts[i] for i in inside)
        if not inside:  # shorter than one period: use the nearest samples
            inside = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
        if not inside:
            return busy, 1.0
        return busy, sum(NOMINAL_UNIT_S / (self.ends[i] - self.starts[i]) for i in inside) / len(inside)

    def calibrated(self, t0: float, t1: float) -> float:
        """Calibrated seconds for the wall-clock interval [t0, t1]."""
        busy, factor = self.correction(t0, t1)
        return (t1 - t0 - busy) * factor
