"""Machine-speed probe, so that times from a noisy shared machine compare.

On a shared 2-vCPU machine the same pass can take anywhere from 1x to 2x its
fastest time, in phases lasting seconds, whoever else runs there.  No bound
of 25% holds on raw times.  While a probe is open, a SIGALRM every 10 ms runs
a fixed pure-Python chunk (Fraction arithmetic, tuples, a dict: the kind of
work mtlsem does) and records how long it took.  A span of time is then
reported in reference seconds: its raw length, less the probe's own time
inside it, scaled by NOMINAL_S over the mean chunk time measured during it.
One reference second is the time in which the chunk would run 4000 times.

The chunk is part of the benchmark, so a change to the package cannot move
it; a change that speeds up mtlsem lowers its reference times by the same
share as its raw times.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
NOMINAL_S = 250e-6  # chunk time defining the reference second; about its time here


def _chunk():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        q = Fraction(i, 7) + Fraction(3, i)
        acc += q
        seen[(i % 17, q > 1)] = q
    return acc, len(seen)


class SpeedProbe:
    """Context manager sampling the chunk time while it is open."""

    def __init__(self):
        self.starts = []
        self.costs = []
        self._previous = None

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        _chunk()
        self.starts.append(t0)
        self.costs.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def reference(self, t0: float, t1: float) -> float:
        """perf_counter interval [t0, t1] in reference seconds."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        inside = self.costs[lo:hi]
        near = inside or self.costs[max(0, lo - 2):lo + 2]
        return (t1 - t0 - sum(inside)) * NOMINAL_S * len(near) / sum(near)
