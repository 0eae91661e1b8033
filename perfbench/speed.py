"""Timings corrected for the speed the shared CPU runs at.

On a machine whose cores are shared with other tenants, the same
single-threaded Python code can take 1.3 to 1.6 times longer from one
second to the next, and averaging over a longer run does not remove it.
A short calibration loop that allocates dicts and multiplies integers, as
permspec does, slows down with it.  So a pass samples that loop every 20 ms
from a SIGALRM handler (a signal, not a thread), and a timed unit is
reported as the work it did in reference seconds:

    seconds = sum over the unit's wall time of dt * CAL_REF_S / cal(t)

where cal(t) is the loop's latest duration and CAL_REF_S its duration on
an uncontended core of the machine the benchmark was written on (Intel
Xeon, Python 3.11).  On that machine, uncontended, reference seconds equal
wall seconds.  The handler's own time is taken out of every unit.
"""

from __future__ import annotations

import signal
import time

CAL_REF_S = 0.00045
INTERVAL_S = 0.02
NEAREST = 5   # samples used for a unit shorter than a few intervals


def calibrate() -> float:
    """One run of the calibration loop; returns its duration."""
    start = time.perf_counter()
    table = {}
    for i in range(1500):
        table[(i, i & 7)] = (i * 123456789) ** 2 % 1000003
    sorted(table.values())
    return time.perf_counter() - start


def factor(durations) -> float:
    """Reference seconds per wall second while the loop took these durations."""
    return sum(CAL_REF_S / d for d in durations) / len(durations)


def burst(count: int = 40) -> float:
    """The factor measured by back-to-back runs of the loop."""
    return factor([calibrate() for _ in range(count)])


class Speedometer:
    """Samples the calibration loop while the process works."""

    def __init__(self):
        self.samples: list[float] = []     # loop durations, in order
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame):
        self.samples.append(calibrate())

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(wall seconds, factor) since the mark, handler time excluded.

        The unit's reference seconds are wall * factor.
        """
        now = time.perf_counter()
        start, first = mark
        inside = self.samples[first:]
        wall = now - start - sum(inside)
        if len(inside) < NEAREST:
            inside = self.samples[-NEAREST:] or [CAL_REF_S]
        return wall, factor(inside)
