"""Samples of the machine's speed, taken while the benchmark runs.

On a shared machine the CPU can run 1.5x slower for seconds at a time
because of load from outside the benchmark. That swing is larger than
the changes the benchmark must resolve, so each op's time is also given
in reference units: its seconds divided by the mean time of a fixed
piece of reference work run around it.

A timer signal runs the reference work every PERIOD seconds, in the
middle of ops as well as between them, so the samples cover the run
evenly in time. The time the samples take is subtracted from the op it
interrupted. The reference work is pure Python on integers and a dict,
the kind of work gkserver's hot loops do, and calls nothing of gkserver:
no change to the program can move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

PERIOD = 0.02   # seconds between samples
WINDOW = 0.5    # seconds of samples taken on each side of an op


def reference_work() -> int:
    """About 0.25 ms of rational-style big-integer and dict work."""
    num, den, table = 1, 3, {}
    for i in range(1, 150):
        num, den = num * (i + 1) * i + den * (i + 1), den * i * (i + 1)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        table[i % 17] = table.get(i % 17, 0) + (i if i & 1 else -i)
    return num % 1000 + len(table)


class SpeedSampler:
    """Context manager that samples the reference work's time while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.busy = 0.0   # total seconds spent in samples
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.busy += end - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, start: float, end: float) -> float:
        """Mean reference time from WINDOW before `start` to WINDOW after `end`."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        xs = self.durations[lo:hi] or self.durations
        return sum(xs) / len(xs)
