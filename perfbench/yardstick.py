"""The machine's speed, measured on the benchmark's CPU while each job runs.

On a shared host each virtual CPU switches, from one second to the next,
between a fast and a slow mode about 1.6 times apart (a fixed
pure-Python loop takes either ~19 ms or ~31 ms), so two runs of the same
job differ by up to a third depending on how long it spent in each mode.
The benchmark therefore pins itself and every process it starts to one
CPU, and a thread of the benchmark times a fixed tick of pure-Python
work every 20 ms on that same CPU, interleaved with the job that is
running there.  A job's time is reported at the reference speed:

    seconds * TICK_REF_S / (median tick while the job ran)

A change to eqkr does not change the tick, so a scaled time moves with
the program as the wall time does; only the machine's share is taken
out (see README.md, "Steadiness").
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

# The median tick on the 2-core Xeon host the benchmark was set up on
# (Python 3.11), so scaled times read close to wall times there.
TICK_REF_S = 0.0002
TICK_EVERY_S = 0.02
MIN_TICKS = 3  # a window with fewer ticks is widened to its nearest ones


def tick(n=3000):
    """Fixed integer arithmetic, about 0.2 ms on the reference machine."""
    acc = 0
    for i in range(n):
        acc += i * i
    return acc


def pin_to_one_cpu():
    """Pin this process, and so every process it starts, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    return None


class SpeedMeter:
    """A thread that times `tick()` every TICK_EVERY_S seconds.

    Times are `time.perf_counter()` values, which on Linux read the
    system-wide monotonic clock, so windows reported by a child process
    can be matched against the ticks.
    """

    def __init__(self):
        self.ends = []  # end time of each tick, increasing
        self.durations = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-meter", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.is_set():
            t0 = time.perf_counter()
            tick()
            t1 = time.perf_counter()
            self.durations.append(t1 - t0)
            self.ends.append(t1)
            self._stop.wait(TICK_EVERY_S)

    def median_tick(self, t0, t1):
        """Median tick that ended within [t0, t1], or of the MIN_TICKS nearest."""
        ends = self.ends[:]
        durations = self.durations[:len(ends)]
        lo, hi = bisect.bisect_left(ends, t0), bisect.bisect_right(ends, t1)
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(ends))
        if hi == lo:
            return TICK_REF_S  # no tick at all: leave the time as measured
        return statistics.median(durations[lo:hi])

    def scale(self, t0, t1):
        """Factor that takes a time measured over [t0, t1] to the reference speed."""
        return TICK_REF_S / self.median_tick(t0, t1)
