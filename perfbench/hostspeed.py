"""Host-speed calibration: a fixed reference loop, timed beside the work.

On a shared host the speed of one CPU can drift by a third or more, in
phases that last from a second to minutes, while CPU time stays equal to
wall time.  Neither CPU time nor more repetitions remove that drift.  But a
fixed pure-Python loop, timed right beside the work, slows down by the same
factor as the work does.

So each time the benchmark reports is ``measured * NOMINAL_S / reference``.
Here ``reference`` is the mean time of the loop runs next to the measured
interval.  The result is in seconds on a host where the loop takes
``NOMINAL_S``.  During the items, a ``Sampler`` runs the loop from a timer
signal every ``EVERY_S`` of wall time, so long items are sampled inside too.
The time spent in the loop is taken out of the item it interrupted.  The
loop uses nothing from the package, so a change to the package moves the
scaled times by the same share as the raw ones.
"""

import bisect
import signal
import time
from contextlib import contextmanager

# Within the loop's range of times (1.7 to 3.2 ms) on the 2-vCPU VM with
# Python 3.11.7 where the benchmark was written, so nominal seconds are
# close to seconds there.
NOMINAL_S = 0.0022
# Wall time between two reference runs of a Sampler.
EVERY_S = 0.05
# Reference runs before and after one set-up.
SETUP_RUNS = 9


def reference():
    """Tuples, dict updates and int arithmetic, as the package uses.

    It imports nothing, so it can run before ``import nakayama`` without
    changing what that import has to load.
    """
    counts = {}
    acc = 1
    for i in range(6000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if i % 50 == 0:
            acc = acc * (i % 97 + 1) % 1000000007 + i // (i % 89 + 1)
    return len(counts), acc


def time_reference():
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(reference_s):
    """Factor that turns a time measured beside the reference into nominal seconds."""
    return NOMINAL_S / reference_s


class Sampler:
    """Runs the reference loop every EVERY_S while installed.

    ``runs`` holds (start, end) perf_counter pairs in order: one run just
    before the timer starts, one per tick, and one just after it stops.
    With the timer, ticks come from SIGALRM; its handler runs in the main
    thread between bytecodes, so every run lies wholly inside or wholly
    outside any interval the main thread times.  Without it, the caller
    ticks between the timed intervals with ``tick_if_due``.
    """

    def __init__(self):
        self.runs = []
        self._busy = False

    def _tick(self, signum=None, frame=None):
        if self._busy:          # a tick that lands inside a run is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference()
        self.runs.append((start, time.perf_counter()))
        self._busy = False

    @contextmanager
    def installed(self, timer=True):
        previous = signal.signal(signal.SIGALRM, self._tick) if timer else None
        self._tick()
        if timer:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._tick()

    def tick_if_due(self):
        """Without the timer: one run if EVERY_S has passed since the last."""
        if time.perf_counter() - self.runs[-1][1] >= EVERY_S:
            self._tick()

    def scaled(self, start, end):
        """(time in [start, end] outside reference runs, that time in nominal seconds).

        The scale comes from the runs inside the interval, plus the last run
        before it and the first run after it.
        """
        starts = [s for s, _ in self.runs]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        own = end - start - sum(e - s for s, e in self.runs[lo:hi])
        around = self.runs[max(lo - 1, 0):hi + 1]
        return own, own * scale(sum(e - s for s, e in around) / len(around))
