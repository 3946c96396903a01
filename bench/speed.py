"""Machine-speed calibration, so timings do not follow the host's load.

On a shared host the speed of one core changes by 30% or more for tens of
seconds at a time, which is longer than one run.  Medians inside a run
cannot remove that.  So a fixed pure-Python kernel runs every ``PERIOD_S``
seconds: a SIGALRM handler on the main thread, between bytecodes.  It is also
run before and after each timed interval.  Its work mirrors the program's hot
loop: permutation tuples composed with ``map`` and looked up in a dict, and
frozensets of mapped indices.  It shares no code with subconj, so a change to
the program cannot move it.

A timed interval is then converted to reference seconds.  Calibration time
is cut out of the interval.  Each stretch of program time between two kernel
runs is divided by the mean slowdown those two runs measured, where the
slowdown is the kernel time over ``KERNEL_REF_S``.  On a quiet run of the
machine the baseline was measured on, reference seconds are close to wall
seconds.
"""

from __future__ import annotations

import random
import signal
from bisect import bisect_right
from time import perf_counter

PERIOD_S = 0.5
# median kernel time on the 2-vCPU Xeon VM, Python 3.11.7, where the
# baseline was measured
KERNEL_REF_S = 0.040

_rng = random.Random(20211004)
_PERMS = [tuple(_rng.sample(range(68), 68)) for _ in range(200)]
_INDEX = {p: i for i, p in enumerate(_PERMS)}
_MAPS = [list(p) for p in _PERMS[:8]]
_KEY = frozenset(range(0, 64, 3))


def kernel():
    """Fixed work; returns its duration in seconds."""
    start = perf_counter()
    acc = 0
    for a in _PERMS:
        for b in _PERMS[:25]:
            acc += _INDEX.get(tuple(map(b.__getitem__, a)), 0)
    for m in _MAPS * 25:
        acc += len(frozenset(map(m.__getitem__, _KEY)))
    return perf_counter() - start


class SpeedClock:
    """Kernel runs (start, end) over a measurement, and the conversion of
    wall intervals to reference seconds."""

    def __init__(self):
        self.events = []  # (start, end), in time order
        self._old = None

    def calibrate(self):
        start = perf_counter()
        kernel()
        self.events.append((start, perf_counter()))

    def _on_alarm(self, signum, frame):
        self.calibrate()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.calibrate()
        return False

    def reference_seconds(self, a, b):
        """Program time in [a, b], each stretch divided by its slowdown.

        Needs a kernel run before ``a`` and one after ``b``."""
        ev = self.events
        slow = self.slowdowns()
        total = 0.0
        i = max(bisect_right(ev, (a, float("inf"))) - 1, 0)
        for i in range(i, len(ev) - 1):
            lo, hi = ev[i][1], ev[i + 1][0]
            if lo >= b:
                break
            span = min(b, hi) - max(a, lo)
            if span > 0:
                total += span / ((slow[i] + slow[i + 1]) / 2)
        return total

    def slowdowns(self):
        """Kernel time over KERNEL_REF_S, per kernel run."""
        return [(e - s) / KERNEL_REF_S for s, e in self.events]
