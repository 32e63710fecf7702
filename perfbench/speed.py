"""Call times at a reference host speed.

A shared host changes speed by up to about 1.7x, in spells from milliseconds
to minutes long, and a fixed loop slows in CPU time as much as in wall time.
So a timed call is sampled by a fixed reference kernel, 20 quaternion
products of fixed rationals with the table multiplier of `algebra` (which
never imports `quatdyn`): once before the call, once after it, and every
INTERVAL_S of CPU time inside it, from a SIGPROF handler.  Each stretch of
the call between two kernel runs is scaled by REF_NOMINAL_S over their mean
time, and the kernel's own time is left out.  Times then read as seconds at
the host speed where the kernel takes REF_NOMINAL_S.  A change to the
program moves its calls and not the kernel.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

from algebra import Algebra

REF_ALG = Algebra()
REF_A = tuple(Fraction(v, 7) for v in (3, -5, 2, 11))
REF_B = tuple(Fraction(v, 5) for v in (-4, 1, 9, 2))
REF_REPS = 10
# the reference kernel's time on a calm host (2 cores, CPython 3.11)
REF_NOMINAL_S = 1.4e-3
# CPU time between two kernel runs inside a call
INTERVAL_S = 0.02


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = perf_counter()
    x = REF_A
    for _ in range(REF_REPS):
        x = REF_ALG.mul(REF_ALG.mul(REF_A, x), REF_B)
    return perf_counter() - t0


def at_reference(wall_s: float, ref0: float, ref1: float) -> float:
    """`wall_s`, timed between kernel runs that took `ref0` and `ref1`, at the
    reference speed."""
    return wall_s * 2 * REF_NOMINAL_S / (ref0 + ref1)


class Probe:
    """Times the body of a `with` block: `wall_s` is its wall time without
    the kernel runs, `scaled_s` that time at the reference speed."""

    def __enter__(self):
        self.marks = []  # (start, duration) of each kernel run
        self._sample()
        # how many times slower than the reference speed the host runs now
        self.slowness = self.marks[0][1] / REF_NOMINAL_S
        self._handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, *_):
        t = perf_counter()
        self.marks.append((t, reference_s()))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._handler)
        self._sample()
        self.wall_s = self.scaled_s = 0.0
        for (t0, r0), (t1, r1) in zip(self.marks, self.marks[1:]):
            stretch = t1 - (t0 + r0)
            self.wall_s += stretch
            self.scaled_s += at_reference(stretch, r0, r1)
        return False
