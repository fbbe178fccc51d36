"""Host speed calibration: op times scaled to a fixed reference speed.

On a shared host the same Python code runs at one speed for tens of seconds,
then 1.5 to 2 times slower for tens of seconds, as other tenants load the
physical cores.  A 30-second run can fall entirely in a slow spell, so no
statistic over one run's raw times is steady from run to run.

The cure is to measure the host's speed next to the work.  ``calibration_ns``
times a fixed pure-Python kernel (``fractions`` arithmetic, a dict and an
integer loop, the instruction mix of the library's hot paths) that never
touches ``qcayley``.  A time measured while the kernel takes ``c`` ns is
reported as ``time * REFERENCE_NS / c``: the time it would have taken on a
host where the kernel takes ``REFERENCE_NS``.  Over 150 s on the host named
below, the kernel's time ranged from 0.47 to 0.80 ms; across 5-second
blocks the raw times of six library calls varied by 17-22% (coefficient of
variation), and their ratios to the kernel's time by 5-7%.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

# The kernel's fastest time on an idle vCPU of a 2-vCPU KVM guest
# (Intel Xeon, family 6 model 143) under CPython 3.11.
REFERENCE_NS = 400_000
EVERY_NS = 200_000_000  # recalibrate after this much time
REPEATS = 5  # kernel runs per calibration; the fastest one counts


def kernel() -> int:
    third, acc, seen = Fraction(1, 3), Fraction(0), {}
    for i in range(1, 60):
        acc += third * Fraction(i, i + 1)
        seen[i] = acc.numerator % 97
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total + len(seen)


def calibration_ns() -> int:
    """The kernel's fastest time over ``REPEATS`` runs, now."""
    best = None
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        kernel()
        took = perf_counter_ns() - t0
        best = took if best is None else min(best, took)
    return best


class Speedometer:
    """The current scale factor, recalibrated every ``EVERY_NS``."""

    def __init__(self):
        self.samples_ns: list[int] = []
        self.recalibrate()

    def recalibrate(self) -> None:
        took = calibration_ns()
        self.samples_ns.append(took)
        self.scale = REFERENCE_NS / took
        self.due_ns = perf_counter_ns() + EVERY_NS

    def current(self) -> float:
        """The scale to apply to the next measurement."""
        if perf_counter_ns() >= self.due_ns:
            self.recalibrate()
        return self.scale
