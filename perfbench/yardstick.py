"""A yardstick for the speed of a shared machine.

On a shared machine the speed of a process switches between a fast and a
slow state, about one and a half times apart, each lasting for seconds.  How
much of a run falls in each state moves the run's times by a fifth from one
run to the next.  The yardstick is a fixed piece of exact arithmetic that
uses no library code: Gaussian elimination over ``Fraction`` on a fixed
matrix, the same kind of work as the library's ``rref``.  Timed right before
and right after a step of an operation, it tells the state around that step,
and scaling the step's time by it removes most of the difference.  The
collector is off while it runs, so that the library's live heap cannot slow
the yardstick and so flatter the corrected times.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# The median time of one sample on the 2-core machine the bounds were set on.
# Corrected times are what an operation takes when a sample takes this long.
NOMINAL_S = 0.008
# A sample is the median of this many timings, so that one preempted timing
# does not move it.
REPEATS = 3

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(10)] for i in range(9)]


def _rref(rows) -> list:
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


def sample() -> float:
    """Median seconds of three eliminations of the fixed matrix, over REPEATS timings."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            for _ in range(3):
                _rref(_MATRIX)
            times.append(perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to a machine on which a sample takes NOMINAL_S."""
    return seconds * NOMINAL_S / ((before + after) / 2)
