"""Machine speed, measured with a fixed loop, to scale wall times by.

On a shared machine the speed of the same computation drifts by 20% and
more between runs minutes apart, and by up to 2x within seconds.  The
worker times `reference_loop` next to every instance; a time is reported
as it would read at the speed where that loop takes REFERENCE_LOOP_S.
The loop uses only the standard library, so no change to the package can
move it, and it exercises what the package spends its time on: Fraction
arithmetic, tuple building, hashing and sorting.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_LOOP_S = 0.0025


def reference_loop() -> float:
    """Wall time in seconds of one pass of the fixed loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    points = []
    for i in range(1, 600):
        acc += Fraction(i, i + 1)
        point = (i, i * 3 % 7, i * 5 % 11)
        points.append(point)
        table[point] = acc.denominator % 97
    points.sort(key=lambda p: (p[1], p[2], -p[0]))
    sum(a * b - c for a, b, c in points)
    return time.perf_counter() - start


def scaled(times, loop_times) -> list:
    """Times at reference speed.

    `loop_times[i]` and `loop_times[i + 1]` are the loop timings taken just
    before and just after `times[i]`; their mean is the speed it ran at.
    """
    return [t * 2 * REFERENCE_LOOP_S / (loop_times[i] + loop_times[i + 1])
            for i, t in enumerate(times)]
