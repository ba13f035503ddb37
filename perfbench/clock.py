"""Host speed, measured with a fixed reference task, to scale timings by.

On a shared host the same op takes up to twice as long in one minute as in
the next, while the ratio between the costs of different ops stays within
a few percent.  So every timing the benchmark reports is scaled by
``REF_S / t``, where ``t`` is the median time of the reference task run next
to it: a timing is given in seconds on a host where the reference task takes
``REF_S``.  The task is the benchmark's own code, never the program's, and
does the kind of work conedec does (Fraction elimination, integer
determinants, tuples and sets), so no change to the program moves it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import gen

REF_S = 0.004       # ~ the reference task's median on the host of the bounds
WINDOW = 9          # reference samples around a timing that set its scale

_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(8)]
           for i in range(6)]
_POINTS = [(3, -1, 2), (-2, 4, 1), (0, 0, -3), (4, 2, -1), (-3, -3, 2),
           (1, -4, -2), (2, 3, 4), (-4, 1, -1), (0, 1, 0)]


def _rref_rank(rows):
    m = [row[:] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def reference_task():
    """A fixed amount of exact arithmetic; returns a checksum of it."""
    verts, facets = gen.hull(_POINTS)
    return _rref_rank(_MATRIX) + len(verts) + len(facets)


class Clock:
    """Reference-task samples taken between timed ops."""

    def __init__(self):
        self.samples: list[float] = []

    def tick(self):
        t0 = perf_counter()
        reference_task()
        self.samples.append(perf_counter() - t0)

    def scale_at(self, i):
        """REF_S over the median of the WINDOW samples centred on sample i."""
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return REF_S / statistics.median(self.samples[lo:lo + WINDOW])

    def overall_scale(self):
        """REF_S over the median of all samples."""
        return REF_S / statistics.median(self.samples)

    def timed(self, fn):
        """Run fn() between two windows of samples: (scaled seconds, result)."""
        for _ in range(WINDOW):
            self.tick()
        t0 = perf_counter()
        result = fn()
        dt = perf_counter() - t0
        for _ in range(WINDOW):
            self.tick()
        return dt * REF_S / statistics.median(self.samples[-2 * WINDOW:]), result
