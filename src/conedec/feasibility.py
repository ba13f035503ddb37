"""Exact feasibility of mixed strict/closed rational linear systems.

A system is a sequence of canonical ``Halfspace`` rows ``normal·x ≥ offset``
(``>`` when strict).  Fourier–Motzkin elimination is exponential in general
but the systems in this library are tiny (a handful of constraints in
dimension ≤ 4), and unlike LP solvers it needs no numerics and produces an
exact rational witness.  Every level keeps one row per normal
(`polyhedra.binding`); a combined row whose normal vanishes is decided at
once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .polyhedra import Halfspace, binding, halfspace


def _eliminate_last(rows: list[Halfspace], nvars: int
                    ) -> Optional[list[Halfspace]]:
    """Project away variable nvars-1; None when the projection is empty."""
    k = nvars - 1
    lowers, uppers, rest = [], [], []
    for h in rows:
        c = h.normal[k]
        if c > 0:
            lowers.append(h)
        elif c < 0:
            uppers.append(h)
        else:
            rest.append(Halfspace(h.normal[:k], h.offset, h.strict))
    for lo in lowers:
        cl = lo.normal[k]
        for up in uppers:
            cu = -up.normal[k]
            head = tuple(cu * a + cl * b
                         for a, b in zip(lo.normal[:k], up.normal[:k]))
            off = cu * lo.offset + cl * up.offset
            strict = lo.strict or up.strict
            if any(head):
                rest.append(halfspace(head, off, strict))
            elif off > 0 or (off == 0 and strict):
                return None  # 0 ≥ off (or 0 > off) fails
    return binding(rest)


def feasible_point(system: Sequence[Halfspace], dim: int
                   ) -> Optional[tuple[Fraction, ...]]:
    """Exact rational point in every halfspace of the system, or None if
    their intersection is empty."""
    levels = [binding(system)]
    for nv in range(dim, 0, -1):
        cur = _eliminate_last(levels[-1], nv)
        if cur is None:
            return None
        levels.append(cur)
    levels.reverse()  # levels[k]: the projection onto the first k variables
    point: list[Fraction] = []
    for k in range(dim):
        lo: Optional[tuple[Fraction, bool]] = None
        hi: Optional[tuple[Fraction, bool]] = None
        for h in levels[k + 1]:
            c = h.normal[k]
            if c == 0:
                continue
            known = sum(a * x for a, x in zip(h.normal[:k], point))
            bound = (h.offset - known) / c
            if c > 0:
                if lo is None or bound > lo[0] or (bound == lo[0] and h.strict):
                    lo = (bound, h.strict)
            else:
                if hi is None or bound < hi[0] or (bound == hi[0] and h.strict):
                    hi = (bound, h.strict)
        if lo is None and hi is None:
            point.append(Fraction(0))
        elif hi is None:
            point.append(lo[0] + 1 if lo[1] else lo[0])
        elif lo is None:
            point.append(hi[0] - 1 if hi[1] else hi[0])
        else:
            if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
                raise AssertionError("FM backtrack hit an empty interval")
            if lo[0] == hi[0]:
                point.append(lo[0])
            else:
                point.append((lo[0] + hi[0]) / 2)
    return tuple(point)
