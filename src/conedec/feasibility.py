"""Exact feasibility of mixed strict/closed rational linear systems.

Its two callers are ``IndicatorSum.restrict`` and ``verify_identity_exact``
in ``indicators``; every piece is built from a point inside it.  A system is
a sequence of canonical ``Halfspace`` rows ``normal·x ≥ offset`` (``>`` when
strict), decided by Fourier–Motzkin elimination: exponential in general, but
the systems here are tiny (dimension ≤ 4).  Rows are eliminated in integers
(a primitive normal, an offset p/q, a strict flag), so combining two rows
costs integer products and two gcds.  A system's *levels* are its
projections onto x₁..x_j, j = d..1, each keeping one row per normal
(`polyhedra.binds`) among those whose last variable is x_j; a combined row
whose normal vanishes is decided at once.  `project` extends levels by new
rows, combining only those and the rows they derive, so a search branch
extends its parent's projection.  `witness` back-substitutes each x_k from
the interval the projection onto x₁..x_k leaves it; it returns the point as
integers (nums, den).  That interval depends only on the solution set, so
levels built in one shot, row by row or in any order give the same point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional

from .polyhedra import Halfspace, binds

# Per level, the rows with a positive and with a negative last coefficient,
# each as normal -> (p, q, strict) for normal·x ≥ p/q, q > 0.
Levels = tuple[tuple[dict, dict], ...]


def project(levels: Levels, rows: Iterable[Halfspace], dim: int
            ) -> Optional[Levels]:
    """The levels of a system extended by more rows, or None when the
    extended system is empty.  Pass ``()`` for the system with no rows; the
    given levels are not changed."""
    out = list(levels) or [({}, {})] * dim
    todo = [(h.normal, h.offset.numerator, h.offset.denominator, h.strict)
            for h in rows]
    for j in range(dim - 1, -1, -1):  # out[j] holds the rows ending in x_{j+1}
        if not todo:
            return tuple(out)
        lows, ups = out[j]
        new_lo, new_up = new = ({}, {})
        down = []
        for n, p, q, s in todo:
            c = n[-1]
            if c == 0:
                down.append((n[:-1], p, q, s))
                continue
            old = new[c < 0].get(n) or (ups if c < 0 else lows).get(n)
            if old is None or binds(p * old[1], s, old[0] * q, old[2]):
                new[c < 0][n] = (p, q, s)
        # copied, not updated: sibling branches share their parent's levels
        lows, ups = out[j] = {**lows, **new_lo}, {**ups, **new_up}
        pairs = chain(product(new_lo.items(), ups.items()),
                      ((lo, up) for up in new_up.items() for lo in lows.items()
                       if lo[0] not in new_lo))
        for (nl, (pl, ql, sl)), (nu, (pu, qu, su)) in pairs:
            cl, cu = nl[-1], -nu[-1]
            head = [cu * a + cl * b for a, b in zip(nl[:-1], nu)]
            num, den, strict = cu * pl * qu + cl * pu * ql, ql * qu, sl or su
            g = gcd(*head)
            if g == 0:
                if num > 0 or (num == 0 and strict):
                    return None  # 0 ≥ num (or 0 > num) fails
                continue
            if g > 1:
                head, den = [a // g for a in head], den * g
            r = gcd(num, den)
            down.append((tuple(head), num // r, den // r, strict))
        todo = down
    if any(p > 0 or (p == 0 and s) for _n, p, _q, s in todo):
        return None  # an input row with an all-zero normal fails
    return tuple(out)


def _sharpest(table: dict, nums: list[int], den: int):
    """The binding bound that one side of a level puts on its last variable
    at the point nums/den, as (b, strict): x ≥ b for the rows with a
    positive last coefficient, x ≤ −b for the others; None for no rows."""
    best = None
    for n, (p, q, s) in table.items():
        a, m = p * den - q * sum(map(mul, n, nums)), q * abs(n[-1])
        if best is None or binds(a * best[1], s, best[0] * m, best[2]):
            best = a, m, s
    return best and (Fraction(best[0], best[1] * den), best[2])


def witness(levels: Levels) -> tuple[tuple[int, ...], int]:
    """The point back-substitution picks in the set that nonempty levels
    describe, as (nums, den) for nums/den, den the lcm of the coordinates'
    denominators: each x_k is the midpoint of its interval, its one endpoint
    (moved by 1 when open), or 0 when the interval is the whole line."""
    nums, den = [], 1  # the point so far is nums / den
    for lows, ups in levels:
        lo, hi = _sharpest(lows, nums, den), _sharpest(ups, nums, den)
        if lo and hi:
            a, b = lo[0], -hi[0]
            if a > b or (a == b and (lo[1] or hi[1])):
                raise AssertionError("FM backtrack hit an empty interval")
            x = (a + b) / 2
        elif lo or hi:
            x = lo[0] + lo[1] if lo else -hi[0] - hi[1]  # a bool is 0 or 1
        else:
            x = Fraction(0)
        scale = lcm(den, x.denominator)
        nums, den = [v * (scale // den) for v in nums] + [int(x * scale)], scale
    return tuple(nums), den
