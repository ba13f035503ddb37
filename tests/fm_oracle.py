"""Reference Fourier–Motzkin elimination on ``(coeffs, rhs, strict)`` triples.

A triple stands for ``coeffs·x ≥ rhs`` (``>`` when strict).  This is the
engine ``conedec.feasibility`` used before it took canonical ``Halfspace``
rows, kept unchanged as an oracle: for the same system both must return
the same witness or both None.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Constraint = tuple[tuple[Fraction, ...], Fraction, bool]


def _canonical(con: Constraint) -> Constraint:
    """Scale a row by a positive rational so (coeffs, rhs) is primitive integer."""
    coeffs, rhs, strict = con
    den = 1
    for x in list(coeffs) + [rhs]:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in coeffs] + [int(rhs * den)]
    g = 0
    for a in ints:
        g = gcd(g, a)
    if g > 1:
        ints = [a // g for a in ints]
    return tuple(Fraction(a) for a in ints[:-1]), Fraction(ints[-1]), strict


def _dedupe(cons: list[Constraint]) -> list[Constraint]:
    """Drop tautologies and dominated parallel rows (same coeffs, weaker rhs)."""
    best: dict[tuple, tuple[Fraction, bool]] = {}
    order: list[tuple] = []
    for con in cons:
        coeffs, rhs, strict = _canonical(con)
        if all(c == 0 for c in coeffs) and (rhs < 0 or (rhs == 0 and not strict)):
            continue  # 0 ≥ negative: always true
        if coeffs in best:
            old_rhs, old_strict = best[coeffs]
            if rhs > old_rhs or (rhs == old_rhs and strict and not old_strict):
                best[coeffs] = (rhs, strict)
        else:
            best[coeffs] = (rhs, strict)
            order.append(coeffs)
    return [(key, best[key][0], best[key][1]) for key in order]


def _eliminate_last(cons: list[Constraint], nvars: int) -> list[Constraint]:
    """Project away variable nvars-1."""
    k = nvars - 1
    lowers, uppers, rest = [], [], []
    for coeffs, rhs, strict in cons:
        c = coeffs[k]
        head = coeffs[:k]
        if c > 0:
            lowers.append((c, head, rhs, strict))
        elif c < 0:
            uppers.append((-c, head, rhs, strict))
        else:
            rest.append((head, rhs, strict))
    for cl, al, bl, sl in lowers:
        for cu, au, bu, su in uppers:
            coeffs = tuple(cl * au_i + cu * al_i for al_i, au_i in zip(al, au))
            rhs = cu * bl + cl * bu
            rest.append((coeffs, rhs, sl or su))
    return _dedupe(rest)


def feasible_point(constraints: Sequence[Constraint], dim: int
                   ) -> Optional[tuple[Fraction, ...]]:
    """Exact rational point satisfying all constraints, or None if empty."""
    cur = _dedupe([(tuple(Fraction(c) for c in co), Fraction(r), s)
                   for co, r, s in constraints])
    levels: list[list[Constraint]] = [[] for _ in range(dim + 1)]
    levels[dim] = cur
    for nv in range(dim, 0, -1):
        cur = _eliminate_last(cur, nv)
        levels[nv - 1] = cur
    for _coeffs, rhs, strict in levels[0]:
        if rhs > 0 or (rhs == 0 and strict):
            return None
    point: list[Fraction] = []
    for k in range(dim):
        lo: Optional[tuple[Fraction, bool]] = None
        hi: Optional[tuple[Fraction, bool]] = None
        for coeffs, rhs, strict in levels[k + 1]:
            c = coeffs[k]
            if c == 0:
                continue
            bound = (rhs - sum(a * x for a, x in zip(coeffs[:k], point))) / c
            if c > 0:
                if lo is None or bound > lo[0] or (bound == lo[0] and strict):
                    lo = (bound, strict)
            else:
                if hi is None or bound < hi[0] or (bound == hi[0] and strict):
                    hi = (bound, strict)
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
