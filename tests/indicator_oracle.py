"""Reference identity checks that test every constraint of every piece.

This is how ``conedec.indicators`` decided identities before it compiled
both sides into one hyperplane arrangement: the grid check evaluates each
side term by term at every point, and the exact-cells check solves every
branch of the arrangement from scratch and evaluates each side at the
cell's witness.  Kept unchanged as an oracle: for the same inputs both
must give the same report.

``satisfied``, ``contains``, ``random_rational_points`` and ``barycenter``
are the ``Fraction`` bodies that ``Halfspace.satisfied``,
``LocallyClosedPiece.contains``, ``indicators.random_rational_points`` and
``Polytope.barycenter`` had before the program scaled each point once to
integers; the integer versions must agree with them exactly.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import zip_longest
from math import ceil, floor, lcm
from typing import Optional, Sequence

from conedec.indicators import (Box, IndicatorSum, LocallyClosedPiece,
                                VerificationReport, ZPoly, grid_points)
from conedec.linalg import Vector, frac, vec
from conedec.polyhedra import Face, Halfspace, Polytope
from helpers import dot, feasible_point


def satisfied(h: Halfspace, x: Sequence) -> bool:
    """Whether the rational point x lies in h, by a ``Fraction`` dot."""
    s = dot(h.normal, x)
    return s > h.offset if h.strict else s >= h.offset


def contains(pc: LocallyClosedPiece, x: Sequence) -> bool:
    return all(satisfied(h, x) for h in pc.constraints)


def random_rational_points(box: Box, count: int, seed: int):
    """Seeded rational samples in the box with small random denominators,
    each bound multiplied out in ``Fraction``."""
    rng = random.Random(seed)
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    if any(lo > hi for lo, hi in box):
        return
    for _ in range(count):
        den = rng.randint(1, 6)
        for lo, hi in box:
            if ceil(lo * den) > floor(hi * den):
                den *= lo.denominator
        yield tuple(rng.randint(ceil(lo * den), floor(hi * den))
                    for lo, hi in box), den


def barycenter(p: Polytope, face: Optional[Face] = None) -> Vector:
    """Average of the vertices of the polytope, or of one of its faces."""
    ids = range(len(p.vertices)) if face is None else face.vertex_ids
    pts = [p.vertices[i] for i in ids]
    return tuple(sum(q[i] for q in pts) / len(pts) for i in range(p.dim))


def satisfied_scaled(h: Halfspace, nums: Sequence[int], den: int) -> bool:
    """Test the point (nums/den) using integer arithmetic only."""
    lhs = sum(n * a for n, a in zip(h.normal, nums))
    rhs = h.offset
    # lhs/den ≥ rhs  ⟺  lhs·rhs.den ≥ rhs.num·den   (den > 0)
    left = lhs * rhs.denominator
    right = rhs.numerator * den
    return left > right if h.strict else left >= right


def contains_scaled(pc: LocallyClosedPiece, nums: Sequence[int], den: int
                    ) -> bool:
    for h in pc.constraints:
        if not satisfied_scaled(h, nums, den):
            return False
    return True


def evaluate_scaled(s: IndicatorSum, nums: Sequence[int], den: int):
    """The value of s at nums/den: the weights of the pieces holding the
    point, added coefficient by coefficient and trimmed."""
    held = [coeff.coeffs for coeff, pc in s.terms
            if contains_scaled(pc, nums, den)]
    cs = [sum(col) for col in zip_longest(*held, fillvalue=0)]
    while cs and cs[-1] == 0:
        cs.pop()
    return ZPoly(tuple(cs))


def evaluate(s: IndicatorSum, x: Sequence):
    """The value of s at the rational point x."""
    x = vec(x)
    if len(x) != s.dim:
        raise ValueError(f"point dimension {len(x)} != {s.dim}")
    den = lcm(*(c.denominator for c in x))
    return evaluate_scaled(s, [c.numerator * (den // c.denominator) for c in x],
                           den)


def verify_identity(lhs: IndicatorSum, rhs: IndicatorSum, box, step,
                    extra_samples: int = 0, seed: int = 0,
                    name: str = "identity") -> VerificationReport:
    """Compare two indicator sums on the grid plus seeded random points."""
    t0 = time.monotonic()
    step = frac(step)
    params = {
        "box": [[str(lo), str(hi)] for lo, hi in box],
        "step": str(step),
        "extra_samples": extra_samples,
        "seed": seed,
    }
    checked = 0

    def run(points) -> Optional[dict]:
        nonlocal checked
        for nums, den in points:
            a = evaluate_scaled(lhs, nums, den)
            b = evaluate_scaled(rhs, nums, den)
            checked += 1
            if a != b:
                pt = [str(Fraction(n, den)) for n in nums]
                return {"point": pt, "lhs": repr(a), "rhs": repr(b)}
        return None

    bad = run(grid_points(box, step))
    if bad is None and extra_samples > 0:
        bad = run(random_rational_points(box, extra_samples, seed))
    return VerificationReport(name, params, checked, bad is None, bad,
                              time.monotonic() - t0)


def verify_identity_exact(lhs: IndicatorSum, rhs: IndicatorSum,
                          name: str = "identity") -> VerificationReport:
    """Decide an identity exactly by enumerating arrangement cells."""
    t0 = time.monotonic()
    dim = lhs.dim
    # each hyperplane once, as a closed halfspace with leading coordinate > 0
    ups = (max(h, h.complement()) for s in (lhs, rhs) for _c, pc in s.terms
           for h in pc.constraints)
    planes = list(dict.fromkeys(Halfspace(h.normal, h.offset) for h in ups))
    checked = 0
    bad: Optional[dict] = None
    stack: list[tuple[int, list]] = [(0, [])]
    while stack and bad is None:
        k, rows = stack.pop()
        if k == len(planes):
            w = feasible_point(rows, dim)
            if w is None:
                continue
            checked += 1
            a, b = evaluate(lhs, w), evaluate(rhs, w)
            if a != b:
                bad = {"point": [str(c) for c in w], "lhs": repr(a), "rhs": repr(b)}
            continue
        h = planes[k]
        neg = Halfspace(tuple(-a for a in h.normal), -h.offset)
        branches = [
            rows + [neg.complement()],  # n·x > off
            rows + [h, neg],            # n·x = off
            rows + [h.complement()],    # n·x < off
        ]
        for br in reversed(branches):
            if feasible_point(br, dim) is not None:
                stack.append((k + 1, br))
    return VerificationReport(name, {"mode": "exact-cells"}, checked,
                              bad is None, bad, time.monotonic() - t0)
