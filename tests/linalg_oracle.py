"""Rational linear algebra that only the tests use.

``determinant``, ``mat_vec`` and ``mat_inverse`` lived in
``conedec.linalg`` until the program stopped calling them; they are kept
here unchanged, as oracles: ``mat_inverse``'s primitive rows are what
``linalg.simplicial_cone_facet_normals`` must return, and the parallelepiped
oracle walks its cells with them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from conedec.linalg import (DimensionError, Vector, _bareiss, _int_rows, dot,
                            frac, integer_inverse)


def mat_vec(a: Sequence[Sequence], x: Sequence) -> Vector:
    return tuple(dot(row, x) for row in a)


def determinant(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("determinant: matrix is not square")
    if n == 0:
        return Fraction(1)
    m = _int_rows(rows)  # row i times the lcm of its denominators
    factor = 1
    for r in rows:
        factor *= lcm(*(frac(x).denominator for x in r))
    pivots, sign = _bareiss(m)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], factor)


def mat_inverse(rows: Sequence[Sequence]) -> tuple[Vector, ...]:
    """Exact inverse of a square nonsingular matrix."""
    q = lcm(*(frac(x).denominator for r in rows for x in r))
    inv = integer_inverse([[int(frac(x) * q) for x in r] for r in rows])
    if inv is None:
        raise ValueError("mat_inverse: singular matrix")
    return tuple(tuple(Fraction(q * x, inv[0]) for x in r) for r in inv[1])
