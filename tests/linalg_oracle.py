"""Rational linear algebra that only the tests use.

``determinant``, ``mat_vec``, ``mat_inverse``, ``solve_linear`` and
``vsub`` lived in ``conedec.linalg`` until the program stopped calling
them; they are kept here unchanged, as oracles: ``mat_inverse``'s
primitive rows are what the duals ``linalg.dual_basis`` must return, the
parallelepiped oracle walks its cells with them, and the triangulation
oracle solves for its certificates with ``solve_linear``.
``residue_box`` is the minor-gcd body ``linalg.residue_box`` had before it
read the Hermite normal form, the oracle for that form's diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Sequence

from conedec.linalg import (DimensionError, IntVector, Vector, _bareiss,
                            _int_rows, dot, frac, integer_inverse)


def vsub(u: Sequence, v: Sequence) -> Vector:
    if len(u) != len(v):
        raise DimensionError(f"vsub: {len(u)} vs {len(v)}")
    return tuple(frac(a) - frac(b) for a, b in zip(u, v))


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


def solve_linear(a: Sequence[Sequence], b: Sequence) -> Optional[Vector]:
    """Solve a·x = b exactly.

    Accepts square or overdetermined systems.  Returns the unique solution,
    or None when the system is inconsistent or underdetermined (no unique
    solution).  The integer-scaled augmented matrix is reduced fraction-free.
    """
    rows = [list(r) for r in a]
    if len(rows) != len(b):
        raise DimensionError(f"solve_linear: {len(rows)} rows vs {len(b)} rhs")
    if not rows:
        return ()
    ncols = len(rows[0])
    m = _int_rows([r + [rhs] for r, rhs in zip(rows, b)])
    pivots, _ = _bareiss(m, reduce=True)
    if pivots != list(range(ncols)):
        return None  # underdetermined, or inconsistent (the rhs is a pivot)
    return tuple(Fraction(m[i][ncols], m[i][i]) for i in range(ncols))


def residue_box(cols: Sequence[Sequence[int]]) -> IntVector:
    """Sides h_0..h_{d-1} of a box {x : 0 <= x_i < h_i} holding exactly one
    point of each class of Z^d modulo the lattice spanned by the columns.

    The h_i are the diagonal of the lattice's lower-triangular Hermite
    normal form: h_0···h_{k-1} is the gcd of the k×k minors of the first k
    rows, which unimodular column operations do not change.
    """
    ncols = len(cols[0]) if cols else 0
    sides: list[int] = []
    prev = 1
    for k in range(1, len(cols) + 1):
        g = gcd(*cols[0]) if k == 1 else 0  # the 1×1 minors: row 0's entries
        for sub in combinations(range(ncols), k) if k > 1 else ():
            m = [[row[j] for j in sub] for row in cols[:k]]
            g = gcd(g, m[-1][-1] if len(_bareiss(m)[0]) == k else 0)  # ±minor
            if g == prev:  # every k×k minor is a multiple of prev
                break
        if g == 0:
            raise ValueError("residue_box: columns do not span a full-rank lattice")
        sides.append(g // prev)
        prev = g
    return tuple(sides)
