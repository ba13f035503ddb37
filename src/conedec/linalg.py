"""Exact linear algebra over the rationals and the integers.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator,
arbitrary precision), vectors are tuples of Fractions, matrices are tuples
of row tuples.  Everything in this module is a pure function; nothing
rounds, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


class DimensionError(ValueError):
    """Raised when vector/matrix dimensions do not line up."""


def frac(x) -> Fraction:
    """Coerce an int, a string like ``"3/4"``, or a Fraction to Fraction.

    Floats and bools (a JSON ``true`` is not a coordinate) are rejected:
    this library is exact.  A string with a zero denominator is a
    ValueError like any other malformed string.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"expected exact rational, got {type(x).__name__}: {x!r}")


def vec(xs: Iterable) -> Vector:
    return tuple(frac(x) for x in xs)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot: {len(u)} vs {len(v)}")
    return sum((frac(a) * frac(b) for a, b in zip(u, v)), Fraction(0))


def idot(u: Sequence[int], v: Sequence[int]) -> int:
    """Integer dot product (no coercion, hot path)."""
    return sum(a * b for a, b in zip(u, v))


def vadd(u: Sequence, v: Sequence) -> Vector:
    if len(u) != len(v):
        raise DimensionError(f"vadd: {len(u)} vs {len(v)}")
    return tuple(frac(a) + frac(b) for a, b in zip(u, v))


def vneg(u: Sequence) -> Vector:
    return tuple(-frac(a) for a in u)


def vec_str(v: Sequence) -> str:
    """A vector as written in messages: ``(0, 1/2, -3)``."""
    return "(" + ", ".join(str(x) for x in v) + ")"


def perturbed_key(xi: Sequence, x: Sequence) -> tuple:
    """(ξ·x, x₁, …, x_d), whose lexicographic order is the order of
    (ξ + εe₁ + ε²e₂ + … + εᵈe_d)·x as ε → 0⁺.  Every tie of the library is
    broken by this order: the perturbed functional is positive on x exactly
    when the key is above (0, …, 0).
    """
    return (sum(map(mul, xi, x)), *x)


def primitive(v: Sequence) -> IntVector:
    """Scale a nonzero rational vector by a positive rational so it becomes
    an integer vector with gcd of entries equal to 1.  Direction is kept."""
    if all(type(x) is int for x in v):
        g = gcd(*v)
        if g == 0:
            raise ValueError("primitive: zero vector has no primitive form")
        return tuple(a // g for a in v)
    return primitive(_scaled([vec(v)])[1][0])


def _scaled(points: Sequence[Sequence[Fraction]]
            ) -> tuple[int, list[IntVector]]:
    """(q, the points times q), q the lcm of all their denominators."""
    q = lcm(*(x.denominator for p in points for x in p))
    return q, [tuple(x.numerator * (q // x.denominator) for x in p)
               for p in points]


def _int_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Clear denominators row by row: each row times the lcm of its
    denominators."""
    out = []
    for row in rows:
        r = vec(row)
        den = 1
        for x in r:
            den = lcm(den, x.denominator)
        out.append([int(x * den) for x in r])
    return out


def _bareiss(m: list[list[int]], reduce: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Brings m to row echelon form and returns its pivot columns (one per
    nonzero row, in row order) and the sign of the row permutation.  Every
    entry stays an integer minor of the input, so each division is exact.
    With ``reduce`` the entries above each pivot are cleared too
    (fraction-free Gauss–Jordan) and every pivot entry equals the last one,
    so row i, divided by its pivot, is row i of the reduced row echelon form.
    """
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        piv, prow = m[r][c], m[r]
        for i in (range(len(m)) if reduce else range(r + 1, len(m))):
            if i != r:
                f = m[i][c]
                m[i] = [(a * piv - f * b) // prev for a, b in zip(m[i], prow)]
        prev = piv
        pivots.append(c)
    return pivots, sign


def rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of integer rows; a Fraction, float or bool is refused."""
    if any(type(x) is not int for r in rows for x in r):
        raise TypeError(f"rank: rows must be integers, got {rows!r}")
    return len(_bareiss([list(r) for r in rows])[0])


def kernel_basis(rows: Sequence[Sequence]) -> list[Vector]:
    """Basis of the right kernel {x : a·x = 0}, as rational vectors.

    One vector per free column f, with x_f = 1 and zeros on the other free
    columns.
    """
    if not rows:
        raise ValueError("kernel_basis: need the ambient dimension, got no rows")
    ncols = len(rows[0])
    m = _int_rows(rows)
    pivots, _ = _bareiss(m, reduce=True)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = Fraction(-m[i][f], m[i][c])
        basis.append(tuple(x))
    return basis


def integer_inverse(rows: Sequence[Sequence[int]]
                    ) -> Optional[tuple[int, tuple[IntVector, ...]]]:
    """(det, adj) of a square integer matrix, with rows·adj = det·I, from one
    fraction-free Gauss–Jordan elimination of [rows | I]; None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("integer_inverse: matrix is not square")
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    pivots, sign = _bareiss(m, reduce=True)
    if pivots != list(range(n)):
        return None
    det = sign * m[-1][n - 1] if n else 1  # the right block is sign·det·rows⁻¹
    return det, tuple(tuple(sign * x for x in r[n:]) for r in m)


def dual_basis(gens: Sequence[IntVector], xi: Optional[Sequence] = None
               ) -> tuple[tuple, tuple[IntVector, ...], tuple[int, ...]]:
    """((det, adj), duals, signs) of d independent integer generators, from
    one ``integer_inverse`` of the matrix whose columns they are.

    duals[i] is row i of sign(det)·adj over its gcd, so duals[i]·gens[j] is
    0 for j ≠ i and positive for j = i: the inner normals of a simplicial
    cone's facets from its rays, and the rays of a simple cone from its
    facet normals.  signs[i] is the sign (±1) of the perturbed functional
    ξ + εe₁ + … + εᵈe_d on duals[i], read from perturbed_key(ξ, duals[i]);
    it is never 0, as duals[i] ≠ 0.  Without ξ, signs is empty.
    """
    if any(len(g) != len(gens) for g in gens) or (
            inv := integer_inverse(tuple(zip(*gens)))) is None:
        raise ValueError("generators must be d linearly independent vectors")
    det, adj = inv
    duals = tuple(tuple(x // g for x in row) for row in adj
                  for g in (gcd(*row) if det > 0 else -gcd(*row),))
    zero = (0,) * (len(duals) + 1)
    return inv, duals, () if xi is None else tuple(
        1 if perturbed_key(xi, h) > zero else -1 for h in duals)


def hermite(cols: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    """Lower-triangular Hermite normal form H = cols·U, U unimodular, of an
    integer matrix of full row rank: h_ii > 0 and 0 <= h_ij < h_ii for j < i.

    Row i's pivot, the gcd of its entries in columns i, i+1, …, comes from
    Euclid's algorithm on whole columns (Cohen §2.4.2), and the entries left
    of it are reduced modulo it as soon as it is finished, so they stay small.
    """
    gens = [list(c) for c in zip(*cols)]  # column operations act on these
    for i in range(len(cols)):
        for j in range(i + 1, len(gens)):
            while gens[j][i]:
                f = gens[i][i] // gens[j][i]
                gens[i], gens[j] = gens[j], [u - f * v for u, v
                                             in zip(gens[i], gens[j])]
        h = gens[i][i] if i < len(gens) else 0
        if h == 0:
            raise ValueError("columns do not span a full-rank lattice")
        if h < 0:
            gens[i], h = [-u for u in gens[i]], -h
        for j in range(i):
            f = gens[j][i] // h
            if f:
                gens[j] = [u - f * v for u, v in zip(gens[j], gens[i])]
    return tuple(zip(*gens))


def residue_box(cols: Sequence[Sequence[int]]) -> IntVector:
    """Sides h_0..h_{d-1} of a box {x : 0 <= x_i < h_i} holding exactly one
    point of each class of Z^d modulo the lattice spanned by the columns:
    the diagonal of the lattice's Hermite normal form.  Subtracting Hermite
    columns moves any integer point into the box one coordinate at a time,
    and the box has |det| points, so no two of them are congruent.
    """
    try:
        return tuple(row[i] for i, row in enumerate(hermite(cols)))
    except ValueError as e:
        raise ValueError(f"residue_box: {e}") from None
