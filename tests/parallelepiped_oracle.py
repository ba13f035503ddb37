"""Reference enumeration of a fundamental parallelepiped in ``Fraction``
arithmetic.

This is the body ``conedec.genfunc.enumerate_parallelepiped`` had before it
walked the cell in ``int`` arithmetic, kept unchanged as an oracle: for the
same cell both must return the same sorted list, or both raise.
"""

from __future__ import annotations

from itertools import product
from math import ceil, floor
from typing import Optional, Sequence

from conedec.linalg import IntVector, rank, vec
from linalg_oracle import mat_inverse, mat_vec, residue_box, vsub


def enumerate_parallelepiped(generators: Sequence[Sequence[int]],
                             apex: Sequence,
                             open_flags: Optional[Sequence[bool]] = None
                             ) -> list[IntVector]:
    """Lattice points of the half-open cell apex + Σ λ_i·t_i.

    λ_i runs over [0,1) where the flag is False and (0,1] where it is True.
    Enumeration walks a residue box of Z^d modulo the generator lattice (one
    point per class) and lifts each point into the cell, so the cost is
    exactly the number of points.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    d = len(gens[0])
    if len(gens) != d or rank(gens) != d:
        raise ValueError("generators must be d linearly independent vectors")
    apex = vec(apex)
    flags = tuple(open_flags) if open_flags is not None else (False,) * d
    cols = tuple(zip(*gens))  # generator matrix: column i is generator i
    cols_inv = mat_inverse(cols)
    points = []
    for r in product(*(range(h) for h in residue_box(cols))):
        lam = mat_vec(cols_inv, vsub(r, apex))
        mu = []
        for lam_i, open_i in zip(lam, flags):
            if open_i:
                mu.append(lam_i - (ceil(lam_i) - 1))
            else:
                mu.append(lam_i - floor(lam_i))
        m = [a + sum(c * mu_j for c, mu_j in zip(row, mu))
             for a, row in zip(apex, cols)]
        pt = []
        for x in m:
            if x.denominator != 1:
                raise AssertionError("parallelepiped point not integral")
            pt.append(int(x))
        points.append(tuple(pt))
    points.sort()
    return points
