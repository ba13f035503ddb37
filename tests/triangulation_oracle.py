"""Reference regular triangulation by enumerating every d-subset, and the
certificates that check a triangulation's cells.

``regular_triangulation`` is the lower-hull search
``conedec.triangulation.regular_triangulation`` used before it read the
lower facets off ``polyhedra.cone_facets``, kept as an oracle: for the same
rays, heights and slice normal both must return the same cells,
certificates and slice points.  It lifts ray j to the symbolic height
h_j − ε^(j+1) and compares exactly, coefficient by coefficient of
(1, ε, ε², …), so no lifting is ever tied: tied heights give the pulling
refinement in index order.  A cell's certificate is the linear functional
g, one vector per coefficient, with g·p = height on the cell's slice points
and g·p < height on all the others.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from conedec.linalg import Vector, dot, frac, primitive, rank, vec
from conedec.polyhedra import DegenerateInput
from conedec.triangulation import LiftedTriangulation, positive_functional
from linalg_oracle import solve_linear


def symbolic_heights(heights: Sequence) -> tuple[tuple[Fraction, ...], ...]:
    """Each ray j's height h_j − ε^(j+1), as its coefficients of
    (1, ε, ε², …)."""
    n = len(heights)
    return tuple((frac(h),) + tuple(Fraction(-(i == j)) for i in range(n))
                 for j, h in enumerate(heights))


def certificate(points: Sequence[Vector], lifted, cell
                ) -> Optional[tuple[Vector, ...]]:
    """The functional, one vector per coefficient, that equals the symbolic
    height on the cell's points: one solve per coefficient; None when the
    cell's points are dependent."""
    mtx = [points[j] for j in cell]
    g = tuple(solve_linear(mtx, [lifted[j][c] for j in cell])
              for c in range(len(lifted[0])))
    return None if g[0] is None else g


def lifted_value(g: Sequence[Vector], p: Vector) -> tuple[Fraction, ...]:
    return tuple(dot(gc, p) for gc in g)


def regular_triangulation(rays: Sequence, heights: Sequence,
                          slice_normal: Optional[Sequence] = None
                          ) -> LiftedTriangulation:
    """Lower-hull triangulation of a pointed full-dimensional cone.

    Heights attach to the slice points ray/(w·ray).  A custom slice normal
    `w` may be supplied (it must be positive on every ray); by default one is
    found by exact feasibility search.
    """
    rays = tuple(primitive(r) for r in rays)
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    dim = len(rays[0])
    if rank(rays) != dim:
        raise DegenerateInput("rays do not span: cone is not full-dimensional")
    heights = tuple(frac(h) for h in heights)
    if len(heights) != len(rays):
        raise ValueError(f"{len(rays)} rays but {len(heights)} heights")
    if slice_normal is None:
        w = positive_functional(rays, dim)
        if w is None:
            raise DegenerateInput("cone is not pointed")
    else:
        w = vec(slice_normal)
        if any(dot(w, r) <= 0 for r in rays):
            raise ValueError("slice normal must be strictly positive on all rays")
    points = tuple(tuple(x / dot(w, r) for x in r) for r in rays)
    lifted = symbolic_heights(heights)
    cells: list[tuple[int, ...]] = []
    for subset in combinations(range(len(rays)), dim):
        g = certificate(points, lifted, subset)
        if g is None:
            continue
        # a lower face: every other point lies above the cell's hyperplane,
        # never on it (its own ε-coefficient is −1, the hyperplane's is 0)
        if all(lifted_value(g, p) < lifted[k] for k, p in enumerate(points)
               if k not in subset):
            cells.append(subset)
    if not cells:
        raise AssertionError("no lower-hull cell found")
    used = set()
    for c in cells:
        used.update(c)
    if used != set(range(len(rays))):
        raise AssertionError("a ray is missing from every cell")
    return LiftedTriangulation(rays, heights, w, tuple(cells))


def slice_points(tri: LiftedTriangulation) -> tuple[Vector, ...]:
    """Where each ray meets the slice {w·x = 1}; heights attach here."""
    return tuple(tuple(x / dot(tri.slice_normal, r) for x in r)
                 for r in tri.rays)


def certificates(tri: LiftedTriangulation
                 ) -> tuple[Optional[tuple[Vector, ...]], ...]:
    """Each cell's functional g with g·p = symbolic height on its slice
    points."""
    points, lifted = slice_points(tri), symbolic_heights(tri.heights)
    return tuple(certificate(points, lifted, c) for c in tri.cells)


def verify_certificates(tri: LiftedTriangulation) -> bool:
    """Every cell's affine span of lifted points lies strictly below every
    other lifted point, so the cells are lower-hull faces."""
    points, lifted = slice_points(tri), symbolic_heights(tri.heights)
    for cell, g in zip(tri.cells, certificates(tri)):
        if g is None:
            return False
        for j, p in enumerate(points):
            val = lifted_value(g, p)
            if j in cell:
                if val != lifted[j]:
                    return False
            elif val >= lifted[j]:
                return False
    return True
