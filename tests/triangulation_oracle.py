"""Reference regular triangulation by enumerating every d-subset, and the
certificates that check a triangulation's cells.

``regular_triangulation`` is the lower-hull search that
``conedec.triangulation.regular_triangulation`` used before it read the
lower facets off ``polyhedra.cone_facets`` and before it lifted the rays
themselves, kept as an oracle.  It cuts the cone by a hyperplane
{w·x = 1}, found by an exact feasibility search unless given, and lifts
each slice point ray/(w·ray) to its height.  Heights H on the slice points
and heights H_r·(w·r) on the rays give the same cells, tied heights
included, since scaling each ε-term of the pulling refinement by a positive
factor keeps its order; ``ray_heights`` and ``slice_heights`` convert.  The
oracle lifts point j to the symbolic height h_j − ε^(j+1) and compares
exactly, coefficient by coefficient of (1, ε, ε², …), so no lifting is ever
tied: tied heights give the pulling refinement in index order.  A cell's
certificate is the linear functional g, one vector per coefficient, with
g·p = height on the cell's lifted points and g·p < height on all the
others; the lifted points are the slice points of the oracle's result and
the rays of a ``LiftedTriangulation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from conedec.linalg import IntVector, Vector, dot, frac, primitive, rank, vec
from conedec.polyhedra import DegenerateInput, halfspace
from conedec.triangulation import LiftedTriangulation
from helpers import feasible_point
from linalg_oracle import solve_linear


@dataclass(frozen=True)
class SlicedTriangulation:
    """The oracle's triangulation: heights attach to the slice points
    ray/(w·ray) of the slice normal w; cells are index sets into `rays`."""
    rays: tuple[IntVector, ...]
    heights: tuple[Fraction, ...]
    slice_normal: Vector
    cells: tuple[tuple[int, ...], ...]


def positive_functional(rays: Sequence[IntVector], dim: int) -> Optional[Vector]:
    """Some w with w·r > 0 for every ray; None when the cone is not pointed."""
    return feasible_point([halfspace(r, 1) for r in rays], dim)


def ray_heights(rays: Sequence, heights: Sequence, w: Sequence
                ) -> list[Fraction]:
    """The heights H_r·(w·r) on the primitive rays that give the cells of
    the heights H on the slice points of w."""
    return [frac(h) * dot(w, primitive(r)) for r, h in zip(rays, heights)]


def slice_heights(rays: Sequence, heights: Sequence, w: Sequence
                  ) -> list[Fraction]:
    """The heights h_r/(w·r) on the slice points of w that give the cells of
    the heights h on the primitive rays."""
    return [frac(h) / dot(w, primitive(r)) for r, h in zip(rays, heights)]


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
                          ) -> SlicedTriangulation:
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
    return SlicedTriangulation(rays, heights, w, tuple(cells))


def slice_points(tri: SlicedTriangulation) -> tuple[Vector, ...]:
    """Where each ray meets the slice {w·x = 1}; heights attach here."""
    return tuple(tuple(x / dot(tri.slice_normal, r) for x in r)
                 for r in tri.rays)


def lifted_points(tri: SlicedTriangulation | LiftedTriangulation
                  ) -> tuple[Vector, ...]:
    """Where the heights attach: the slice points of the oracle's result,
    the rays themselves of the program's."""
    if isinstance(tri, LiftedTriangulation):
        return tri.rays
    return slice_points(tri)


def certificates(tri: SlicedTriangulation | LiftedTriangulation
                 ) -> tuple[Optional[tuple[Vector, ...]], ...]:
    """Each cell's functional g with g·p = symbolic height on its lifted
    points."""
    points, lifted = lifted_points(tri), symbolic_heights(tri.heights)
    return tuple(certificate(points, lifted, c) for c in tri.cells)


def verify_certificates(tri: SlicedTriangulation | LiftedTriangulation
                        ) -> bool:
    """Every cell's span of lifted points lies strictly below every other
    lifted point, so the cells are lower-hull faces."""
    points, lifted = lifted_points(tri), symbolic_heights(tri.heights)
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
