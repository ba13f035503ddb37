"""Reference regular triangulation by enumerating every d-subset, and the
certificates that check a triangulation's cells.

``regular_triangulation`` is the lower-hull search
``conedec.triangulation.regular_triangulation`` used before it read the
lower facets off ``polyhedra.cone_facets``, kept as an oracle: for the same
rays, heights and slice normal both must return the same cells,
certificates and slice points, or raise the same ``DegenerateHeights``
message.  A cell's certificate is the linear functional g with g·p = height
on the cell's slice points and g·p < height on all the others.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from conedec.linalg import (Vector, dot, frac, primitive, rank, solve_linear,
                            vec, vscale)
from conedec.polyhedra import DegenerateInput
from conedec.triangulation import (DegenerateHeights, LiftedTriangulation,
                                   positive_functional)


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
    points = tuple(vscale(1 / dot(w, r), r) for r in rays)
    cells: list[tuple[int, ...]] = []
    for subset in combinations(range(len(rays)), dim):
        mtx = [points[j] for j in subset]
        g = solve_linear(mtx, [heights[j] for j in subset])
        if g is None:
            continue
        on_face = []
        for k, p in enumerate(points):
            if k in subset:
                continue
            val = dot(g, p)
            if val > heights[k]:
                break  # a point below: not a lower face
            if val == heights[k]:
                on_face.append(k)
        else:
            if on_face:
                raise DegenerateHeights(
                    f"heights are not generic: slice point {on_face[0]} lies "
                    f"on the lower-hull face of {subset}")
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
    return tuple(vscale(1 / dot(tri.slice_normal, r), r) for r in tri.rays)


def certificates(tri: LiftedTriangulation) -> tuple[Optional[Vector], ...]:
    """Each cell's functional g with g·p = height on its slice points."""
    points = slice_points(tri)
    return tuple(solve_linear([points[j] for j in c],
                              [tri.heights[j] for j in c]) for c in tri.cells)


def verify_certificates(tri: LiftedTriangulation) -> bool:
    """Every cell's affine span of lifted points lies strictly below every
    other lifted point, so the cells are lower-hull faces."""
    points = slice_points(tri)
    for cell, g in zip(tri.cells, certificates(tri)):
        if g is None:
            return False
        for j, p in enumerate(points):
            val = dot(g, p)
            if j in cell:
                if val != tri.heights[j]:
                    return False
            elif val >= tri.heights[j]:
                return False
    return True
