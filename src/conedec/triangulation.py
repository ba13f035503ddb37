"""Regular triangulations of pointed cones by lifting.

Each primitive ray r is lifted to (r, h_r) and the cells are the lower faces
of the lifted vector configuration, projected back: the regular subdivision
of De Loera, Rambau and Santos (*Triangulations*, ch. 2 and 9).  The lower
faces are read off ``polyhedra.cone_facets`` of the lifted rays: a facet
whose normal has a positive last coordinate is a lower face.  The same hull
tells whether the cone is pointed.  A face with more than d rays (tied
heights) is refined by pulling its rays in index order: the regular
refinement for heights h − (ε, ε², …) as ε → 0⁺.  A ray that lifts above the
lower hull is rejected if ``polyhedra.irredundant`` finds it not extreme.
Brion's cones need no heights: ``pulling_triangulation`` of all their rays.
It reads only the top-level cone's facets, as ray-index sets (Brion's come
from the face lattice): a facet of a face is a maximal proper intersection
of the face with them, so no face below the top is ever hulled.

``half_open_inverses`` makes the cells half-open so that they tile the cone
disjointly, by the tie-break of ``linalg.perturbed_key``, from one dual basis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Sequence

from .linalg import IntVector, dual_basis, frac, primitive, rank, vec_str
from .polyhedra import DegenerateInput, cone_facets, irredundant


@dataclass(frozen=True)
class LiftedTriangulation:
    """Regular triangulation of the cone spanned by `rays`, each lifted by
    its height; cells are index sets into `rays`."""
    rays: tuple[IntVector, ...]
    heights: tuple[Fraction, ...]
    cells: tuple[tuple[int, ...], ...]


def regular_triangulation(rays: Sequence, heights: Sequence
                          ) -> LiftedTriangulation:
    """Lower-hull triangulation of a pointed full-dimensional cone, each
    primitive ray r lifted to (r, h_r).  The cone is pointed iff the lifted
    cone holds no line and no vertical ray; heights linear on the rays lift
    it flat, onto a copy of itself."""
    rays = tuple(primitive(r) for r in rays)
    if len(set(rays)) != len(rays):
        raise ValueError("duplicate rays")
    dim = len(rays[0])
    if rank(rays) != dim:
        raise DegenerateInput("rays do not span: cone is not full-dimensional")
    heights = tuple(frac(h) for h in heights)
    if len(heights) != len(rays):
        raise ValueError(f"{len(rays)} rays but {len(heights)} heights")
    if len(rays) == dim:  # simplicial, so pointed: one cell
        return LiftedTriangulation(rays, heights, (tuple(range(dim)),))
    lifted = [primitive([x * h.denominator for x in r] + [h.numerator])
              for r, h in zip(rays, heights)]
    if rank(lifted) == dim:  # heights linear on the rays: one lower face
        hull = cone_facets(rays, dim)
        faces = [range(len(rays))]
        pointed = rank([n for n, _ in hull]) == dim
    else:  # the lower faces are faces of the lifted cone: pull in it
        hull = cone_facets(lifted, dim + 1)
        faces = [on for n, on in hull if n[-1] > 0]
        # normals that span, with last coordinates of both signs
        pointed = (rank([n for n, _ in hull]) == dim + 1 and bool(faces)
                   and any(n[-1] < 0 for n, _ in hull))
    if not pointed:
        raise DegenerateInput("cone is not pointed")
    facets = [on for _, on in hull]
    cells = sorted(cell for face in faces
                   for cell in pulling_triangulation(sorted(face), dim, facets))
    if not cells:
        raise AssertionError("no lower-hull cell found")
    missing = set(range(len(rays))).difference(*cells)
    if missing:
        j = min(missing)
        if j not in irredundant(len(rays), cone_facets(rays, dim), dim):
            raise DegenerateInput(f"ray {vec_str(rays[j])} is not an extreme "
                                  "ray of the cone, and no cell uses it")
        raise AssertionError("a ray is missing from every cell")
    return LiftedTriangulation(rays, heights, tuple(cells))


def pulling_triangulation(face: Sequence[int], fdim: int,
                          facets: Collection[Collection[int]]
                          ) -> list[tuple[int, ...]]:
    """Pulling triangulation, in index order, of the fdim-dimensional face
    spanned by the rays at the sorted indices `face` of a cone whose facets
    are the ray-index sets `facets`: the joins of its first ray with the
    pulled facets that miss it, sorted.  The face's facets are its maximal
    proper intersections with `facets` (a smaller face among them changes
    nothing), since every face of a cone is an intersection of its facets."""
    if len(face) == fdim:
        return [tuple(face)]
    whole = frozenset(face)
    meets = {whole.intersection(f) for f in facets} - {whole}
    return sorted((face[0],) + cell for on in meets
                  if face[0] not in on and not any(on < o for o in meets)
                  for cell in pulling_triangulation(sorted(on), fdim - 1,
                                                    facets))


def seeded_heights(n: int, seed: int) -> tuple[Fraction, ...]:
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(0, 4 * n + 8)) for _ in range(n))


def half_open_inverses(rays: Sequence[IntVector],
                       cells: Sequence[Sequence[int]]) -> list[tuple]:
    """((det, adj), facet normals, open flags) of each cell, making the cells
    a disjoint cover of the cone: one ``dual_basis`` of a cell's generators,
    signed at q = Σ_j 2^j·r_j.

    A facet is open exactly when the point q + εe₁ + ε²e₂ + … + εᵈe_d lies
    on its outer side as ε → 0⁺, that is when the perturbed q is negative on
    its normal: the tie-break of every polarized cone, read from the dual
    side.  The perturbed point lies on no wall, so each wall is closed on
    exactly one side (Köppe–Verdoolaege).  Normal i and flag i refer to the
    facet opposite generator i (True = generator coefficient must be
    strictly positive).
    """
    q = [sum(x << j for j, x in enumerate(col)) for col in zip(*rays)]
    out = []
    for cell in cells:
        inv, normals, signs = dual_basis([rays[j] for j in cell], q)
        out.append((inv, normals, tuple(s < 0 for s in signs)))
    return out
