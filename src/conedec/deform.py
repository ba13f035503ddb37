"""Polar decomposition at non-simple vertices via virtual deformations.

A non-simple vertex is handled by regular-triangulating its normal cone:
each simplicial cell of normals defines a simple cone containing the tangent
cone, each inequality whose ray the functional decreases along is flipped
strict, and the signed cell sum is the vertex's local contribution.  A
simple vertex is the one-cell case.  Ties are broken by symbolic
perturbation (`linalg.perturbed_key`): every cone is polarized for
ξ + εe₁ + ε²e₂ + … + εᵈe_d as ε → 0⁺, so any nonzero functional works, even
one constant on a ray.  The headline fact, that the contribution does not
depend on the triangulation, is checked by comparing two contributions with
`indicators.verify_identity`; this module adds the compatible (polar-dual)
construction and the exact positive/conic check behind the uniqueness
criterion: each contribution's restriction to the set where the perturbed
functional decreases must be the empty sum (`verify_identity_exact`).

Every polarized simple cone of the library, here and in `polar`, is built
from one SimpleConeFrame by one piece builder, frame_piece.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .indicators import (IndicatorSum, LocallyClosedPiece, VerificationReport,
                         ZPoly, piece, verify_identity_exact)
from .linalg import (IntVector, Vector, _scaled, dual_basis, frac, idot,
                     primitive, vec, vec_str)
from .polyhedra import DegenerateInput, Halfspace, Polytope
from .triangulation import (LiftedTriangulation, regular_triangulation,
                            seeded_heights)


def as_functional(xi: Sequence) -> IntVector:
    return primitive(vec(xi))


# ---------------------------------------------------------------------------
# Polarized simple cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleConeFrame:
    """A simple cone {x : normals[i]·x ≥ normals[i]·apex} and a functional.

    rays[i] is the edge of the cone off facet i alone: normals[j]·rays[i]
    is 0 for j ≠ i and positive for j = i.  signs[i] is the sign (±1) of
    the perturbed functional on rays[i], and index counts the −1s.  Without
    a functional signs is empty and index 0.
    """
    apex: Vector
    normals: tuple[IntVector, ...]
    rays: tuple[IntVector, ...]
    signs: tuple[int, ...]
    index: int


def simple_cone_frame(apex: Sequence, normals, xi: Optional[Sequence] = None
                      ) -> SimpleConeFrame:
    """Frame of the simple cone cut out by d independent normals at an apex.

    The rays and their signs are the ``dual_basis`` of the normals: the sign
    on a ray r is that of the perturbed functional, sign(ξ·r) whenever
    ξ·r ≠ 0.
    """
    normals = tuple(normals)
    _, rays, signs = dual_basis(normals, xi)
    return SimpleConeFrame(vec(apex), normals, rays, signs, signs.count(-1))


# What frame_piece does with facet i, normals[i]·x ≥ normals[i]·apex.
CLOSED = "closed"    # keep it
STRICT = "strict"    # keep it, strict
FLIPPED = "flipped"  # flip it to the strict opposite side
EQUAL = "equal"      # replace it by the hyperplane


def frame_piece(frame: SimpleConeFrame, pattern: Sequence[str]
                ) -> LocallyClosedPiece:
    """The piece a per-facet pattern cuts out of the frame's hyperplanes.

    Its witness is apex + Σ ±rays[i]: + on a kept facet, − on a flipped
    one, nothing on an equality.
    """
    q, (apex,) = _scaled([frame.apex])
    cons = []
    witness = list(apex)  # q times the witness
    for n, r, how in zip(frame.normals, frame.rays, pattern):
        c = Fraction(sum(map(mul, n, apex)), q)
        neg = tuple(-a for a in n)
        if how == EQUAL:
            cons += [Halfspace(n, c, False), Halfspace(neg, -c, False)]
        elif how == FLIPPED:
            cons.append(Halfspace(neg, -c, True))
            witness = [w - q * x for w, x in zip(witness, r)]
        else:
            cons.append(Halfspace(n, c, how == STRICT))
            witness = [w + q * x for w, x in zip(witness, r)]
    return piece(len(apex), cons, tuple(Fraction(w, q) for w in witness))


def polarized_piece(frame: SimpleConeFrame) -> LocallyClosedPiece:
    """Keep the facets of rays with sign +1, flip the others strict."""
    return frame_piece(frame, [CLOSED if s > 0 else FLIPPED
                               for s in frame.signs])


@dataclass(frozen=True)
class LocalContribution:
    """Signed sum of polarized simple cones at one vertex.

    cell_indices[i] is the number of flipped inequalities of the i-th cell;
    the piece order matches the cell order of the triangulation.
    """
    vertex_id: int
    vertex: Vector
    xi: IntVector
    cell_indices: tuple[int, ...]
    sum: IndicatorSum


def normal_cone_rays(p: Polytope, vid: int) -> tuple[IntVector, ...]:
    """Primitive inner normals of the facets through a vertex, in facet order."""
    return tuple(p.facets[i].normal for i in p.tight_facets(vid))


def vertex_triangulation(p: Polytope, vid: int,
                         heights: Optional[Sequence] = None,
                         seed: int = 0) -> LiftedTriangulation:
    """Regular triangulation of the normal cone at a vertex.

    Explicit heights lift the rays, the tight facet normals in facet order,
    and reproduce a chosen triangulation; otherwise heights are drawn from
    the seed.  Tied heights are refined by pulling the rays in facet order.
    """
    rays = normal_cone_rays(p, vid)
    if heights is None:
        heights = seeded_heights(len(rays), seed + 1009 * vid)
    return regular_triangulation(rays, heights)


def t_sigma(p: Polytope, vid: int, cell: Sequence[int],
            tri: LiftedTriangulation) -> LocallyClosedPiece:
    """Simple cone of a triangulation cell: the tangent-cone inequalities
    restricted to the cell's normals."""
    if tuple(cell) not in tri.cells:
        raise ValueError(f"{tuple(cell)} is not a cell of the triangulation")
    frame = simple_cone_frame(p.vertices[vid], (tri.rays[j] for j in cell))
    return frame_piece(frame, [CLOSED] * p.dim)


def local_contribution(p: Polytope, vid: int, tri: LiftedTriangulation,
                       xi: Sequence) -> LocalContribution:
    """Signed sum over triangulation cells of the polarized simple cones.

    Each cell is a simple-cone frame polarized by the perturbed signs of
    the functional on the cell's rays.
    """
    xi = as_functional(xi)
    v = p.vertices[vid]
    if set(tri.rays) != set(normal_cone_rays(p, vid)):
        raise ValueError("triangulation rays do not match the normal cone "
                         f"of vertex {vec_str(v)}")
    frames = [simple_cone_frame(v, (tri.rays[j] for j in cell), xi)
              for cell in tri.cells]
    terms = tuple((ZPoly.const((-1) ** f.index), polarized_piece(f))
                  for f in frames)
    return LocalContribution(vid, vec(v), xi, tuple(f.index for f in frames),
                             IndicatorSum(p.dim, terms))


def local_contributions(p: Polytope, xi: Sequence,
                        heights: Optional[dict[int, Sequence]] = None,
                        seed: int = 0) -> dict[int, LocalContribution]:
    """Local contribution of every vertex (simple ones are single cells)."""
    heights = heights or {}
    return {vid: local_contribution(
                p, vid, vertex_triangulation(p, vid, heights.get(vid), seed), xi)
            for vid in range(len(p.vertices))}


def nonsimple_decomposition(p: Polytope, xi: Sequence,
                            heights: Optional[dict[int, Sequence]] = None,
                            seed: int = 0) -> IndicatorSum:
    """Sum of all local contributions; evaluates to the polytope indicator."""
    return sum((lc.sum for lc in local_contributions(p, xi, heights,
                                                     seed).values()),
               IndicatorSum(p.dim, ()))


# ---------------------------------------------------------------------------
# Compatible triangulations from the polar dual
# ---------------------------------------------------------------------------

def compatible_from_dual(p: Polytope, dual_heights: Sequence
                         ) -> dict[int, LiftedTriangulation]:
    """Per-vertex triangulations induced by one lifting of the polar dual.

    The facet of the dual polytope corresponding to a vertex v lies in the
    hyperplane {y : v·y = 1}; lifting the dual vertices (one per facet of the
    polytope, which is where the heights live) and restricting the lower hull
    to that facet triangulates the normal cone of v.  Tight facet j's dual
    vertex is n_j/c_j, c_j = n_j·v < 0; up to central reflection, which keeps
    cells, lifting it by h_j lifts the ray n_j by h_j·(−c_j).
    """
    origin = tuple(Fraction(0) for _ in range(p.dim))
    if not p.contains_interior(origin):
        raise DegenerateInput("dual-compatible triangulations need the origin "
                              "inside; translate first (center_at_barycenter)")
    heights = [frac(h) for h in dual_heights]
    if len(heights) != len(p.facets):
        raise ValueError(f"need one dual height per facet "
                         f"({len(p.facets)}), got {len(heights)}")
    return {vid: regular_triangulation(
                normal_cone_rays(p, vid),
                [-heights[i] * p.facets[i].offset for i in p.tight_facets(vid)])
            for vid in range(len(p.vertices))}


def compatible_decomposition(p: Polytope, xi: Sequence, dual_heights: Sequence
                             ) -> IndicatorSum:
    """Decomposition from one regular triangulation of the polar dual."""
    tris = compatible_from_dual(p, dual_heights)
    return sum((local_contribution(p, vid, tri, xi).sum
                for vid, tri in tris.items()), IndicatorSum(p.dim, ()))


def seeded_dual_heights(p: Polytope, seed: int) -> list[Fraction]:
    """Dual heights drawn from the seed; ties are refined by pulling."""
    rng = random.Random(seed)
    return [Fraction(rng.randint(0, 8 * len(p.facets))) for _ in p.facets]


# ---------------------------------------------------------------------------
# Positive + conic check
# ---------------------------------------------------------------------------

def positive_conic_check(contribs: dict[int, LocalContribution] | Sequence,
                         xi: Sequence) -> list[VerificationReport]:
    """Decide that each local contribution is conic and positive at its
    vertex v: one exact report, positive@v<id>, per vertex.

    Conic: every constraint of every piece is tight at v, so each piece is
    a cone at v; a constraint that is not raises ValueError.  Positive: the
    contribution vanishes where perturbed_key(ξ, x − v) < (0, …, 0).  That
    set is the disjoint union of N₀ = {ξ·x < ξ·v} and, for k = 1..d,
    Nₖ = {ξ·x = ξ·v, x_j = v_j for j < k, x_k < v_k}; so the contribution
    is positive iff the sum of its restrictions to them is the empty sum,
    which `verify_identity_exact` decides.
    """
    xi = as_functional(xi)
    d = len(xi)
    axes = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    reports = []
    for lc in contribs.values() if isinstance(contribs, dict) else contribs:
        v, below, flat = lc.vertex, IndicatorSum(d, ()), []
        q, (a,) = _scaled([v])  # v = a/q
        for h in (h for _c, pc in lc.sum.terms for h in pc.constraints):
            if h.side(a, q):
                raise ValueError(
                    f"the contribution at vertex {lc.vertex_id} is not conic: "
                    f"{vec_str(h.normal)}·x {'>' if h.strict else '≥'} "
                    f"{h.offset} is not tight at {vec_str(v)}")
        for n in (xi, *axes):  # perturbed_key's entries: N₀, N₁, …, N_d
            c, neg = Fraction(idot(n, a), q), tuple(-x for x in n)
            below += lc.sum.restrict(flat + [Halfspace(neg, -c, True)])
            flat += [Halfspace(n, c), Halfspace(neg, -c)]
        reports.append(verify_identity_exact(
            below, IndicatorSum(d, ()), name=f"positive@v{lc.vertex_id}"))
    return reports
