"""Polarized tangent cones and the polar decomposition of simple polytopes.

Given a nonzero linear functional, each vertex cone of a simple polytope is
"polarized": edge directions on which the functional decreases get flipped
and their facets turned strict.  Ties are broken as in `deform`: the
functional is perturbed to ξ + εe₁ + … + εᵈe_d, so an edge on which ξ is
constant is flipped when its first nonzero coordinate is negative.  The
signed sum of the polarized cones over all vertices is the indicator
function of the polytope; a weighted variant refines this face by face.
A simple vertex is the one-cell case of the non-simple construction in
`deform`, so the plain decomposition is that construction restricted to
simple polytopes, and every cone here is built from the same simple-cone
frame.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .deform import (CLOSED, EQUAL, FLIPPED, STRICT, SimpleConeFrame,
                     as_functional, frame_piece, nonsimple_decomposition,
                     normal_cone_rays, polarized_piece, simple_cone_frame)
from .indicators import (IndicatorSum, LocallyClosedPiece, ZPoly,
                         tangent_cone_piece, whole_space_piece)
from .linalg import DimensionError, dual_basis, idot, perturbed_key, vec_str
from .polyhedra import Polytope, is_simple_polytope, is_simple_vertex


class SimplicityError(ValueError):
    """A vertex is not simple; use the virtual-deformation machinery instead."""


def is_generic(xi: Sequence, p: Polytope) -> bool:
    """True when the functional is nonconstant on every edge."""
    if len(xi) != p.dim:
        raise DimensionError(f"functional {vec_str(xi)} in dimension {p.dim}")
    return all(idot(xi, t) != 0 for vid in range(len(p.vertices))
               for t, _ in p.vertex_edges(vid))


def polarization(p: Polytope, vid: int, xi: Sequence) -> SimpleConeFrame:
    """Frame of the tangent cone at a simple vertex, checked against its edges.

    Each edge direction must leave exactly one tight facet and be that
    facet's ray, so the frame's signs are the signs of the perturbed
    functional on the edges.
    """
    if not is_simple_vertex(p, vid):
        raise SimplicityError(f"vertex {vec_str(p.vertices[vid])} is not simple")
    xi = as_functional(xi)
    v = p.vertices[vid]
    frame = simple_cone_frame(v, normal_cone_rays(p, vid), xi)
    dirs = [t for t, _ in p.vertex_edges(vid)]
    if len(dirs) != p.dim:
        raise SimplicityError(f"vertex {vec_str(v)} has {len(dirs)} edges "
                              f"in dim {p.dim}")
    paired = set()
    for t in dirs:
        hits = [i for i, n in enumerate(frame.normals) if idot(n, t) != 0]
        if len(hits) != 1 or frame.rays[hits[0]] != t:
            raise AssertionError(f"edge direction {t} at vertex {vec_str(v)} "
                                 "is not the ray off a single tight facet")
        paired.add(hits[0])
    if len(paired) != p.dim:
        raise AssertionError("edge/facet pairing incomplete")
    return frame


def polarized_tangent_cone(p: Polytope, vid: int, xi: Sequence
                           ) -> LocallyClosedPiece:
    """Locally closed polarized vertex cone.

    Built twice from the vertex frame, once from the flipped facet
    inequalities and once as the cone over the flipped edge directions with
    the facets opposite flipped edges strict; the two constructions are
    asserted identical.
    """
    frame = polarization(p, vid, xi)
    by_facets = polarized_piece(frame)
    gens = [r if s > 0 else tuple(-x for x in r)
            for r, s in zip(frame.rays, frame.signs)]
    by_edges = frame_piece(
        simple_cone_frame(frame.apex, dual_basis(gens)[1]),
        [CLOSED if s > 0 else STRICT for s in frame.signs])
    if by_edges != by_facets:
        raise AssertionError("polarized cone constructions disagree: "
                             f"{by_facets} vs {by_edges}")
    return by_facets


def lv_decomposition(p: Polytope, xi: Sequence) -> IndicatorSum:
    """Signed sum of polarized vertex cones equal to the polytope indicator.

    Every vertex of a simple polytope is a one-cell local contribution, so
    this is the non-simple decomposition restricted to simple polytopes.
    """
    if not is_simple_polytope(p):
        raise SimplicityError("polytope has a non-simple vertex; "
                              "use 'nonsimple' instead")
    return nonsimple_decomposition(p, xi)


def weighted_polarized_piece_value(pol: SimpleConeFrame,
                                   equality_set: Sequence[int]) -> ZPoly:
    """z^{k+}·(1-z)^{k-} for a face of the closed polarized cone.

    k+ counts equalities on facets whose ray has sign +1, k- the rest.
    """
    k_plus = sum(1 for i in equality_set if pol.signs[i] > 0)
    k_minus = len(equality_set) - k_plus
    return ZPoly.z_power(k_plus) * ZPoly.one_minus_z_power(k_minus)


def weighted_lv_decomposition(p: Polytope, xi: Sequence) -> IndicatorSum:
    """Weighted polar decomposition.

    Each vertex contributes one piece per face of its closed polarized cone
    (the relative interiors partition the closure), weighted by
    z^{k+}(1-z)^{k-} and the vertex sign.  Evaluates pointwise to the
    weighted indicator of the polytope; z := 1 recovers the plain
    decomposition, z := 0 the interior one.
    """
    if not is_simple_polytope(p):
        raise SimplicityError("polytope has a non-simple vertex")
    terms = []
    for vid in range(len(p.vertices)):
        pol = polarization(p, vid, xi)
        sign = ZPoly.const((-1) ** pol.index)
        interior = [STRICT if s > 0 else FLIPPED for s in pol.signs]
        for r in range(p.dim + 1):
            for eq_set in combinations(range(p.dim), r):
                pattern = [EQUAL if i in eq_set else how
                           for i, how in enumerate(interior)]
                w = weighted_polarized_piece_value(pol, eq_set)
                terms.append((sign * w, frame_piece(pol, pattern)))
    return IndicatorSum(p.dim, tuple(terms))


def rearrange_for_vertex(p: Polytope, vid: int, xi: Sequence
                         ) -> tuple[IndicatorSum, IndicatorSum]:
    """Both sides of the vertex-grouping identity.

    The signed polarized cone at a vertex equals the alternating sum of the
    tangent cones of exactly the faces whose maximum of the functional sits
    at that vertex.  Vertices are compared in the perturbed functional's
    order, by perturbed_key.
    """
    pol = polarization(p, vid, xi)
    lhs = IndicatorSum(p.dim, ((ZPoly.const((-1) ** pol.index),
                                polarized_tangent_cone(p, vid, xi)),))

    def key(w):
        return perturbed_key(xi, p.vertices[w])

    return lhs, IndicatorSum(p.dim, tuple(
        (ZPoly.const((-1) ** f.dim), tangent_cone_piece(p, f))
        for f in p.faces if max(f.vertex_ids, key=key) == vid))


def partition_pieces(p: Polytope, vid: int) -> list[LocallyClosedPiece]:
    """The 2^d sign-pattern pieces of the facet hyperplanes at a simple vertex."""
    if not is_simple_vertex(p, vid):
        raise SimplicityError(f"vertex {vec_str(p.vertices[vid])} is not simple")
    frame = simple_cone_frame(p.vertices[vid], normal_cone_rays(p, vid))
    return [frame_piece(frame, [FLIPPED if mask & (1 << i) else CLOSED
                                for i in range(p.dim)])
            for mask in range(2 ** p.dim)]


def partition_identity(p: Polytope, vid: int
                       ) -> tuple[IndicatorSum, IndicatorSum]:
    """Both sides of the tiling identity at a vertex: the plain sum of the
    sign-pattern pieces, and the whole space."""
    lhs = IndicatorSum(p.dim, tuple((ZPoly.const(1), pc)
                                    for pc in partition_pieces(p, vid)))
    rhs = IndicatorSum(p.dim, ((ZPoly.const(1), whole_space_piece(p.dim)),))
    return lhs, rhs
