"""Rational convex polytopes with dual representations.

A Polytope carries both its vertex list and its facet inequalities, plus the
full face lattice computed from vertex–facet incidence.  Everything is exact;
degenerate inputs (empty, unbounded, lower-dimensional) are rejected rather
than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd
from operator import mul, sub
from typing import Iterable, Optional, Sequence

from .linalg import (DimensionError, IntVector, Vector, _scaled, dot, frac,
                     idot, kernel_basis, primitive, rank, vadd, vec, vec_str,
                     vneg)


# Most subsets one cone_facets call may walk (the 5-cube's V-to-H: C(32, 5))
HULL_SUBSET_BUDGET = 10 ** 6


class DegenerateInput(ValueError):
    """Input polytope/cone is empty, unbounded, or not full-dimensional."""


@dataclass(frozen=True, order=True)
class Halfspace:
    """The set ``normal·x ≥ offset`` (``>`` when strict).

    The normal is a primitive integer vector; together with the offset this
    makes the representation of a rational halfspace unique.  Halfspaces
    sort by (normal, offset, strict), the canonical constraint order of a
    piece.
    """
    normal: IntVector
    offset: Fraction
    strict: bool = False

    def side(self, nums: Sequence[int], den: int) -> int:
        """The sign (1, 0 or -1) of normal·x − offset at x = nums/den, den > 0,
        from the integer normal·nums·q − p·den for the offset p/q."""
        v = (sum(map(mul, self.normal, nums)) * self.offset.denominator
             - self.offset.numerator * den)
        return (v > 0) - (v < 0)

    def complement(self) -> "Halfspace":
        """The complementary halfspace (closed flips to strict and back)."""
        return Halfspace(tuple(-a for a in self.normal), -self.offset,
                         not self.strict)


def halfspace(normal: Sequence, offset, strict: bool = False) -> Halfspace:
    """Canonical halfspace from a rational normal and offset."""
    den, (ints,) = _scaled([vec(normal)])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("halfspace: zero normal")
    # scaling by the positive rational den/g keeps the set
    return Halfspace(tuple(a // g for a in ints), frac(offset) * den / g, strict)


def binds(offset, strict: bool, old_offset, old_strict: bool) -> bool:
    """Whether a row replaces a parallel one: the larger offset wins, a strict
    row beats a closed one on a tie.  Both offsets may share a factor > 0."""
    return (offset, strict) > (old_offset, old_strict)


def binding(halfspaces: Iterable[Halfspace]) -> list[Halfspace]:
    """One halfspace per normal, the one that `binds`, in first-seen order."""
    best: dict[IntVector, Halfspace] = {}
    for h in halfspaces:
        old = best.get(h.normal)
        if old is None or binds(h.offset, h.strict, old.offset, old.strict):
            best[h.normal] = h
    return list(best.values())


@dataclass(frozen=True)
class Face:
    """A nonempty face, identified by its vertex set and tight facet set."""
    dim: int
    vertex_ids: tuple[int, ...]
    facet_ids: tuple[int, ...]


def cone_facets(gens: Sequence[IntVector], dim: int
                ) -> tuple[tuple[IntVector, frozenset[int]], ...]:
    """Facets of the cone spanned by integer vectors that span the space, as
    (primitive inner normal, indices of the generators on the facet).

    A (dim−1)-subset of the generators whose span is a hyperplane with every
    generator on one side gives that hyperplane's normal, pointing to the
    generators; facets come in the order of their first subset.  By polarity
    the normals are also the extreme rays of {y : g·y ≥ 0 for each g}, and
    g lies on a facet exactly when its inequality is tight at that ray.
    More than HULL_SUBSET_BUDGET subsets are refused before the walk.
    """
    subsets = comb(len(gens), dim - 1)
    if subsets > HULL_SUBSET_BUDGET:
        raise ValueError(f"the hull of {len(gens)} generators in dimension "
                         f"{dim} walks C({len(gens)}, {dim - 1}) = {subsets} "
                         f"subsets, over the budget of {HULL_SUBSET_BUDGET}")
    out: dict[IntVector, frozenset[int]] = {}
    for subset in combinations(gens, dim - 1):
        ker = kernel_basis(list(subset) or [(0,) * dim])
        if len(ker) != 1:
            continue
        h = primitive(ker[0])
        sides = [idot(h, g) for g in gens]
        if any(s < 0 for s in sides):
            if any(s > 0 for s in sides):
                continue
            h = tuple(-a for a in h)
        if h not in out:
            out[h] = frozenset(i for i, s in enumerate(sides) if s == 0)
    return tuple(out.items())


def irredundant(n: int, hull: Sequence[tuple], dim: int) -> list[int]:
    """The generators 0..n−1 of a dim-dimensional cone whose incident hull
    elements (element, generator indices on it) have rank dim − 1: the
    extreme rays if the hull lists facets, the facet rows if it lists rays."""
    return [i for i in range(n)
            if rank([h for h, on in hull if i in on]) == dim - 1]


def homogenized_rays(halfspaces: Sequence[Halfspace], dim: int) -> tuple:
    """(rays, facet rows) of {(x, t) : n·x ≥ c·t, t ≥ 0}, the normals n
    spanning: by polarity the facets of the cone over the rows (n, −c) and
    (0, …, 0, 1), each with the rows tight on it (row len(halfspaces) is
    t ≥ 0), and the rows that support a facet."""
    rows = [primitive(h.normal + (-h.offset,)) for h in halfspaces]
    rays = cone_facets(rows + [(0,) * dim + (1,)], dim + 1)
    return rays, irredundant(len(rows), rays, dim + 1)


# ---------------------------------------------------------------------------
# Polytope
# ---------------------------------------------------------------------------

class Polytope:
    """A full-dimensional bounded rational polytope.

    Immutable after construction.  ``faces`` lists every nonempty face
    (vertices up to the polytope itself) with its dimension, vertex set and
    tight facet set, sorted by (dim, vertex_ids): faces[vid] is vertex vid.
    """

    def __init__(self, dim: int, vertices: tuple[Vector, ...],
                 facets: tuple[Halfspace, ...], faces: tuple[Face, ...]):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self.faces = faces

    # -- queries ------------------------------------------------------------

    def tight_facets(self, vid: int) -> tuple[int, ...]:
        return self.faces[vid].facet_ids

    def contains_interior(self, x: Sequence) -> bool:
        den, (nums,) = _scaled([vec(x)])
        return all(h.side(nums, den) > 0 for h in self.facets)

    def vertex_edges(self, vid: int) -> tuple[tuple[IntVector, Face], ...]:
        """(primitive direction away from the vertex, edge) for each edge at
        it, in face order, from one walk over the edges."""
        return tuple(self._vertex_edges[vid])

    @cached_property
    def _ints(self) -> tuple[int, list[IntVector]]:
        """(q, the vertices times q), q their common denominator."""
        return _scaled(self.vertices)

    @cached_property
    def _vertex_edges(self) -> list[list[tuple[IntVector, Face]]]:
        ints, out = self._ints[1], [[] for _ in self.vertices]
        for e in (f for f in self.faces if f.dim == 1):
            if len(e.vertex_ids) != 2:
                raise AssertionError("edge without exactly two vertices")
            a, b = e.vertex_ids
            t = primitive(tuple(map(sub, ints[b], ints[a])))
            out[a].append((t, e))
            out[b].append((tuple(-x for x in t), e))
        return out

    def barycenter(self, face: Optional[Face] = None) -> Vector:
        """Average of the vertices of the polytope, or of one of its faces."""
        q, ints = self._ints
        ids = range(len(self.vertices)) if face is None else face.vertex_ids
        n = len(ids) * q
        return tuple(Fraction(sum(c), n) for c in zip(*(ints[i] for i in ids)))

    def bounding_box(self, inflate: int = 0) -> list[tuple[Fraction, Fraction]]:
        box = []
        for i in range(self.dim):
            vals = [v[i] for v in self.vertices]
            box.append((min(vals) - inflate, max(vals) + inflate))
        return box

    def translate(self, shift: Sequence) -> "Polytope":
        s = vec(shift)
        verts = tuple(vadd(v, s) for v in self.vertices)
        facets = tuple(Halfspace(h.normal, h.offset + dot(h.normal, s), h.strict)
                       for h in self.facets)
        return Polytope(self.dim, verts, facets, self.faces)

    def __repr__(self) -> str:
        return (f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, "
                f"facets={len(self.facets)}, faces={len(self.faces)})")


def _affine_rank(points: Sequence[Sequence]) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return rank([tuple(map(sub, p, p0)) for p in points[1:]])


def _face_lattice(nverts: int, tights: list[frozenset[int]],
                  ints: Sequence[IntVector]) -> tuple[Face, ...]:
    """All nonempty faces as intersections of facet vertex sets, plus the
    polytope itself; their ranks come from the vertices scaled to ``ints``."""
    all_ids = frozenset(range(nverts))
    found = {all_ids}
    queue = []
    for t in tights:
        if t and t not in found:
            found.add(t)
            queue.append(t)
    while queue:
        s = queue.pop()
        for t in tights:
            i = s & t
            if i and i not in found:
                found.add(i)
                queue.append(i)
    faces = []
    for s in found:
        fids = tuple(i for i, t in enumerate(tights) if s <= t)
        pts = [ints[i] for i in sorted(s)]
        faces.append(Face(_affine_rank(pts), tuple(sorted(s)), fids))
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    return tuple(faces)


def _build(dim: int, vertices: list[Vector], facets: list[Halfspace],
           tights: list[frozenset[int]]) -> Polytope:
    p = Polytope(dim, tuple(vertices), tuple(facets), ())
    p.faces = _face_lattice(len(vertices), tights, p._ints[1])
    if len([f for f in p.faces if f.dim == 0]) != len(vertices):
        raise AssertionError("face lattice lost a vertex")
    for v, f in zip(vertices, p.faces):
        if rank([facets[j].normal for j in f.facet_ids]) != dim:
            raise AssertionError(f"point {vec_str(v)} is not a vertex of "
                                 "the result")
    return p


def polytope_from_vertices(points: Iterable[Sequence]) -> Polytope:
    """Exact V-to-H conversion.

    The facets are those of the cone over the points lifted to height 1: a
    facet normal (n, −c) of that cone is the facet n·x ≥ c.  Redundant
    (non-extreme) input points are discarded.
    """
    pts: list[Vector] = []
    for p in points:
        w = vec(p)
        if w not in pts:
            pts.append(w)
    if not pts:
        raise DegenerateInput("no points given")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionError("points of mixed dimension")
    q, ints = _scaled(pts)
    if _affine_rank(ints) != dim:
        raise DegenerateInput("points do not affinely span the space; "
                              "the polytope would be lower-dimensional")
    lifted = [primitive(x + (q,)) for x in ints]
    facets = cone_facets(lifted, dim + 1)
    kept = irredundant(len(pts), facets, dim + 1)
    new_id = {i: k for k, i in enumerate(kept)}
    tights = [frozenset(new_id[i] for i in on if i in new_id)
              for _, on in facets]
    return _build(dim, [pts[i] for i in kept],
                  [halfspace(h[:-1], -h[-1]) for h, _ in facets], tights)


def polytope_from_halfspaces(halfspaces: Iterable[Halfspace]) -> Polytope:
    """Exact H-to-V conversion, read off ``homogenized_rays``.

    A ray (x, t) with t > 0 is the vertex x/t, and one with t = 0 is a
    recession direction.  Rejects unbounded, empty and lower-dimensional
    intersections.  Redundant inequalities (those not supporting a facet)
    are dropped.
    """
    hs: list[Halfspace] = []
    for h in halfspaces:
        if h.strict:
            raise ValueError("polytope facets must be closed halfspaces")
        c = halfspace(h.normal, h.offset)
        if c not in hs:
            hs.append(c)
    if not hs:
        raise DegenerateInput("no halfspaces given")
    dim = len(hs[0].normal)
    if any(len(h.normal) != dim for h in hs):
        raise DimensionError("normals of mixed dimension")
    if rank([h.normal for h in hs]) != dim:
        raise DegenerateInput("unbounded: facet normals do not span")
    rays, facets = homogenized_rays(hs, dim)
    for ray, _ in rays:
        if ray[-1] == 0:
            raise DegenerateInput(f"unbounded along direction {ray[:-1]}")
    if not rays:
        raise DegenerateInput("empty intersection")
    if rank([ray for ray, _ in rays]) != dim + 1:
        raise DegenerateInput("intersection is lower-dimensional")
    verts = [tuple(Fraction(a, ray[-1]) for a in ray[:-1]) for ray, _ in rays]
    tights = [frozenset(i for i, (_, on) in enumerate(rays) if j in on)
              for j in facets]
    return _build(dim, verts, [hs[j] for j in facets], tights)


def is_simple_vertex(p: Polytope, vid: int) -> bool:
    """True when exactly d facets meet the vertex (their normals have rank d
    at every vertex, as the polytope's construction checks)."""
    return len(p.tight_facets(vid)) == p.dim


def is_simple_polytope(p: Polytope) -> bool:
    return all(is_simple_vertex(p, i) for i in range(len(p.vertices)))


def center_at_barycenter(p: Polytope) -> tuple[Polytope, Vector]:
    """Translate so the vertex barycenter sits at the origin.

    Returns the shifted polytope and the applied shift s (new = old + s), so
    results can be mapped back by translating by -s.
    """
    s = vneg(p.barycenter())
    return p.translate(s), s
