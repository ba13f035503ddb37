import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conedec import polyhedra
from conedec.deform import normal_cone_rays
from conedec.genfunc import RationalGF, _piece_cone
from conedec.indicators import piece, tangent_cone_piece
from conedec.linalg import DimensionError, idot, kernel_basis, primitive, rank
from conedec.polar import is_generic
from conedec.polyhedra import (DegenerateInput, Halfspace, binding,
                               center_at_barycenter, cone_facets, halfspace,
                               is_simple_polytope,
                               is_simple_vertex, polytope_from_halfspaces,
                               polytope_from_vertices)

from helpers import (dot, edge_directions, edges, integer_rows, piece_gf,
                     polar_dual, vertex_index)
from indicator_oracle import barycenter as barycenter_oracle
from indicator_oracle import satisfied
from linalg_oracle import determinant, vsub

PYRAMID_VERTICES = [(0, 0, 0), (1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]


class TestFromVertices:
    def test_segment(self):
        p = polytope_from_vertices([(-3,), (5,)])
        assert {(h.normal, h.offset) for h in p.facets} == \
            {((1,), Fraction(-3)), ((-1,), Fraction(-5))}

    def test_pyramid_five_facets(self):
        p = polytope_from_vertices(PYRAMID_VERTICES)
        assert len(p.facets) == 5
        slanted = {h.normal for h in p.facets if h.offset == 0}
        assert slanted == {(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)}

    def test_unit_cube_six_facets_tight_on_four(self):
        pts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        p = polytope_from_vertices(pts)
        assert len(p.facets) == 6
        for i, h in enumerate(p.facets):
            tight = [v for v in p.vertices if dot(h.normal, v) == h.offset]
            assert len(tight) == 4

    def test_redundant_point_discarded(self):
        p = polytope_from_vertices([(0,), (2,), (1,)])
        assert len(p.vertices) == 2

    def test_lower_dimensional_rejected(self):
        with pytest.raises(DegenerateInput):
            polytope_from_vertices([(0, 0), (1, 1), (2, 2)])

    @pytest.mark.parametrize("points, error, message", [
        ([], DegenerateInput, "^no points given$"),
        ([(0, 0), (1,)], DimensionError, "^points of mixed dimension$"),
    ], ids=["no-points", "mixed-dimension"])
    def test_malformed_point_list_refused(self, points, error, message):
        with pytest.raises(error, match=message):
            polytope_from_vertices(points)

    def test_point_of_another_dimension_is_refused(self):
        tri = polytope_from_vertices([(0, 0), (4, 0), (0, 4)])
        assert tri.contains_interior((1, 1))
        for x in ((1, 1, 100), (1,)):
            with pytest.raises(DimensionError, match=f"^point of dimension "
                               f"{len(x)}, polytope of dimension 2$"):
                tri.contains_interior(x)

    def test_shift_of_another_dimension_is_refused(self):
        tri = polytope_from_vertices([(0, 0), (4, 0), (0, 4)])
        for s in ((1, 2, 3), (1,)):
            with pytest.raises(DimensionError, match=f"^shift of dimension "
                               f"{len(s)}, polytope of dimension 2$"):
                tri.translate(s)


class TestFromHalfspaces:
    def test_segment(self):
        p = polytope_from_halfspaces([halfspace((1,), -3), halfspace((-1,), -5)])
        assert set(p.vertices) == {(Fraction(-3),), (Fraction(5),)}

    def test_pyramid_roundtrip(self):
        p = polytope_from_vertices(PYRAMID_VERTICES)
        q = polytope_from_halfspaces(p.facets)
        assert set(q.vertices) == set(p.vertices)

    def test_octahedron_eight_halfspaces(self):
        hs = []
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    hs.append(halfspace((-sx, -sy, -sz), -1))
        p = polytope_from_halfspaces(hs)
        expect = {tuple(Fraction(s if j == i else 0) for j in range(3))
                  for i in range(3) for s in (1, -1)}
        assert set(p.vertices) == expect

    def test_unbounded_rejected(self):
        with pytest.raises(DegenerateInput):
            polytope_from_halfspaces([halfspace((1, 0), 0), halfspace((0, 1), 0)])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            polytope_from_halfspaces([halfspace((1,), 1), halfspace((-1,), 1)])

    @pytest.mark.parametrize("rows, error, message", [
        ([halfspace((1, 0), 0, strict=True), halfspace((0, 1), 0),
          halfspace((-1, -1), -1)], ValueError,
         "^polytope facets must be closed halfspaces$"),
        ([], DegenerateInput, "^no halfspaces given$"),
        ([halfspace((1, 0), 0), halfspace((-1, 0), -1)], DegenerateInput,
         "^unbounded: facet normals do not span$"),
        ([halfspace((1, 0), 0), halfspace((-1, 0), -1), halfspace((0, 1), 0),
          halfspace((0, -1), 0)], DegenerateInput,
         "^intersection is lower-dimensional$"),
    ], ids=["strict-row", "no-rows", "slab", "segment"])
    def test_malformed_rows_refused(self, rows, error, message):
        with pytest.raises(error, match=message):
            polytope_from_halfspaces(rows)

    def test_redundant_halfspace_dropped(self):
        p = polytope_from_halfspaces([
            halfspace((1,), 0), halfspace((-1,), -1), halfspace((1,), -10)])
        assert len(p.facets) == 2


def random_polytope(rng, dim, n_points, min_vertices=0):
    """Hull of seeded random integer points with at least min_vertices."""
    while True:
        pts = [tuple(rng.randint(-5, 5) for _ in range(dim))
               for _ in range(n_points)]
        try:
            p = polytope_from_vertices(pts)
        except DegenerateInput:
            continue
        if len(p.vertices) >= min_vertices:
            return p


class TestConeFacets:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_vertices_halfspaces_roundtrip(self, dim):
        rng = random.Random(dim)
        for _ in range(3):
            p = random_polytope(rng, dim, dim + 4)
            q = polytope_from_halfspaces(p.facets)
            assert set(q.vertices) == set(p.vertices)
            assert q.facets == p.facets

    @pytest.mark.parametrize("dim, n_rays", [(2, 2), (3, 3), (3, 5), (4, 4),
                                             (4, 6)])
    def test_polar_facets_are_the_extreme_rays(self, dim, n_rays):
        """The cone over a (dim−1)-polytope at height 1 is pointed, with one
        extreme ray per vertex; n_rays > dim makes it non-simplicial."""
        rng = random.Random(10 * dim + n_rays)
        for _ in range(3):
            base = random_polytope(rng, dim - 1, n_rays, n_rays)
            rays = [primitive(v + (1,)) for v in base.vertices]
            facets = cone_facets(rays, dim)
            normals = [n for n, _ in facets]
            dual = dict(cone_facets(normals, dim))
            assert set(dual) == set(rays)
            # polarity swaps incidence: ray i lies on facet j exactly when
            # normal j lies on the dual facet of ray i
            for j, (_, on) in enumerate(facets):
                assert on == {i for i, r in enumerate(rays) if j in dual[r]}

    def test_incidence_is_the_zero_sides(self, corpus):
        """Each facet's generator set equals a re-test of every generator,
        for the lifted points of V-inputs and the rows of H-inputs."""
        rng = random.Random(7)
        seeded = [random_polytope(rng, d, d + 4) for d in (2, 3, 4)
                  for _ in range(2)]
        inputs = []
        for p in [p for _, p in corpus] + seeded:
            inputs.append([primitive(v + (1,)) for v in p.vertices])
            rows = [primitive(h.normal + (-h.offset,)) for h in p.facets]
            inputs.append(rows + [(0,) * p.dim + (1,)])
        for gens in inputs:
            facets = cone_facets(gens, len(gens[0]))
            assert facets
            for n, on in facets:
                assert on == {i for i, g in enumerate(gens) if idot(n, g) == 0}

    def test_tight_facets_match_dot_products(self, corpus):
        shift = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2), Fraction(1))
        for entry, p in corpus:
            for q in (p, polytope_from_vertices(p.vertices),
                      polytope_from_halfspaces(p.facets),
                      p.translate(shift[:p.dim])):
                for vid, v in enumerate(q.vertices):
                    assert q.tight_facets(vid) == tuple(
                        i for i, h in enumerate(q.facets)
                        if dot(h.normal, v) == h.offset), entry.name

    def test_subset_budget_is_checked_before_the_walk(self, monkeypatch):
        """C(n, dim−1) subsets at the budget are walked; one more is
        refused with the count and the dimension named."""
        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]  # a pyramid
        monkeypatch.setattr(polyhedra, "HULL_SUBSET_BUDGET", comb(4, 2))
        assert len(cone_facets(rays, 3)) == 4
        monkeypatch.setattr(polyhedra, "HULL_SUBSET_BUDGET", comb(4, 2) - 1)
        with pytest.raises(ValueError, match=r"^the hull of 4 generators in "
                           r"dimension 3 walks C\(4, 2\) = 6 subsets, over "
                           r"the budget of 5$"):
            cone_facets(rays, 3)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_unbounded_names_a_recession_direction(self, dim):
        rng = random.Random(20 + dim)
        for _ in range(5):
            r0 = (0,) * dim
            while not any(r0):
                r0 = tuple(rng.randint(-3, 3) for _ in range(dim))
            normals = []
            while len(normals) < dim + 2 or rank(normals) < dim:
                n = tuple(rng.randint(-4, 4) for _ in range(dim))
                if any(n) and dot(n, r0) >= 0:
                    normals.append(n)
            hs = [halfspace(n, rng.randint(-5, 5)) for n in normals]
            with pytest.raises(DegenerateInput,
                               match="unbounded along direction") as exc:
                polytope_from_halfspaces(hs)
            text = re.search(r"direction \((.*)\)", str(exc.value)).group(1)
            r = tuple(int(x) for x in text.split(", "))
            assert any(r)
            assert all(dot(h.normal, r) >= 0 for h in hs)


class TestCorpusInvariants:
    def test_roundtrip_everywhere(self, corpus):
        for entry, p in corpus:
            q = polytope_from_halfspaces(p.facets)
            assert set(q.vertices) == set(p.vertices), entry.name

    def test_euler_relation(self, corpus):
        for entry, p in corpus:
            total = sum((-1) ** f.dim for f in p.faces)
            assert total == 1, entry.name

    def test_face_vertex_sets_match_tight_facets(self, corpus):
        for entry, p in corpus:
            for f in p.faces:
                if f.facet_ids:
                    tight = set(range(len(p.vertices)))
                    for i in f.facet_ids:
                        h = p.facets[i]
                        tight &= {j for j, v in enumerate(p.vertices)
                                  if dot(h.normal, v) == h.offset}
                    assert tight == set(f.vertex_ids), entry.name

    def test_translate_matches_the_hull_of_the_shifted_vertices(self, corpus):
        shift = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2), Fraction(1))
        for entry, p in corpus:
            for s in (shift[:p.dim], center_at_barycenter(p)[1]):
                moved = p.translate(s)
                hull = polytope_from_vertices(
                    [tuple(a + b for a, b in zip(v, s)) for v in p.vertices])
                assert moved.vertices == hull.vertices, entry.name
                assert moved.facets == hull.facets, entry.name
                assert moved.faces == hull.faces, entry.name

    def test_barycenter_is_the_fraction_mean(self, corpus):
        # from the vertices scaled once to integers; the oracle averages them
        # in Fraction, on the polytope and on each of its faces
        for entry, p in corpus:
            for q in (p, center_at_barycenter(p)[0]):
                for f in (None, *q.faces):
                    got = q.barycenter(f)
                    assert got == barycenter_oracle(q, f), entry.name
                    assert all(type(c) is Fraction for c in got), entry.name

    def test_simplicity_tags(self, corpus):
        for entry, p in corpus:
            assert is_simple_polytope(p) == entry.simple, entry.name
            for vid in range(len(p.vertices)):
                normals = [p.facets[j].normal for j in p.tight_facets(vid)]
                assert is_simple_vertex(p, vid) == (
                    len(normals) == p.dim and rank(normals) == p.dim), entry.name


def lineality(normals, dim):
    """Dimension of the lineality space of {y : n·y ≥ 0 for each normal}."""
    return dim - rank(normals)


def piece_lineality(pc):
    return lineality([h.normal for h in pc.constraints], pc.dim)


class TestTangentCone:
    def test_segment_endpoint(self):
        p = polytope_from_vertices([(-3,), (5,)])
        vid = vertex_index(p, (-3,))
        pc = tangent_cone_piece(p, p.faces[vid])
        assert pc.constraints == (Halfspace((1,), Fraction(-3)),)
        assert edge_directions(p, vid) == ((1,),)

    def test_whole_polytope_is_everything(self):
        p = polytope_from_vertices([(0, 0), (1, 0), (0, 1)])
        f = [f for f in p.faces if f.dim == 2][0]
        pc = tangent_cone_piece(p, f)
        assert pc.constraints == () and piece_lineality(pc) == 2

    def test_pyramid_apex_four_constraints(self, pyramid_poly):
        p = pyramid_poly
        vid = vertex_index(p, (0, 0, 0))
        pc = tangent_cone_piece(p, p.faces[vid])
        assert len(pc.constraints) == 4 and piece_lineality(pc) == 0
        gens = edge_directions(p, vid)
        assert len(gens) == 4
        for g in gens:
            assert all(dot(h.normal, g) >= 0 for h in pc.constraints)

    def test_simple_vertices_have_d_independent_generators(self, corpus):
        for entry, p in corpus:
            for vid in range(len(p.vertices)):
                if not is_simple_vertex(p, vid):
                    continue
                gens = edge_directions(p, vid)
                assert len(gens) == p.dim, entry.name
                assert determinant(gens) != 0, entry.name

    def test_edge_tangent_cone_has_lineality(self, pyramid_poly):
        e = edges(pyramid_poly)[0]
        assert piece_lineality(tangent_cone_piece(pyramid_poly, e)) == 1

    def test_halfplane_lineality(self):
        assert lineality([(1, 0)], 2) == 1
        assert lineality([], 2) == 2
        assert lineality([(1,)], 1) == 0
        # a piece whose closure holds a line has generating function zero
        assert piece_gf(piece(2, [halfspace((1, 0), 0)],
                              (0, 0))) == RationalGF(2)
        assert piece_gf(piece(2, (), (0, 0))) == RationalGF(2)
        assert piece_gf(piece(1, [halfspace((1,), 0)], (0,))) != RationalGF(1)


def fraction_affine_rank(points):
    """The oracle of every face's dim: the rank of the differences to the
    first point, taken in ``Fraction`` and scaled to integer rows."""
    return rank(integer_rows(vsub(q, points[0]) for q in points[1:])
                ) if points else 0


@st.composite
def rational_polytopes(draw):
    """Polytopes of dimension 2 to 4 with vertex denominators up to 6, so
    one vertex often mixes several denominators."""
    dim = draw(st.integers(2, 4))
    coord = st.fractions(-3, 3, max_denominator=6)
    n = draw(st.integers(dim + 1, dim + 3))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    try:
        return polytope_from_vertices(pts)
    except DegenerateInput:
        assume(False)


class TestIntegerFaceLattice:
    @given(rational_polytopes(), st.integers(0, 2 ** 32))
    @settings(max_examples=60, deadline=None)
    @example(polytope_from_vertices(  # denominators 2, 3 and 5 in one vertex
        [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), (2, 0, 0),
         (0, Fraction(5, 6), 0), (0, 0, Fraction(-4, 3))]), 0)
    def test_edges_and_face_ranks_match_fractions(self, p, seed):
        tight = [set(p.tight_facets(vid)) for vid in range(len(p.vertices))]
        for vid, v in enumerate(p.vertices):
            table = p.vertex_edges(vid)
            assert [e for _, e in table] == \
                [e for e in edges(p) if vid in e.vertex_ids]
            for t, e in table:
                assert vid in e.vertex_ids
                (w,) = set(e.vertex_ids) - {vid}
                assert t == primitive(vsub(p.vertices[w], v))
                assert e.facet_ids == tuple(sorted(tight[vid] & tight[w]))
        for f in p.faces:
            assert f.dim == fraction_affine_rank(
                [p.vertices[i] for i in f.vertex_ids])
        assert {e for vid in range(len(p.vertices))
                for _, e in p.vertex_edges(vid)} == set(edges(p))
        # is_generic is "ξ is nonconstant on every edge", taken in Fraction
        rng = random.Random(seed)
        u, w = rng.choice(edges(p)).vertex_ids
        tied = primitive(kernel_basis([vsub(p.vertices[w], p.vertices[u])])[0])
        for xi in (tuple(rng.randint(-5, 5) for _ in range(p.dim)), tied):
            assert is_generic(xi, p) == all(
                dot(xi, vsub(p.vertices[b], p.vertices[a])) != 0
                for e in edges(p) for a, b in [e.vertex_ids])
        assert not is_generic(tied, p)


def face_sets(p):
    """p's faces with vertex ids replaced by the vertices, so two vertex
    orders of one polytope compare equal."""
    return {(f.dim, frozenset(p.vertices[i] for i in f.vertex_ids),
             f.facet_ids) for f in p.faces}


class TestHomogenizedRays:
    @given(rational_polytopes())
    @settings(max_examples=40, deadline=None)
    def test_facets_give_back_the_polytope_and_its_vertex_cones(self, p):
        q = polytope_from_halfspaces(p.facets)
        assert set(q.vertices) == set(p.vertices)
        assert q.facets == p.facets
        assert face_sets(q) == face_sets(p)
        for vid, v in enumerate(p.vertices):
            apex, cells = _piece_cone(tangent_cone_piece(p, p.faces[vid]))
            assert apex == v
            assert {g for gens, _, _ in cells for g in gens} == \
                {t for t, _ in p.vertex_edges(vid)}

    def test_normals_of_mixed_dimension_are_refused(self):
        with pytest.raises(DimensionError, match="^normals of mixed "
                                                 "dimension$"):
            polytope_from_halfspaces([halfspace((1, 0), 0),
                                      halfspace((-1,), -1)])


class TestNormalCone:
    def test_pyramid_apex_rays(self, pyramid_poly):
        p = pyramid_poly
        rays = normal_cone_rays(p, vertex_index(p, (0, 0, 0)))
        assert set(rays) == {(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)}
        # pointed: the cone's own facet normals span
        assert lineality([n for n, _ in cone_facets(rays, 3)], 3) == 0

    def test_cube_corner_orthant(self):
        p = polytope_from_vertices(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        rays = normal_cone_rays(p, vertex_index(p, (0, 0, 0)))
        assert set(rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_pyramid_simple_vertex_three_rays(self, pyramid_poly):
        p = pyramid_poly
        assert len(normal_cone_rays(p, vertex_index(p, (1, 1, 1)))) == 3

    def test_normal_cones_tile_dual_space(self, corpus):
        rng = random.Random(4)
        for entry, p in corpus:
            if p.dim > 3:
                continue
            cones = [[n for n, _ in cone_facets(normal_cone_rays(p, v), p.dim)]
                     for v in range(len(p.vertices))]
            for _ in range(20):
                xi = tuple(rng.randint(-7, 7) for _ in range(p.dim))
                if not any(xi):
                    continue
                hits = [c for c in cones if all(dot(n, xi) >= 0 for n in c)]
                assert len(hits) >= 1, entry.name
                generic = all(
                    dot(xi, vsub(p.vertices[a], p.vertices[b])) != 0
                    for e in edges(p) for a, b in [e.vertex_ids])
                if generic:
                    assert len(hits) == 1, entry.name


class TestSimplicity:
    def test_pyramid(self, pyramid_poly):
        p = pyramid_poly
        assert not is_simple_vertex(p, vertex_index(p, (0, 0, 0)))
        assert is_simple_vertex(p, vertex_index(p, (1, 1, 1)))

    def test_simplex_all_simple(self):
        p = polytope_from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert is_simple_polytope(p)


class TestPolarDual:
    def test_cube_octahedron_pair(self):
        cube = polytope_from_vertices(
            [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        dual = polar_dual(cube)
        expect = {tuple(Fraction(s if j == i else 0) for j in range(3))
                  for i in range(3) for s in (1, -1)}
        assert set(dual.vertices) == expect
        back = polar_dual(dual)
        assert set(back.vertices) == set(cube.vertices)

    def test_origin_not_interior_rejected(self):
        p = polytope_from_vertices([(1,), (2,)])
        with pytest.raises(DegenerateInput):
            polar_dual(p)

    def test_shifted_pyramid_dual_five_vertices(self, pyramid_poly):
        shifted, _ = center_at_barycenter(pyramid_poly)
        dual = polar_dual(shifted)
        assert len(dual.vertices) == len(shifted.facets) == 5
        assert len(dual.facets) == len(shifted.vertices) == 5

    def test_involution_on_centered_corpus(self, corpus):
        origin3 = (Fraction(0),) * 3
        for entry, p in corpus:
            if p.dim > 3:
                continue
            centered, _ = center_at_barycenter(p)
            dual = polar_dual(centered)
            back = polar_dual(dual)
            assert set(back.vertices) == set(centered.vertices), entry.name


class TestHalfspaceCanonicalization:
    def test_primitive_scaling(self):
        h = halfspace((2, 4), 6)
        assert h.normal == (1, 2) and h.offset == 3

    def test_rational_normal(self):
        h = halfspace((Fraction(1, 2), Fraction(1, 3)), 1)
        assert h.normal == (3, 2) and h.offset == 6

    def test_complement(self):
        h = halfspace((1, 0), 2)
        c = h.complement()
        assert c.normal == (-1, 0) and c.offset == -2 and c.strict
        assert not satisfied(h, (1, 0)) and satisfied(c, (1, 0))
        assert satisfied(h, (2, 0)) and not satisfied(c, (2, 0))

    def test_zero_normal_rejected(self):
        for normal in ((0, Fraction(0)), (0, 0)):
            with pytest.raises(ValueError, match="zero normal"):
                halfspace(normal, 1)

    def test_int_and_fraction_normals_agree(self):
        for normal in ((2, -4), (-6, 3, 9), (0, 5)):
            for offset in (6, Fraction(1, 3), "-7/2"):
                h = halfspace(normal, offset)
                assert h == halfspace(tuple(map(Fraction, normal)), offset)
                assert type(h.offset) is Fraction


class TestBinding:
    def test_parallel_rows_collapse_in_first_appearance_order(self):
        y1, x1 = halfspace((0, 1), 1), halfspace((1, 0), 1)
        x2 = halfspace((2, 0), 1)
        # 2x ≥ 1 is x ≥ 1/2, weaker than x ≥ 1, whichever comes first
        assert binding([y1, x2, x1]) == [y1, x1]
        assert binding([x1, y1, x2]) == [x1, y1]

    def test_strict_beats_closed_on_a_tie(self):
        closed, strict = halfspace((1,), 1), halfspace((1,), 1, True)
        assert binding([closed, strict]) == [strict]
        assert binding([strict, closed]) == [strict]

    def test_opposite_normals_are_kept(self):
        h = halfspace((1, 1), 0)
        assert binding([h, h.complement(), h]) == [h, h.complement()]
