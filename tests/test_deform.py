from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conedec.triangulation as triangulation
import positive_conic_oracle
import triangulation_oracle
from conedec.cli import IDENTITIES, InputError, build_parser
from conedec.corpus import build_corpus
from conedec.deform import (CLOSED, EQUAL, FLIPPED, STRICT, LocalContribution,
                            compatible_decomposition,
                            compatible_from_dual, frame_piece,
                            local_contribution,
                            local_contributions, nonsimple_decomposition,
                            normal_cone_rays, positive_conic_check,
                            seeded_dual_heights, simple_cone_frame, t_sigma,
                            vertex_triangulation)
from conedec.indicators import (ONE, IndicatorSum, default_box, grid_points,
                                indicator_of_polytope, tangent_cone_piece,
                                verify_identity, verify_identity_exact)
from conedec.linalg import dot, kernel_basis, perturbed_key, primitive, rank
from conedec.polar import (SimplicityError, lv_decomposition,
                           rearrange_for_vertex)
from conedec.polyhedra import (DegenerateInput, center_at_barycenter,
                               cone_facets, is_simple_vertex,
                               polytope_from_vertices)
from conedec.triangulation import (half_open_inverses, pulling_triangulation,
                                   regular_triangulation, seeded_heights)

from conftest import seeded_generic_functionals
from helpers import edges, flip_one_constraint, vertex_index
from indicator_oracle import contains as oracle_contains
from indicator_oracle import evaluate, satisfied
from linalg_oracle import determinant, mat_inverse, mat_vec, vsub

APEX_RAYS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
BOX6 = [(Fraction(-6), Fraction(6))] * 3


def assert_half_open_cells_tile(rays, cells, coeffs):
    """Every nonzero Σ c_j·r_j with each c_j in `coeffs` lies in exactly one
    half-open cell, read from its coordinates in the cell's rays."""
    flags = [f for *_, f in half_open_inverses(rays, cells)]
    inverses = [mat_inverse(list(zip(*(rays[j] for j in cell))))
                for cell in cells]
    for cs in product(coeffs, repeat=len(rays)):
        if not any(cs):
            continue
        y = tuple(sum(c * r[i] for c, r in zip(cs, rays))
                  for i in range(len(rays[0])))
        hits = sum(all(l > 0 if f else l >= 0
                       for l, f in zip(mat_vec(inv, y), fl))
                   for inv, fl in zip(inverses, flags))
        assert hits == 1, y


def pyramid_heights(p, ray_heights):
    """Translate heights given in APEX_RAYS order to the polytope's facet order."""
    apex = vertex_index(p, (0, 0, 0))
    rays = normal_cone_rays(p, apex)
    return [ray_heights[APEX_RAYS.index(r)] for r in rays]


def make_octahedron():
    return polytope_from_vertices(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])


class TestRegularTriangulation:
    def test_two_height_choices_give_the_two_triangulations(self):
        t1 = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
        assert t1.cells == ((0, 2, 3), (1, 2, 3))
        t2 = regular_triangulation(APEX_RAYS, [0, 0, 1, 1])
        assert t2.cells == ((0, 1, 2), (0, 1, 3))

    def test_certificates_verify(self):
        for heights in ([1, 1, 0, 0], [0, 0, 1, 1], [5, 1, 2, 0]):
            tri = regular_triangulation(APEX_RAYS, heights)
            assert triangulation_oracle.verify_certificates(tri)

    def test_simplicial_cone_single_cell(self):
        tri = regular_triangulation([(1, 0), (1, 2)], [3, 7])
        assert tri.cells == ((0, 1),)

    def test_tied_heights_pulled_in_index_order(self):
        # one flat lower face: ray 0 is joined to the edges of the square
        # that miss it, (1, 2) and (1, 3)
        tri = regular_triangulation(APEX_RAYS, [1, 1, 1, 1])
        assert tri.cells == ((0, 1, 2), (0, 1, 3))
        assert triangulation_oracle.verify_certificates(tri)

    def test_tied_face_with_a_tied_facet(self):
        # a 4-d pyramid over APEX_RAYS' square, lifted flat: its square
        # facet is pulled too, from the cone's own facets
        rays = [(0, 0, 1, 1)] + [(x, y, 0, 1) for x, y, _ in APEX_RAYS]
        tri = regular_triangulation(rays, [0] * 5)
        assert tri.cells == ((0, 1, 2, 3), (0, 1, 2, 4))
        assert tri.cells == triangulation_oracle.regular_triangulation(
            rays, [0] * 5).cells
        assert triangulation_oracle.verify_certificates(tri)

    def test_point_on_a_hyperplane_that_is_no_lower_face(self,
                                                         pentagon_cone_poly):
        # lifted ray 0 lies in the span of lifted rays (2, 3, 4), which
        # another lifted ray lies below, so that span bounds no lower face:
        # heights 1, 0, 1, 1, 1 on the slice of w = e₃, times w·r
        rays = normal_cone_rays(pentagon_cone_poly, 0)
        assert triangulation_oracle.ray_heights(
            rays, [1, 0, 1, 1, 1], (0, 0, 1)) == [1, 0, 3, 4, 4]
        tri = regular_triangulation(rays, [1, 0, 3, 4, 4])
        assert tri.cells == ((0, 1, 2), (1, 2, 3), (1, 3, 4))
        assert triangulation_oracle.verify_certificates(tri)

    def test_non_extreme_ray_rejected(self):
        # (-1, 1) lies between the other two rays and lifts above them
        with pytest.raises(DegenerateInput,
                           match=r"ray \(-1, 1\) is not an extreme ray"):
            regular_triangulation([(0, 1), (-1, 1), (-2, 1)], [0, 1, 0])

    def test_missing_extreme_ray_is_a_broken_invariant(self, monkeypatch):
        # the lifted hull forgets ray 0 on its facets, the lower one too;
        # its normals, and so the pointedness they show, stay right
        real = triangulation.cone_facets

        def without_ray_0(gens, dim):
            facets = real(gens, dim)
            if dim == 3:
                return tuple((n, on - {0}) for n, on in facets)
            return facets
        monkeypatch.setattr(triangulation, "cone_facets", without_ray_0)
        with pytest.raises(AssertionError, match="missing from every cell"):
            regular_triangulation([(0, 1), (-1, 1), (-2, 1)], [0, -1, 0])

    def test_non_pointed_rejected(self):
        with pytest.raises(DegenerateInput, match="^cone is not pointed$"):
            regular_triangulation([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 2, 3, 4])

    @pytest.mark.parametrize("rays, heights", [
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, 2, 3, 4]),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [-1, -2, -3, -4]),
        ([(1, 0), (-1, 0), (0, 1), (1, 1)], [1, -1, 0, 5]),
        ([(1, 0), (-1, 0), (0, 1)], [1, -1, 0]),
        ([(1, 0), (-1, 0), (0, 1), (0, -1)], [1, -1, 2, -2]),
    ], ids=["vertical-up", "vertical-down", "line", "flat-half-plane",
            "flat-plane"])
    def test_non_pointed_rejected_as_the_search_does(self, rays, heights):
        # the lifted cone holds an upward or a downward vertical ray, or a
        # line; or the heights are linear and the cone itself holds a line
        with pytest.raises(DegenerateInput, match="^cone is not pointed$"):
            regular_triangulation(rays, heights)
        with pytest.raises(DegenerateInput, match="^cone is not pointed$"):
            triangulation_oracle.regular_triangulation(rays, heights)

    def test_pointed_cone_with_linear_heights_is_pulled(self):
        # heights (1, 2, 3)·r lift APEX_RAYS flat: one lower face, pulled
        heights = [dot((1, 2, 3), r) for r in APEX_RAYS]
        assert heights == [4, 2, 5, 1]
        tri = regular_triangulation(APEX_RAYS, heights)
        assert tri.cells == ((0, 1, 2), (0, 1, 3))
        assert tri.cells == triangulation_oracle.regular_triangulation(
            APEX_RAYS, heights).cells
        assert triangulation_oracle.verify_certificates(tri)

    def test_cells_tile_the_cone(self):
        tri = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
        assert_half_open_cells_tile(tri.rays, tri.cells, range(5))

    def test_tied_lower_face_is_pulled_in_the_lifted_hull(self, monkeypatch):
        # the cone over a 3-cube with one corner raised: seven tied rays
        # span one lower face, pulled from the lifted cone's facets alone
        rays = [(*c, 1) for c in product((-1, 1), repeat=3)]
        heights = [1] + [0] * 7
        calls = []
        real = triangulation.cone_facets

        def counted(gens, dim):
            calls.append(dim)
            return real(gens, dim)
        monkeypatch.setattr(triangulation, "cone_facets", counted)
        # the oracle's slice normal e₄ is 1 on every ray: the same heights
        tri = regular_triangulation(rays, heights)
        assert calls == [5]
        oracle = triangulation_oracle.regular_triangulation(
            rays, heights, (0, 0, 0, 1))
        assert tri.cells == oracle.cells and len(tri.cells) > 2
        assert triangulation_oracle.verify_certificates(tri)

    def test_tie_on_a_wall_is_broken_by_the_perturbed_point(self):
        # q = Σ 2^j·r_j = (-3, 3, 14) lies on the shared wall, normal
        # (1, 1, 0); q + εe₁ + ε²e₂ + ε³e₃ lies on its positive side
        rays = ((-1, 1, 0), (-1, 3, 3), (0, -1, 0), (0, 0, 1))
        cells = ((0, 1, 3), (0, 2, 3))
        flags = [f for *_, f in half_open_inverses(rays, cells)]
        assert flags == [(False, False, False), (False, True, False)]
        assert_half_open_cells_tile(rays, cells, range(4))


@st.composite
def lifted_cones(draw):
    """Pointed cones (last coordinate ≥ 1 on every ray) with heights from a
    small range, so that non-generic heights occur, and a slice normal for
    the oracle that is left to its search, is the last axis, or is
    skewed."""
    dim = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-3, 3)] * (dim - 1), st.integers(1, 3))
    rays = draw(st.lists(ray, min_size=max(3, dim), max_size=8,
                         unique_by=primitive))
    heights = draw(st.lists(st.integers(0, 3), min_size=len(rays),
                            max_size=len(rays)))
    w = draw(st.sampled_from([None, (0,) * (dim - 1) + (1,),
                              (1,) + (0,) * (dim - 2) + (4,)]))
    return rays, heights, w


def slice_normal(rays, w):
    """The drawn slice normal, or the oracle's search's."""
    if w is None:
        w = triangulation_oracle.positive_functional(
            [primitive(r) for r in rays], len(rays[0]))
    return w


def triangulation_outcome(fn, *args):
    try:
        t = fn(*args)
    except (DegenerateInput, ValueError,
            AssertionError) as exc:  # a ray inside the cone can be unused
        return type(exc).__name__, str(exc)
    return t.rays, t.cells, triangulation_oracle.certificates(t)


def on_the_slice(outcome, w):
    """A triangulation's outcome with heights on the rays, as the oracle's
    for the same cells with heights on the slice of w: a certificate's
    ε^(j+1)-coefficient scales by w·r_j, its constant term stays."""
    if isinstance(outcome[0], str):
        return outcome
    rays, cells, certs = outcome
    scales = [1] + [dot(w, r) for r in rays]
    return rays, cells, tuple(
        None if g is None else tuple(tuple(s * x for x in gc)
                                     for s, gc in zip(scales, g))
        for g in certs)


@given(lifted_cones())
@settings(max_examples=300, deadline=None)
def test_triangulation_matches_subset_oracle(cone):
    """Heights h on the rays give the cells of the subset-loop oracle for
    heights h_r/(w·r) on the slice of w, and its certificates up to the
    scaling of their ε-terms, tied heights included.  A ray that is not
    extreme and lifts above the lower hull is a broken invariant to the
    oracle and bad input to the program."""
    rays, heights, w = cone
    w = slice_normal(rays, w)
    oracle = triangulation_oracle.regular_triangulation
    ours = triangulation_outcome(regular_triangulation, rays, heights)
    theirs = triangulation_outcome(
        oracle, rays,
        triangulation_oracle.slice_heights(rays, heights, w), w)
    if theirs == ("AssertionError", "a ray is missing from every cell"):
        assert ours[0] == "DegenerateInput"
        assert "is not an extreme ray" in ours[1]
    else:
        assert on_the_slice(ours, w) == theirs


@given(lifted_cones())
@settings(max_examples=100, deadline=None)
def test_half_open_cells_tile_triangulated_cones(cone):
    """The open facets picked by the perturbed point tile every cone that
    the triangulation accepts, whether or not q lies on a wall."""
    rays, heights, w = cone
    try:
        tri = regular_triangulation(rays, triangulation_oracle.ray_heights(
            rays, heights, slice_normal(rays, w)))
    except (DegenerateInput, ValueError):
        return
    dim = len(tri.rays[0])
    pulled = pulling_triangulation(
        range(len(tri.rays)), dim,
        [on for _, on in cone_facets(tri.rays, dim)])
    # coefficients 0..3 on at most four rays, 0..1 on more: ≤ 256 points
    for cells in (tri.cells, pulled):
        assert_half_open_cells_tile(tri.rays, cells,
                                    range(4 if len(tri.rays) <= 4 else 2))


# a 6-d cone in which a facet meets a 5-d face in a 3-d face of 4 rays:
# no facet of that face, though it has as many rays as a simplicial one
@example(([(-1, -2, -2, 0, 1, 1), (-1, -1, -1, -2, 0, 1), (-1, -1, 0, 0, 1, 1),
           (0, -1, 2, -2, 2, 1), (0, 0, -1, -2, 0, 1), (0, 1, -1, -2, -1, 1),
           (1, 2, -1, -2, -1, 1), (2, 1, 0, 2, -1, 1), (2, 2, 0, 0, 1, 1)],
          [0] * 9, None))
@given(lifted_cones())
@settings(max_examples=200, deadline=None)
def test_pulling_is_the_zero_height_triangulation(cone):
    """Pulling in index order is the regular triangulation for heights
    −(ε, ε², …): the subset oracle's cells at zero heights.  A ray that is
    not extreme and lifts above them is in no pulled cell."""
    rays, _, w = cone
    rays = [primitive(r) for r in rays]
    dim = len(rays[0])
    assume(rank(rays) == dim)
    pulled = pulling_triangulation(range(len(rays)), dim,
                                   [on for _, on in cone_facets(rays, dim)])
    try:
        cells = triangulation_oracle.regular_triangulation(
            rays, [0] * len(rays), w).cells
    except AssertionError:  # the oracle wants every ray in a cell
        assert set(range(len(rays))).difference(*pulled)
        return
    assert pulled == list(cells)


class TestLocalContribution:
    def test_reference_indices_first_split(self, pyramid_poly):
        tri = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
        lc = local_contribution(pyramid_poly, 0, tri, (4, 2, 0))
        assert lc.cell_indices == (2, 1)

    def test_reference_indices_second_split(self, pyramid_poly):
        tri = regular_triangulation(APEX_RAYS, [0, 0, 1, 1])
        lc = local_contribution(pyramid_poly, 0, tri, (4, 2, 0))
        assert lc.cell_indices == (1, 2)

    def test_value_at_probe_point(self, pyramid_poly):
        for heights in ([1, 1, 0, 0], [0, 0, 1, 1]):
            tri = regular_triangulation(APEX_RAYS, heights)
            lc = local_contribution(pyramid_poly, 0, tri, (4, 2, 0))
            assert evaluate(lc.sum, (3, 0, 0)).at_one() == -1

    def test_non_generic_functional_matches_other_triangulation(
            self, pyramid_poly):
        # (0, 0, 1) is constant on a ray of a cell of each triangulation;
        # the perturbed signs still give one contribution for both
        t1 = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
        t2 = regular_triangulation(APEX_RAYS, [0, 0, 1, 1])
        for t in (t1, t2):
            frame = simple_cone_frame((0, 0, 0),
                                      (t.rays[j] for j in t.cells[0]))
            assert any(dot((0, 0, 1), r) == 0 for r in frame.rays)
        rep = verify_identity_exact(*contribution_sums(pyramid_poly, 0,
                                                       (0, 0, 1), t1, t2))
        assert rep.success, rep.counterexample

    def test_wrong_rays_rejected(self, pyramid_poly):
        tri = regular_triangulation([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 2, 3])
        with pytest.raises(ValueError):
            local_contribution(pyramid_poly, 0, tri, (4, 2, 0))


@st.composite
def patterned_frames(draw):
    """A simple cone's frame at a rational apex and a pattern per facet."""
    dim = draw(st.integers(1, 4))
    normals = draw(st.lists(st.lists(st.integers(-4, 4), min_size=dim,
                                     max_size=dim).filter(any).map(primitive),
                            min_size=dim, max_size=dim))
    assume(rank(normals) == dim)
    apex = draw(st.lists(st.builds(Fraction, st.integers(-30, 30),
                                   st.integers(1, 12)),
                         min_size=dim, max_size=dim))
    pattern = draw(st.lists(st.sampled_from((CLOSED, STRICT, FLIPPED, EQUAL)),
                            min_size=dim, max_size=dim))
    return simple_cone_frame(apex, normals), pattern


@given(patterned_frames())
@settings(max_examples=150, deadline=None)
def test_frame_piece_witness_lies_in_its_piece(case):
    # frame_piece builds its witness and offsets from the apex scaled to
    # integers; the Fraction witness apex + Σ ±rays[i] lies in the piece,
    # and every constraint's hyperplane passes through the apex
    frame, pattern = case
    pc = frame_piece(frame, pattern)
    w = frame.apex
    for r, how in zip(frame.rays, pattern):
        sign = {CLOSED: 1, STRICT: 1, FLIPPED: -1, EQUAL: 0}[how]
        w = tuple(a + sign * b for a, b in zip(w, r))
    assert oracle_contains(pc, w)
    assert all(dot(h.normal, frame.apex) == h.offset for h in pc.constraints)
    assert len(pc.constraints) == len(pattern) + pattern.count(EQUAL)


class TestTSigma:
    def test_cells_are_simple_cones(self, pyramid_poly):
        tri = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
        c = t_sigma(pyramid_poly, 0, tri.cells[0], tri)
        assert len(c.constraints) == 3
        assert determinant([h.normal for h in c.constraints]) != 0

    def test_intersection_is_tangent_cone(self, pyramid_poly):
        p = pyramid_poly
        tri = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
        cones = [t_sigma(p, 0, cell, tri) for cell in tri.cells]
        tangent = [p.facets[i] for i in p.tight_facets(0)]
        for nums, den in grid_points(BOX6, Fraction(1)):
            x = tuple(Fraction(n, den) for n in nums)
            lhs = all(c.contains(x) for c in cones)
            rhs = all(satisfied(h, x) for h in tangent)
            assert lhs == rhs, x

    def test_simple_vertex_single_cell_is_tangent_cone(self, pyramid_poly):
        p = pyramid_poly
        vid = vertex_index(p, (1, 1, 1))
        tri = vertex_triangulation(p, vid, seed=0)
        assert len(tri.cells) == 1
        c = t_sigma(p, vid, tri.cells[0], tri)
        assert set(h.normal for h in c.constraints) == \
            set(p.facets[i].normal for i in p.tight_facets(vid))


def contribution_sums(p, vid, xi, *tris):
    """The local contributions of one vertex under several triangulations."""
    return [local_contribution(p, vid, tri, xi).sum for tri in tris]


class TestDeltaInvariance:
    def test_pyramid_reference_pair(self, pyramid_poly):
        t1 = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
        t2 = regular_triangulation(APEX_RAYS, [0, 0, 1, 1])
        rep = verify_identity(*contribution_sums(pyramid_poly, 0, (4, 2, 0),
                                                 t1, t2),
                              BOX6, Fraction(1, 2))
        assert rep.success and rep.points_checked == 25 ** 3

    def test_simple_vertex_trivial(self, pyramid_poly):
        p = pyramid_poly
        vid = vertex_index(p, (1, 1, 1))
        t1 = vertex_triangulation(p, vid, seed=0)
        t2 = vertex_triangulation(p, vid, seed=1)
        rep = verify_identity(*contribution_sums(p, vid, (4, 2, 0), t1, t2),
                              default_box(p), Fraction(1, 2))
        assert rep.success

    def test_octahedron_diagonal_pair(self):
        octa = make_octahedron()
        vid = vertex_index(octa, (0, 0, 1))
        rays = normal_cone_rays(octa, vid)
        # two fan triangulations split along the two diagonals of the square
        t1 = regular_triangulation(rays, seeded_heights(len(rays), 0))
        t2 = regular_triangulation(rays, seeded_heights(len(rays), 2))
        found = {t1.cells, t2.cells}
        seed = 3
        while len(found) < 2:
            t2 = regular_triangulation(rays, seeded_heights(len(rays), seed))
            found.add(t2.cells)
            seed += 1
        rep = verify_identity(*contribution_sums(octa, vid, (4, 2, 1), t1, t2),
                              default_box(octa), Fraction(1, 2),
                              extra_samples=60)
        assert rep.success


class TestNonsimpleDecomposition:
    def test_pyramid_identity(self, pyramid_poly):
        p = pyramid_poly
        heights = {0: pyramid_heights(p, [1, 1, 0, 0])}
        dec = nonsimple_decomposition(p, (4, 2, 0), heights)
        assert len(dec.terms) == 6
        rep = verify_identity(dec, indicator_of_polytope(p), BOX6,
                              Fraction(1, 2), 100, 7)
        assert rep.success

    def test_simple_polytope_matches_lv_termwise(self):
        cube = polytope_from_vertices(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        xi = (1, 2, 4)
        a = nonsimple_decomposition(cube, xi)
        b = lv_decomposition(cube, xi)
        assert set(a.terms) == set(b.terms)

    def test_octahedron_three_functionals_two_heights(self):
        octa = make_octahedron()
        for seed in range(3):
            cand = seeded_generic_functionals(octa, 1, seed=seed)[0]
            for hseed in (0, 5):
                dec = nonsimple_decomposition(octa, cand, seed=hseed)
                rep = verify_identity(dec, indicator_of_polytope(octa),
                                      default_box(octa), Fraction(1, 2),
                                      60, hseed)
                assert rep.success, (cand, hseed, rep.counterexample)

    def test_pentagon_cone_identity(self, pentagon_cone_poly):
        p = pentagon_cone_poly
        dec = nonsimple_decomposition(p, (5, 3, 1))
        rep = verify_identity(dec, indicator_of_polytope(p), default_box(p),
                              Fraction(1, 2), 80, 9)
        assert rep.success

    def test_pentagon_cone_apex_heights_with_a_point_on_a_non_face(
            self, pentagon_cone_poly):
        p = pentagon_cone_poly
        # heights 1, 0, 1, 1, 1 on the slice of w = e₃, times w·r
        dec = nonsimple_decomposition(p, (5, 3, 1), {0: [1, 0, 3, 4, 4]})
        rep = verify_identity(dec, indicator_of_polytope(p), default_box(p),
                              Fraction(1, 2), 80, 9)
        assert rep.success


TIED_ENTRIES = {e.name: e.build() for e in build_corpus()
                if e.name in ("pyramid", "octahedron", "pentagon-cone")}


@st.composite
def tied_heights(draw):
    """A non-simple corpus entry, with heights from {0, 1, 2} at each of its
    non-simple vertices, so that most liftings are tied."""
    p = TIED_ENTRIES[draw(st.sampled_from(sorted(TIED_ENTRIES)))]
    heights = {}
    for vid in range(len(p.vertices)):
        if not is_simple_vertex(p, vid):
            k = len(p.tight_facets(vid))
            heights[vid] = draw(st.lists(st.integers(0, 2), min_size=k,
                                         max_size=k))
    return p, heights


@given(tied_heights())
@settings(max_examples=30, deadline=None)
def test_tied_heights_identities_hold_exactly(case):
    """Tied heights are pulled, not refused: the nonsimple decomposition is
    the indicator, and each vertex's contribution equals the one of a seeded
    triangulation (delta-invariance), both on exact cells."""
    p, heights = case
    xi = seeded_generic_functionals(p, 1, seed=0)[0]
    rep = verify_identity_exact(nonsimple_decomposition(p, xi, heights),
                                indicator_of_polytope(p))
    assert rep.success, rep.counterexample
    for vid, hs in heights.items():
        tris = (vertex_triangulation(p, vid, hs),
                vertex_triangulation(p, vid, seed=1))
        rep = verify_identity_exact(*contribution_sums(p, vid, xi, *tris))
        assert rep.success, (vid, hs, rep.counterexample)


class TestCompatible:
    def test_octahedron(self):
        octa = make_octahedron()
        dh = seeded_dual_heights(octa, 3)
        tris = compatible_from_dual(octa, dh)
        assert set(tris) == set(range(6))
        for tri in tris.values():
            assert triangulation_oracle.verify_certificates(tri)
        dec = compatible_decomposition(octa, (4, 2, 1), dh)
        rep = verify_identity(dec, indicator_of_polytope(octa),
                              default_box(octa), Fraction(1, 2), 100, 11)
        assert rep.success

    def test_shifted_pyramid(self, pyramid_poly):
        shifted, shift = center_at_barycenter(pyramid_poly)
        dh = seeded_dual_heights(shifted, 5)
        tris = compatible_from_dual(shifted, dh)
        apex = vertex_index(shifted, tuple(Fraction(a) + s for a, s in
                                          zip((0, 0, 0), shift)))
        assert len(tris[apex].cells) == 2  # one of the two apex splittings
        dec = compatible_decomposition(shifted, (4, 2, 1), dh)
        rep = verify_identity(dec, indicator_of_polytope(shifted),
                              default_box(shifted), Fraction(1, 2), 100, 11)
        assert rep.success

    def test_apex_restriction_matches_explicit_triangulation(self, pyramid_poly):
        # the restricted cells must be one of the two triangulations of the
        # square normal cone, depending on the dual heights
        shifted, shift = center_at_barycenter(pyramid_poly)
        apex = vertex_index(shifted, tuple(Fraction(a) + s for a, s in
                                          zip((0, 0, 0), shift)))
        rays = normal_cone_rays(shifted, apex)
        both = set()
        for seed in range(8):
            dh = seeded_dual_heights(shifted, seed)
            cells = compatible_from_dual(shifted, dh)[apex].cells
            ray_cells = frozenset(frozenset(rays[j] for j in c) for c in cells)
            both.add(ray_cells)
        delta1 = frozenset({frozenset({(1, 0, 1), (0, 1, 1), (0, -1, 1)}),
                            frozenset({(-1, 0, 1), (0, 1, 1), (0, -1, 1)})})
        delta2 = frozenset({frozenset({(1, 0, 1), (-1, 0, 1), (0, 1, 1)}),
                            frozenset({(1, 0, 1), (-1, 0, 1), (0, -1, 1)})})
        assert both <= {delta1, delta2}
        assert len(both) >= 1

    @pytest.mark.parametrize("name", ["octahedron", "pyramid",
                                      "pentagon-cone", "random01-3d"])
    def test_cells_are_the_dual_lifting_sliced_at_minus_v(self, name):
        # lifting ray n_j by h_j·(−c_j) lifts its slice point of w = −v,
        # n_j/(−c_j), by h_j: the dual polytope's facet at v, reflected
        p, _ = center_at_barycenter(
            next(e.build() for e in build_corpus() if e.name == name))
        for seed in range(3):
            dh = seeded_dual_heights(p, seed)
            for vid, tri in compatible_from_dual(p, dh).items():
                sliced = triangulation_oracle.regular_triangulation(
                    tri.rays, [dh[i] for i in p.tight_facets(vid)],
                    tuple(-x for x in p.vertices[vid]))
                assert tri.cells == sliced.cells, (name, seed, vid)

    def test_octahedron_equal_dual_heights(self):
        # the dual cube lifts flat: each vertex's square normal cone is
        # pulled in facet order into 2 cells, and the cells stay compatible
        octa = make_octahedron()
        dh = [0] * len(octa.facets)
        for tri in compatible_from_dual(octa, dh).values():
            assert len(tri.cells) == 2
            assert triangulation_oracle.verify_certificates(tri)
        rep = verify_identity_exact(compatible_decomposition(octa, (4, 2, 1),
                                                             dh),
                                    indicator_of_polytope(octa))
        assert rep.success, rep.counterexample

    def test_origin_required(self, pyramid_poly):
        with pytest.raises(DegenerateInput):
            compatible_from_dual(pyramid_poly, [1] * 5)

    def test_simple_polytope_single_cells(self):
        cube = polytope_from_vertices(
            [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        tris = compatible_from_dual(cube, [1, 2, 3, 4, 5, 6])
        assert all(len(t.cells) == 1 for t in tris.values())


def tied_functionals(p):
    """±e_i, and a functional orthogonal to each of the first two edges:
    each is constant on some edge or triangulation ray of most entries."""
    d = p.dim
    out = [tuple(s * (i == j) for j in range(d))
           for i in range(d) for s in (1, -1)]
    for e in edges(p)[:2] if d > 1 else ():
        a, b = e.vertex_ids
        n = primitive(kernel_basis([vsub(p.vertices[b], p.vertices[a])])[0])
        if n not in out:
            out.append(n)
    return out


def perturbed_value(xi, x, eps=Fraction(1, 1000)):
    """(ξ + εe₁ + ε²e₂ + … + εᵈe_d)·x at one small ε, for vectors whose
    entries are far below 1/ε."""
    return sum((a + eps ** (i + 1)) * b
               for i, (a, b) in enumerate(zip(xi, x)))


class TestPerturbedKey:
    XI = (1, 1, 0)
    # (x, sign of the perturbed functional on x)
    CASES = [((1, -1, 5), 1), ((-1, 1, -5), -1),  # ξ·x = 0, first entry
             ((0, 0, 3), 1), ((0, 0, -3), -1),    # ξ·x = 0, last entry
             ((1, 0, -9), 1), ((-1, 0, 9), -1),   # ξ·x ≠ 0 decides
             ((2, -3, 0), -1), ((-2, 3, 0), 1)]

    @pytest.mark.parametrize("x, sign", CASES)
    def test_sign_against_zero(self, x, sign):
        zero = (0,) * (len(x) + 1)
        assert (perturbed_key(self.XI, x) > zero) == (sign > 0)
        assert (perturbed_key(self.XI, x) < zero) == (sign < 0)
        assert (perturbed_value(self.XI, x) > 0) == (sign > 0)

    def test_order_is_the_perturbed_functionals(self):
        xs = [x for x, _ in self.CASES]
        for x in xs:
            for y in xs:
                assert ((perturbed_key(self.XI, x) < perturbed_key(self.XI, y))
                        == (perturbed_value(self.XI, x)
                            < perturbed_value(self.XI, y))), (x, y)

    def test_square_frames_and_rearrangement_follow_it(self):
        # ξ = (1, 0) ties on the vertical edges; the perturbation prefers
        # the larger second coordinate there
        sq = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        xi = (1, 0)
        chosen = {}
        for vid, v in enumerate(sq.vertices):
            frame = simple_cone_frame(v, normal_cone_rays(sq, vid), xi)
            assert frame.signs == tuple(
                1 if perturbed_key(xi, r) > (0, 0, 0) else -1
                for r in frame.rays)
            assert frame.signs == tuple(
                1 if perturbed_value(xi, r) > 0 else -1 for r in frame.rays)
            _lhs, rhs = rearrange_for_vertex(sq, vid, xi)
            chosen[tuple(v)] = [pc for _c, pc in rhs.terms]
        for f in sq.faces:
            top = max(f.vertex_ids,
                      key=lambda w: perturbed_value(xi, sq.vertices[w]))
            assert tangent_cone_piece(sq, f) in chosen[sq.vertices[top]]
        assert {v: len(pcs) for v, pcs in chosen.items()} == {
            (0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 4}


class TestTiedFunctionals:
    """Any nonzero functional works: ties are broken lexicographically, and
    every identity of the CLI's table holds exactly on arrangement cells."""

    SIMPLE_ONLY = {"lv", "weighted", "rearrange", "partition"}
    NONSIMPLE_ONLY = {"eq6"}

    @pytest.mark.parametrize("name", [e.name for e in build_corpus()
                                      if e.dim <= 3])
    def test_identities_hold_exactly(self, name, corpus):
        entry, p = next((e, q) for e, q in corpus if e.name == name)
        parser = build_parser()
        for xi in tied_functionals(p):
            for ident, build in IDENTITIES.items():
                args = parser.parse_args(
                    ["verify", "--input", name, "--identity", ident,
                     f"--xi={','.join(map(str, xi))}"])
                try:
                    pairs, _ = build(p, args)
                except (InputError, SimplicityError):
                    # the only refusals: a simple polytope's identity on a
                    # non-simple entry, or eq6 on a simple one
                    skip = (self.NONSIMPLE_ONLY if entry.simple
                            else self.SIMPLE_ONLY)
                    assert ident in skip, (name, ident)
                    continue
                for label, lhs, rhs, *_ in pairs:
                    rep = verify_identity_exact(lhs, rhs)
                    assert rep.success, (name, xi, label, rep.counterexample)


def positive_witness(reports, lc, xi):
    """The counterexample of the first failing report: a point x where the
    perturbed ξ decreases from lc's vertex and lc's sum is nonzero."""
    bad = next(r for r in reports if not r.success)
    assert bad.identity == f"positive@v{lc.vertex_id}"
    x = tuple(Fraction(c) for c in bad.counterexample["point"])
    assert perturbed_key(lc.xi, vsub(x, lc.vertex)) < (0,) * (len(x) + 1)
    assert not evaluate(lc.sum, x).is_zero()
    return x


class TestPositiveConic:
    def test_lv_family_passes(self):
        sq = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        contribs = local_contributions(sq, (1, 2))
        reports = positive_conic_check(contribs, (1, 2))
        assert [r.identity for r in reports] == [f"positive@v{v}"
                                                 for v in range(4)]
        assert all(r.success for r in reports)
        assert all(r.parameters == {"mode": "exact-cells"} for r in reports)

    def test_pyramid_families_pass(self, pyramid_poly):
        p = pyramid_poly
        for heights in ([1, 1, 0, 0], [0, 0, 1, 1]):
            hs = {0: pyramid_heights(p, heights)}
            contribs = local_contributions(p, (4, 2, 0), hs)
            reports = positive_conic_check(contribs, (4, 2, 0))
            assert all(r.success for r in reports), reports

    def test_mutated_family_rejected_with_witness(self, pyramid_poly):
        p = pyramid_poly
        contribs = local_contributions(p, (4, 2, 0),
                                       {0: pyramid_heights(p, [1, 1, 0, 0])})
        bad = dict(contribs)
        bad[0] = flip_one_constraint(bad[0], 0, 0)
        assert not positive_conic_oracle.positive_conic_check(
            bad, (4, 2, 0), 16, 1).success
        reports = positive_conic_check(bad, (4, 2, 0))
        assert [r.success for r in reports] == [False] + [True] * 4
        positive_witness(reports, bad[0], (4, 2, 0))

    def test_tied_functional_mutation_rejected(self):
        # ξ = (1, 0) is 0 along the square's vertical edges; positivity is
        # decided where the perturbed ξ decreases, so also on the line x₁ = 0
        # below the vertex
        sq = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        contribs = local_contributions(sq, (1, 0))
        assert all(r.success for r in positive_conic_check(contribs, (1, 0)))
        bad = dict(contribs)
        bad[0] = flip_one_constraint(contribs[0], 0, 0)
        assert not positive_conic_oracle.positive_conic_check(
            bad, (1, 0), 16, 0).success
        x = positive_witness(positive_conic_check(bad, (1, 0)), bad[0], (1, 0))
        v = bad[0].vertex
        assert x[0] == v[0] and x[1] < v[1]
        assert evaluate(contribs[0].sum, x).is_zero()

    def test_piece_off_its_vertex_is_not_conic(self):
        sq = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        lc = local_contributions(sq, (1, 2))[0]
        moved = LocalContribution(lc.vertex_id, (Fraction(1, 2), Fraction(0)),
                                  lc.xi, lc.cell_indices, lc.sum)
        with pytest.raises(ValueError, match=r"^the contribution at vertex 0 "
                           r"is not conic: \(1, 0\)·x ≥ 0 is not tight at "
                           r"\(1/2, 0\)$"):
            positive_conic_check([moved], (1, 2))

    def test_unpolarized_tangent_cones_rejected(self, corpus):
        # the tangent cone passes only at the vertex where the perturbed
        # ξ = (3, 4, -8) is least, whose cone lies on its positive side
        xi = (3, 4, -8)
        rejected = {}
        for entry, p in corpus:
            if p.dim != 3:
                continue
            cones = [LocalContribution(
                vid, p.vertices[vid], xi, (0,),
                IndicatorSum(3, ((ONE, tangent_cone_piece(p, p.faces[vid])),)))
                for vid in range(len(p.vertices))]
            reports = positive_conic_check(cones, xi)
            rejected[entry.name] = (sum(not r.success for r in reports),
                                    len(reports))
            for lc, r in zip(cones, reports):
                if not r.success:
                    positive_witness([r], lc, xi)
        assert rejected == {"cube": (7, 8), "simplex-3d": (3, 4),
                            "octahedron": (5, 6), "pyramid": (4, 5),
                            "pentagon-cone": (5, 6), "random01-3d": (5, 6)}


@st.composite
def flipped_families(draw):
    """A polygon or 3-d polytope with small integer vertices, a nonzero
    functional, seeded contributions and one constraint of one piece
    flipped."""
    dim = draw(st.sampled_from([2, 3]))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                        min_size=dim + 1, max_size=dim + 3, unique=True))
    try:
        p = polytope_from_vertices(pts)
    except DegenerateInput:
        assume(False)
    xi = draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(any))
    contribs = local_contributions(p, xi, seed=draw(st.integers(0, 3)))
    vid = draw(st.sampled_from(sorted(contribs)))
    terms = contribs[vid].sum.terms
    k = draw(st.integers(0, len(terms) - 1))
    j = draw(st.integers(0, len(terms[k][1].constraints) - 1))
    return xi, contribs, vid, flip_one_constraint(contribs[vid], k, j)


@given(flipped_families(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_exact_check_rejects_what_sampling_rejects(case, seed):
    """The exact check passes every unflipped family, and rejects a flipped
    one wherever the sampled oracle does, with a witness where the perturbed
    ξ decreases and the flipped sum is nonzero."""
    xi, contribs, vid, flipped = case
    assert all(r.success for r in positive_conic_check(contribs, xi))
    bad = {**contribs, vid: flipped}
    reports = positive_conic_check(bad, xi)
    assert all(r.success for v, r in zip(sorted(bad), reports) if v != vid)
    if not positive_conic_oracle.positive_conic_check(bad, xi, 8,
                                                      seed).success:
        assert not reports[sorted(bad).index(vid)].success
    if not all(r.success for r in reports):
        positive_witness(reports, flipped, xi)


class TestUniqueness:
    def test_pyramid_two_families_agree_vertexwise(self, pyramid_poly):
        p = pyramid_poly
        a = local_contributions(p, (4, 2, 0), {0: pyramid_heights(p, [1, 1, 0, 0])})
        b = local_contributions(p, (4, 2, 0), {0: pyramid_heights(p, [0, 0, 1, 1])})
        reports = [verify_identity(a[v].sum, b[v].sum, BOX6, Fraction(1, 2))
                   for v in sorted(a)]
        assert len(reports) == 5 and all(r.success for r in reports)

    def test_identical_inputs(self, pyramid_poly):
        p = pyramid_poly
        a = local_contributions(p, (4, 2, 0))
        reports = [verify_identity(a[v].sum, a[v].sum, default_box(p),
                                   Fraction(1, 2)) for v in sorted(a)]
        assert all(r.success for r in reports)

    def test_dual_family_vs_adhoc_family(self):
        octa = make_octahedron()
        xi = (4, 2, 1)
        dh = seeded_dual_heights(octa, 7)
        tris = compatible_from_dual(octa, dh)
        a = {vid: local_contribution(octa, vid, tri, xi)
             for vid, tri in tris.items()}
        b = local_contributions(octa, xi, seed=13)
        for fam in (a, b):
            assert all(r.success for r in positive_conic_check(fam, xi))
        reports = [verify_identity(a[v].sum, b[v].sum, default_box(octa),
                                   Fraction(1, 2), extra_samples=40)
                   for v in sorted(a)]
        assert all(r.success for r in reports)
