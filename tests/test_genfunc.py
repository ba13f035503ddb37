import random
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conedec.deform import nonsimple_decomposition
import conedec.genfunc as genfunc
import conedec.linalg as linalg
import conedec.triangulation as triangulation
from conedec.genfunc import (LISTED_POINT_BUDGET, GFTerm, RationalGF, _bernoulli,
                             brion_gf, brute_force_count, count_lattice_points,
                             enumerate_parallelepiped, gf_brute_force,
                             gf_equal_as_functions, gf_of_indicator_sum,
                             gf_pretty, make_term, specialize)
from conedec.indicators import (ONE, IndicatorSum, LocallyClosedPiece,
                                gram_decomposition, lattice_runs, piece)
from conedec.linalg import DimensionError, _series_mul, residue_box
from conedec.polar import lv_decomposition
from conedec.polyhedra import (DegenerateInput, cone_facets, halfspace,
                               polytope_from_halfspaces,
                               polytope_from_vertices)
from conedec.triangulation import (half_open_inverses, pulling_triangulation,
                                   regular_triangulation, seeded_heights)
import triangulation_oracle

from conftest import seeded_generic_functionals
from helpers import (edge_directions, edges, piece_gf, simplicial_cone_gf,
                     vertex_index)
from lattice_oracle import lattice_points
from linalg_oracle import determinant, mat_inverse, mat_vec, vsub
import parallelepiped_oracle
import specialize_oracle

SEG = polytope_from_vertices([(-3,), (5,)])


def birkhoff3(r: int):
    """B_3(r): 3×3 nonnegative integer matrices with line sums r, in its
    free entries x11, x12, x21, x22 (the others are r minus a line)."""
    rows = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0), (-1, -1, 0, 0, -r), (0, 0, -1, -1, -r),
            (-1, 0, -1, 0, -r), (0, -1, 0, -1, -r), (1, 1, 1, 1, r)]
    return polytope_from_halfspaces(halfspace(n[:4], n[4]) for n in rows)


def brute_parallelepiped(generators, apex, open_flags=None):
    """Oracle: scan the bounding box of the cell and test the coordinates."""
    d = len(generators[0])
    flags = open_flags or [False] * d
    corners = []
    for eps in product((0, 1), repeat=d):
        corners.append([apex[i] + sum(e * g[i] for e, g in zip(eps, generators))
                        for i in range(d)])
    cols = tuple(zip(*generators))
    inv = mat_inverse(cols)
    out = []
    lo = [min(c[i] for c in corners) for i in range(d)]
    hi = [max(c[i] for c in corners) for i in range(d)]
    import math
    for pt in product(*[range(math.floor(lo[i]), math.ceil(hi[i]) + 1)
                        for i in range(d)]):
        lam = mat_vec(inv, vsub(pt, apex))
        ok = all((0 < l <= 1) if f else (0 <= l < 1)
                 for l, f in zip(lam, flags))
        if ok:
            out.append(tuple(pt))
    return sorted(out)


class TestParallelepiped:
    def test_unimodular(self):
        assert enumerate_parallelepiped([(1, 0), (0, 1)], (0, 0)) == [(0, 0)]

    def test_det_two(self):
        pts = enumerate_parallelepiped([(1, 0), (1, 2)], (0, 0))
        assert pts == [(0, 0), (1, 1)]
        assert pts == brute_parallelepiped([(1, 0), (1, 2)], (0, 0))

    def test_open_flag_1d(self):
        assert enumerate_parallelepiped([(1,)], (0,), [True]) == [(1,)]

    def test_apex_of_another_dimension_refused(self):
        with pytest.raises(DimensionError, match=r"apex \(0, 0, 5\) of "
                           "dimension 3 for generators of dimension 2"):
            enumerate_parallelepiped([(1, 0), (0, 2)], (0, 0, 5))

    def test_matches_brute_oracle(self):
        cases = [
            ([(2, 1), (0, 3)], (0, 0), [False, False]),
            ([(2, 1), (0, 3)], (0, 0), [True, False]),
            ([(2, 1), (0, 3)], (Fraction(1, 2), Fraction(1, 3)), [False, True]),
            ([(1, 0, 1), (0, 1, 1), (0, 0, 2)], (0, 0, 0), [False, True, True]),
            ([(1, 1), (1, -2)], (Fraction(-1, 2), 0), [False, False]),
        ]
        for gens, apex, flags in cases:
            assert enumerate_parallelepiped(gens, apex, flags) == \
                brute_parallelepiped(gens, apex, flags), (gens, apex, flags)

    def test_count_equals_det_for_integral_apex(self):
        for gens in [[(1, 0), (1, 2)], [(2, 1), (0, 3)], [(3, 1), (1, 2)]]:
            pts = enumerate_parallelepiped(gens, (0, 0))
            assert len(pts) == abs(determinant(gens))

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError):
            enumerate_parallelepiped([(1, 0), (2, 0)], (0, 0))

    @pytest.mark.parametrize("gens", [[(1, 0, 0), (0, 1)],
                                      [(1, 0), (0, 1, 0)]])
    def test_generators_of_mixed_lengths_rejected(self, gens):
        # zip(*gens) would truncate them to a cell of another dimension
        with pytest.raises(ValueError, match="^generators must be d "
                                             "linearly independent vectors$"):
            enumerate_parallelepiped(gens, (0,) * len(gens))
        with pytest.raises(ValueError, match="^generators must be d "
                                             "linearly independent vectors$"):
            simplicial_cone_gf((0,) * len(gens), gens)

    @pytest.mark.parametrize("gens", [[(Fraction(3, 2), 0), (0, 1)],
                                      [(1.9, 0), (0, 1)], [(True, 0), (0, 1)]])
    def test_non_integer_generators_rejected(self, gens):
        # int() would walk the cell of (1, 0) in place of the one given
        with pytest.raises(TypeError, match="generators must be integers"):
            enumerate_parallelepiped(gens, (0, 0))

    def test_cell_over_budget_refused(self):
        # the thin triangle's cone at (0, 1), of index 10^9
        with pytest.raises(ValueError, match="a cell of index 1000000000 "):
            enumerate_parallelepiped([(0, -1), (10 ** 9, -1)], (0, 1))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_cells_match_brute_oracle(self, data):
        # in 3-d the later Hermite sides of the residue box are non-trivial
        d = data.draw(st.sampled_from([2, 3]))
        gens = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                                  min_size=d, max_size=d))
        if determinant(gens) == 0:
            return
        apex = data.draw(st.tuples(*[st.fractions(
            min_value=-2, max_value=2, max_denominator=3)] * d))
        flags = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
        assert enumerate_parallelepiped(gens, apex, flags) == \
            brute_parallelepiped(gens, apex, flags)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_cells_match_fraction_oracle(self, data):
        d = data.draw(st.integers(1, 4))
        gens = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d),
                                  min_size=d, max_size=d))
        apex = data.draw(st.tuples(*[st.fractions(
            min_value=-3, max_value=3, max_denominator=7)] * d))
        flags = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
        if determinant(gens) == 0:
            for enumerate_cell in (enumerate_parallelepiped,
                                   parallelepiped_oracle.enumerate_parallelepiped):
                with pytest.raises(ValueError, match="linearly independent"):
                    enumerate_cell(gens, apex, flags)
        else:
            assert enumerate_parallelepiped(gens, apex, flags) == \
                parallelepiped_oracle.enumerate_parallelepiped(gens, apex, flags)

    @pytest.mark.parametrize("gens, box", [
        ([(5,)], (5,)),
        ([(0, -2, 1, 1), (0, -2, -2, -1), (0, -1, 0, 0), (3, 3, 3, 2)],
         (3, 1, 1, 1)),
        ([(0, -1, 0), (0, 0, 2), (3, 0, 0)], (3, 1, 2)),
        ([(2, 2, 1, 2), (-1, 2, -2, 0), (0, 0, 0, -2), (0, 0, -1, 1)],
         (1, 6, 1, 2)),
        ([(-1, 1, 0, -2), (0, -2, -1, 0), (3, 1, -1, -1), (0, 0, -3, 1)],
         (1, 2, 3, 8)),
    ])
    def test_column_walk_matches_fraction_oracle(self, gens, box):
        # the walk runs along the longest side of the residue box, here the
        # first, a middle or the last one, with one or more other sides > 1
        assert residue_box(tuple(zip(*gens))) == box
        d = len(box)
        for apex in [(0,) * d, tuple(Fraction(2 * i - 1, 3) for i in range(d))]:
            for flags in product((False, True), repeat=d):
                assert enumerate_parallelepiped(gens, apex, flags) == \
                    parallelepiped_oracle.enumerate_parallelepiped(
                        gens, apex, flags), (apex, flags)

    @pytest.mark.parametrize("flags", [[True], [True, False, False]])
    def test_open_flags_must_match_the_dimension(self, flags):
        # zipping flags against rows would cut them to fit and yield points
        # outside the cell
        gens, apex = [(2, 1), (1, 3)], (5, -7)
        with pytest.raises(ValueError, match="open flags"):
            enumerate_parallelepiped(gens, apex, flags)
        with pytest.raises(ValueError, match="^pattern of .* for 2 facets$"):
            simplicial_cone_gf(apex, gens, flags)

    def test_short_residue_box_is_a_broken_invariant(self, monkeypatch):
        def one_short(cols):
            *head, last = residue_box(cols)
            return (*head, last - 1)
        monkeypatch.setattr(genfunc, "residue_box", one_short)
        with pytest.raises(AssertionError, match="residue box"):
            enumerate_parallelepiped([(1, 0), (1, 2)], (0, 0))


class TestSimplicialConeGF:
    def test_upward_halfline(self):
        g = simplicial_cone_gf((-3,), [(1,)])
        assert g.terms == (make_term(1, [(-3,)], [(1,)]),)

    def test_downward_halfline_flips(self):
        g = simplicial_cone_gf((5,), [(-1,)])
        assert g.terms == (make_term(-1, [(6,)], [(1,)]),)

    def test_orthant(self):
        g = simplicial_cone_gf((0, 0), [(1, 0), (0, 1)])
        assert g.terms == (make_term(1, [(0, 0)], [(1, 0), (0, 1)]),)

    def test_apex_of_another_dimension_refused(self):
        with pytest.raises(DimensionError, match=r"of dimension 2 on a piece "
                                                 r"of dimension 1$"):
            simplicial_cone_gf((0,), [(1, 0), (0, 1)])

    def test_numerator_count_is_det(self):
        g = simplicial_cone_gf((0, 0), [(1, 1), (1, -2)])
        assert len(g.terms[0].numerators) == 3

    @pytest.mark.parametrize("dens", [[(0, 0)], [(1, 0), (0, 0)]],
                             ids=["only", "second"])
    def test_zero_denominator_exponent_refused(self, dens):
        with pytest.raises(ValueError, match="^zero denominator exponent$"):
            make_term(1, [(0, 0)], dens)

    def test_list_exponents_make_the_tuple_term(self):
        for dens in ([[1, 0], [0, 1]], [[-1, 0], [0, 1]]):  # kept, flipped
            t = make_term(1, [[0, 0], [2, 1]], dens)
            assert t == make_term(1, [(0, 0), (2, 1)], map(tuple, dens))
            assert all(type(a) is tuple for a in t.numerators)
            hash(t)


class TestBrion:
    def test_segment_closed_form(self):
        g = brion_gf(SEG)
        assert set(g.terms) == {make_term(1, [(-3,)], [(1,)]),
                                make_term(-1, [(6,)], [(1,)])}

    def test_unit_square_four_unimodular_terms(self):
        sq = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        g = brion_gf(sq)
        assert len(g.terms) == 4
        assert all(len(t.numerators) == 1 for t in g.terms)

    def test_pyramid_six_terms(self, pyramid_poly):
        g = brion_gf(pyramid_poly)
        assert len(g.terms) == 6  # 4 simple vertices + 2 half-open apex cells

    def test_counts_match_brute_force(self, corpus):
        for entry, p in corpus:
            assert count_lattice_points(brion_gf(p)) == len(lattice_points(p)), \
                entry.name

    def test_equal_as_functions(self, corpus):
        for entry, p in corpus:
            if p.dim > 3:
                continue
            assert gf_equal_as_functions(brion_gf(p), gf_brute_force(p)), \
                entry.name

    def test_each_cell_is_inverted_once(self, corpus, monkeypatch):
        # every octahedron vertex has 4 edges: each cone splits into 2 cells,
        # and one integer_inverse gives a cell's normals, flags and walk
        octa = next(p for entry, p in corpus if entry.name == "octahedron")
        calls, cells = [], []
        real_inverse = linalg.integer_inverse
        real_triangulation = genfunc.pulling_triangulation

        def counted_inverse(rows):
            calls.append(rows)
            return real_inverse(rows)

        def counted_triangulation(face, fdim, facets):
            tri = real_triangulation(face, fdim, facets)
            cells.append(len(tri))
            return tri
        for name, mod in list(sys.modules.items()):
            if name.startswith("conedec") and \
                    getattr(mod, "integer_inverse", None) is real_inverse:
                monkeypatch.setattr(mod, "integer_inverse", counted_inverse)
        monkeypatch.setattr(genfunc, "pulling_triangulation",
                            counted_triangulation)
        brion_gf(octa)
        assert cells == [2] * 6
        assert len(calls) == sum(cells)

    def test_cells_over_the_budget_in_all_are_refused_before_any_walk(
            self, monkeypatch):
        # cells of index 1, 1 and 2·10^6: each within the budget, not together
        assert LISTED_POINT_BUDGET == 2 * 10 ** 6
        thin = polytope_from_vertices([(0, 0), (2 * 10 ** 6, 0), (0, 1)])

        def no_walk(*args, **kwargs):
            raise AssertionError("a cell was walked")
        monkeypatch.setattr(genfunc, "enumerate_parallelepiped", no_walk)
        with pytest.raises(ValueError) as exc:
            brion_gf(thin)
        assert str(exc.value) == (
            "Brion's cells hold 2000002 parallelepiped points, over the "
            "budget of 2000000; 2000000 of them are in the cone at vertex "
            "(0, 1)")

    def test_one_cell_over_the_budget_is_named_as_a_cell(self):
        thin = polytope_from_vertices([(0, 0), (2 * 10 ** 6 + 1, 0), (0, 1)])
        with pytest.raises(ValueError) as exc:
            brion_gf(thin)
        assert str(exc.value) == ("a cell of index 2000001 at apex (0, 1) "
                                  "exceeds the budget of 2000000 points")

    def test_vertex_cone_facets_come_from_the_face_lattice(self, corpus,
                                                           monkeypatch):
        # Brion hulls no cone at any level of any dimension: the polytopes
        # are built first, then every route to a hull is cut
        clouds = []
        for d, n, seed in [(3, 8, 0), (3, 8, 1), (3, 8, 2), (3, 8, 3),
                           (4, 9, 0), (4, 9, 1), (5, 9, 0)]:
            rng = random.Random(seed)
            clouds.append((f"cloud{d}d-{seed}", polytope_from_vertices(
                [tuple(rng.randint(-3, 3) for _ in range(d))
                 for _ in range(n)])))
        b3 = [birkhoff3(r) for r in range(1, 8)]

        def fail(*args, **kwargs):
            raise AssertionError("a hull on the Brion path")
        monkeypatch.setattr(triangulation, "cone_facets", fail)
        monkeypatch.setattr(genfunc, "homogenized_rays", fail)
        named = [(e.name, p) for e, p in corpus]
        for name, p in named + clouds + [(f"B3({r + 1})", p)
                                         for r, p in enumerate(b3)]:
            assert gf_equal_as_functions(brion_gf(p), gf_brute_force(p)), name
        # MacMahon: H_3(r) = C(r+2, 2) + 3·C(r+3, 4) magic squares
        assert [count_lattice_points(brion_gf(p)) for p in b3] == \
            [comb(r + 2, 2) + 3 * comb(r + 3, 4) for r in range(1, 8)]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_face_lattice_facets_pull_like_cone_facets(self, data):
        d = data.draw(st.sampled_from([3, 4]))
        pts = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                                 min_size=d + 1, max_size=d + 4, unique=True))
        try:
            p = polytope_from_vertices(pts)
        except DegenerateInput:
            assume(False)
        cones = []

        def record(rays, facets, strict_normals):
            cones.append((rays, facets))
            return []
        with mock.patch.object(genfunc, "_cone_cells", record):
            brion_gf(p)
        assert len(cones) == len(p.vertices)
        for rays, facets in cones:
            assert {frozenset(f) for f in facets} == \
                {on for _, on in cone_facets(rays, d)}
            # pulling in index order is the zero-height triangulation
            assert pulling_triangulation(range(len(rays)), d, facets) == \
                list(triangulation_oracle.regular_triangulation(
                    rays, [0] * len(rays)).cells)

    def test_counting_needs_no_heights_or_slice_normal(self, corpus,
                                                       monkeypatch):
        # the cells come from pulling alone: no seeded heights and no
        # lifted lower hull
        cube = next(p for entry, p in corpus if entry.name == "cube")
        dec = nonsimple_decomposition(cube, (3, 4, -8))

        def fail(*args, **kwargs):
            raise AssertionError("not on the counting path")
        for name in ("seeded_heights", "regular_triangulation"):
            monkeypatch.setattr(triangulation, name, fail)
        for entry, p in corpus:
            g = brion_gf(p)
            assert gf_equal_as_functions(g, gf_brute_force(p)), entry.name
            assert count_lattice_points(g) == entry.expected_count, entry.name
        assert count_lattice_points(gf_of_indicator_sum(dec)) == 8


class TestCount:
    def test_segment_02(self):
        g = RationalGF(1, (make_term(1, [(0,)], [(1,)]),
                           make_term(-1, [(3,)], [(1,)])))
        assert count_lattice_points(g) == 3

    def test_cube(self):
        cube = polytope_from_vertices(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert count_lattice_points(brion_gf(cube)) == 8

    def test_pyramid(self, pyramid_poly):
        assert count_lattice_points(brion_gf(pyramid_poly)) == 10

    def test_invalid_gf_detected(self):
        # a bare half-line has a genuine pole at z = 1
        g = simplicial_cone_gf((0,), [(1,)])
        with pytest.raises(ValueError):
            count_lattice_points(g)

    def test_rational_vertices(self):
        f = Fraction
        quad = polytope_from_vertices(
            [(f(-1, 2), f(-1, 3)), (f(7, 3), 0), (2, 2), (0, f(5, 2))])
        assert count_lattice_points(brion_gf(quad)) == len(lattice_points(quad))
        assert gf_equal_as_functions(brion_gf(quad), gf_brute_force(quad))

    def test_dilation_sweep(self, corpus):
        for entry, p in corpus:
            if p.dim > 2 and entry.name != "pyramid":
                continue
            for t in (1, 2, 3):
                scaled = polytope_from_vertices(
                    [tuple(t * c for c in v) for v in p.vertices])
                assert count_lattice_points(brion_gf(scaled)) == \
                    len(lattice_points(scaled)), (entry.name, t)


@st.composite
def rational_polytopes(draw):
    """Polytopes of dimension 1 to 4 with rational vertices.  Each axis has
    its own range, so the axis with the most integer points, the one swept,
    is often not the last, and a thin axis may hold no integer at all."""
    dim = draw(st.integers(1, 4))
    widths = (Fraction(1, 3), 1, 2, 4) if dim < 4 else (Fraction(1, 3), 1, 2)
    coords = []
    for _ in range(dim):
        lo = draw(st.fractions(-3, 3, max_denominator=2))
        width = draw(st.sampled_from(widths))
        offset = st.fractions(0, width, max_denominator=3)
        coords.append(offset.map(lo.__add__))
    n = draw(st.integers(dim + 1, dim + 3))
    pts = draw(st.lists(st.tuples(*coords), min_size=n, max_size=n))
    try:
        return polytope_from_vertices(pts)
    except DegenerateInput:
        assume(False)


class TestBruteForceRuns:
    @given(rational_polytopes())
    @settings(max_examples=80, deadline=None)
    @example(polytope_from_vertices(  # the second axis holds no integer
        [(0, Fraction(1, 3)), (7, Fraction(1, 3)), (0, Fraction(2, 3))]))
    @example(polytope_from_vertices(  # swept along the first axis
        [(0, 0, 0), (9, 0, 0), (0, 2, 0), (0, 0, Fraction(7, 2))]))
    def test_runs_match_the_per_point_oracle(self, p):
        want = lattice_points(p)
        assert brute_force_count(p) == len(want)
        g = gf_brute_force(p)
        assert (g.terms[0].numerators if g.terms else ()) == tuple(want)

    def test_runs_lie_along_the_axis_with_most_integer_points(self):
        p = polytope_from_vertices([(0, 0, 0), (9, 0, 0), (0, 2, 0),
                                    (0, 0, 3)])
        assert {len(head) for head, _k, _n, _tail in lattice_runs(p)} == {0}
        q = polytope_from_vertices([(0, 0, 0), (2, 0, 0), (0, 9, 0),
                                    (0, 0, 3)])
        assert {len(head) for head, _k, _n, _tail in lattice_runs(q)} == {1}
        assert brute_force_count(p) == brute_force_count(q) == 30


class TestEquality:
    def test_reflexive(self):
        g = brion_gf(SEG)
        assert gf_equal_as_functions(g, g)

    def test_scalar_difference_detected(self):
        g1 = RationalGF(1, (make_term(1, [(0,)], [(1,)]),))
        g2 = RationalGF(1, (make_term(2, [(0,)], [(1,)]),))
        assert not gf_equal_as_functions(g1, g2)

    def test_pole_free_difference_detected(self):
        # both brute-force GFs are Laurent polynomials: their difference has
        # no pole and a nonzero value, one lattice point
        square = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
        triangle = polytope_from_vertices([(0, 0), (1, 0), (0, 1)])
        assert not gf_equal_as_functions(gf_brute_force(square),
                                         gf_brute_force(triangle))

    def test_sums_of_different_dimensions_are_refused(self):
        with pytest.raises(DimensionError, match="^generating functions of "
                           "dimensions 2 and 1$"):
            RationalGF(2) + RationalGF(1)

    def test_segment_brion_vs_brute(self):
        assert gf_equal_as_functions(brion_gf(SEG), gf_brute_force(SEG))

    def test_brute_force_monomial_counts(self, pyramid_poly):
        assert len(gf_brute_force(SEG).terms[0].numerators) == 9
        assert len(gf_brute_force(pyramid_poly).terms[0].numerators) == 10


class TestIndicatorImage:
    def test_line_piece_maps_to_zero(self):
        assert piece_gf(piece(1, (), (0,))).terms == ()

    def test_segment_gram_image_is_brion(self):
        image = gf_of_indicator_sum(gram_decomposition(SEG))
        assert set(image.terms) == set(brion_gf(SEG).terms)

    def test_edge_tangent_cone_killed(self, pyramid_poly):
        # faces of positive dimension contribute nothing
        e = edges(pyramid_poly)[0]
        pc = piece(3, (pyramid_poly.facets[i] for i in e.facet_ids),
                   pyramid_poly.barycenter(e))
        assert piece_gf(pc).terms == ()

    @pytest.mark.parametrize("redundant", [(1, 1), (1, 1, 0), (1, 1, 1)])
    def test_redundant_constraint_of_a_piece(self, redundant):
        # the orthant with one more constraint tight on a smaller face only
        # (the apex, or the ray e₃): closed, it leaves the cells alone;
        # strict, it supports no facet and is refused
        d = len(redundant)
        orthant = [halfspace(e, 0) for e in
                   (tuple(int(i == j) for j in range(d)) for i in range(d))]
        ones = (1,) * d
        plain = piece_gf(piece(d, orthant, witness=ones))
        assert piece_gf(piece(d, orthant + [halfspace(redundant, 0)],
                              witness=ones)) == plain
        strict = piece(d, orthant + [halfspace(redundant, 0, strict=True)],
                       witness=ones)
        with pytest.raises(ValueError, match="does not support a facet"):
            piece_gf(strict)

    @pytest.mark.parametrize("rows", [
        [((1, 0), 0), ((0, 1), 0), ((1, 0), -1)],      # x₁ ≥ −1 misses (0, 0)
        [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)]])   # a triangle's facets
    def test_piece_without_a_common_apex_is_refused(self, rows):
        pc = LocallyClosedPiece(2, tuple(sorted(halfspace(n, c)
                                                for n, c in rows)))
        with pytest.raises(ValueError, match=r"^piece is not a shifted cone "
                                             r"\(no common apex\)$"):
            piece_gf(pc)

    def test_plan_over_the_budget_refused_before_any_walk(self):
        # two copies of one cone, each cell of index 1500000 within the
        # budget on its own, their 3000000 points over it
        pc = piece(2, [halfspace((0, 1), 0), halfspace((1500000, -1), 0)],
                   (2, 1))
        with pytest.raises(ValueError, match=(
                r"^the pieces' cells hold 3000000 parallelepiped points, over "
                r"the budget of 2000000; 1500000 of them are in the cone at "
                r"apex \(0, 0\)$")):
            gf_of_indicator_sum(IndicatorSum(2, ((ONE, pc), (ONE, pc))))

    def test_gram_image_counts(self, corpus):
        for entry, p in corpus:
            if p.dim > 2:
                continue
            image = gf_of_indicator_sum(gram_decomposition(p))
            assert count_lattice_points(image) == entry.expected_count, entry.name


@st.composite
def small_polytopes(draw):
    """Polygons with vertex denominators up to 3, and tetrahedra with
    half-integral vertices: simple polytopes, small enough that every
    route stays fast."""
    dim = draw(st.sampled_from((2, 2, 3)))
    bound, den = (3, 3) if dim == 2 else (2, 2)
    coord = st.fractions(-bound, bound, max_denominator=den)
    n = draw(st.integers(3, 6)) if dim == 2 else 4
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=n, max_size=n))
    try:
        return polytope_from_vertices(pts)
    except DegenerateInput:
        assume(False)


class TestDifferentialCounting:
    @given(small_polytopes())
    @settings(max_examples=25, deadline=None)
    def test_counting_routes_agree(self, p):
        xi = seeded_generic_functionals(p, 1)[0]
        axis = (1,) + (0,) * (p.dim - 1)  # often constant on an edge
        counts = {
            "brion": count_lattice_points(brion_gf(p)),
            "gram": count_lattice_points(
                gf_of_indicator_sum(gram_decomposition(p))),
        }
        for tag, f in (("", xi), ("-axis", axis)):
            counts["lv" + tag] = count_lattice_points(
                gf_of_indicator_sum(lv_decomposition(p, f)))
            counts["nonsimple" + tag] = count_lattice_points(
                gf_of_indicator_sum(nonsimple_decomposition(p, f)))
        assert counts == dict.fromkeys(counts, len(lattice_points(p)))

    def test_nonsimple_image_of_rational_bipyramid(self):
        # its polarized cell cones have far larger index than its vertex cones
        h = Fraction(1, 2)
        p = polytope_from_vertices([(-3 * h, 3, -3), (-2, 2, 0), (2, 2, h),
                                    (1, 3 * h, -3), (-3 * h, -h, -2)])
        image = gf_of_indicator_sum(nonsimple_decomposition(p, (3, 4, -8)))
        assert count_lattice_points(image) == len(lattice_points(p)) == 14


class TestTriangulateCone:
    def test_simplicial_unchanged(self):
        tri = polytope_from_vertices([(0, 0), (1, 0), (0, 1)])
        rays = edge_directions(tri, 0)
        t = regular_triangulation(rays, seeded_heights(len(rays), 0))
        assert t.cells == ((0, 1),)
        assert [f for *_, f in half_open_inverses(t.rays, t.cells)] == \
            [(False, False)]

    def test_pyramid_apex_two_cells(self, pyramid_poly):
        vid = vertex_index(pyramid_poly, (0, 0, 0))
        rays = edge_directions(pyramid_poly, vid)
        t = regular_triangulation(rays, seeded_heights(len(rays), 0))
        assert len(t.cells) == 2
        for cell in t.cells:
            assert len(cell) == 3
            assert determinant([t.rays[j] for j in cell]) != 0

    def test_pentagon_cone_three_cells(self, pentagon_cone_poly):
        p = pentagon_cone_poly
        rays = edge_directions(p, vertex_index(p, (1, 1, 0)))
        assert len(rays) == 5
        t = regular_triangulation(rays, seeded_heights(len(rays), 0))
        assert len(t.cells) == 3  # rays - dim + 1

    def test_line_containing_cone_rejected(self):
        with pytest.raises(DegenerateInput, match="do not span"):
            regular_triangulation([(1, 0), (-1, 0)], [0, 1])


class TestSpecialize:
    def test_bernoulli_numbers(self):
        assert [_bernoulli(n) for n in range(9)] == [
            1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0,
            Fraction(1, 42), 0, Fraction(-1, 30)]

    def test_bernoulli_series_inverts_e(self):
        # E(s) = (exp(β·s) − 1)/(β·s) = Σ β^k s^k/(k+1)! has the inverse
        # β·s/(exp(β·s) − 1) = Σ B_k β^k s^k/k!
        order = 8
        for beta in (Fraction(1), Fraction(-3), Fraction(2, 5), Fraction(7)):
            e = [beta ** k / factorial(k + 1) for k in range(order + 1)]
            b = [_bernoulli(k) * beta ** k / factorial(k)
                 for k in range(order + 1)]
            assert _series_mul(e, b, order) == [1] + [0] * order

    def test_laurent_polynomial_constant_term(self):
        g = gf_brute_force(SEG)
        assert specialize(g, [1], 0) == [Fraction(9)]

    @pytest.mark.parametrize("direction", [(Fraction(3, 2), Fraction(5, 2)),
                                           (1.5, 2.5), (True, 2)])
    def test_non_integer_direction_rejected(self, direction):
        # int() would answer for λ = (1, 2)
        cone = simplicial_cone_gf((0, 0), [(1, 0), (1, 2)])
        with pytest.raises(TypeError, match="the direction must be integers"):
            specialize(cone, direction, 1)

    @pytest.mark.parametrize("direction", [[1, 3, 5], [1]])
    def test_direction_of_another_length_rejected(self, direction):
        tri = polytope_from_vertices([(0, 0), (4, 0), (0, 4)])
        with pytest.raises(DimensionError, match=f"^direction of length "
                           f"{len(direction)} for a generating function of "
                           "dimension 2$"):
            specialize(brion_gf(tri), direction, 0)

    def test_errors_match_fraction_oracle(self):
        cone = simplicial_cone_gf((0, 0), [(1, 0), (1, 2)])
        for direction, match in (([0, 1], "degenerates denominator"),
                                 ([1, 1], "pole of order 2 does not cancel")):
            with pytest.raises(ValueError, match=match) as ours:
                specialize(cone, direction, 1)
            with pytest.raises(ValueError) as theirs:
                specialize_oracle.specialize(cone, direction, 1)
            assert str(ours.value) == str(theirs.value)

    def test_pretty(self):
        assert gf_pretty(brion_gf(SEG)) == "x^-3/(1-x) - x^6/(1-x)"
        assert gf_pretty(RationalGF(2)) == "0"


def specialize_outcome(fn, gf, direction, order):
    try:
        return fn(gf, direction, order)
    except ValueError as exc:
        return "ValueError", str(exc)


def scaled(gf, c):
    """gf times the rational c, term by term."""
    return RationalGF(gf.dim, tuple(
        GFTerm(c * t.coeff, t.numerators, t.denominators) for t in gf.terms))


@st.composite
def cone_sums(draw):
    """Signed sums of simplicial cone GFs with a rational apex and random
    flags.  Summing all 2^d translates apex + Σ_{i∈S} t_i, with sign
    (−1)^|S|, gives the GF of the half-open parallelepiped, so every pole
    cancels; a random selection of translates leaves poles in general."""
    d = draw(st.integers(1, 4))
    bound = 2 if d == 4 else 3
    gens = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * d),
                         min_size=d, max_size=d).filter(determinant))
    apex = draw(st.tuples(*[st.fractions(min_value=-3, max_value=3,
                                         max_denominator=4)] * d))
    flags = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    subsets = list(product((0, 1), repeat=d))
    if not draw(st.booleans()):
        subsets = draw(st.lists(st.sampled_from(subsets), min_size=1,
                                max_size=4))
    acc = RationalGF(d)
    for eps in subsets:
        shifted = [a + sum(e * g[i] for e, g in zip(eps, gens))
                   for i, a in enumerate(apex)]
        acc = acc + scaled(simplicial_cone_gf(shifted, gens, flags),
                           (-1) ** sum(eps))
    scale = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6)
                 .filter(lambda c: c != 0))
    direction = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    return scaled(acc, scale), direction


@given(cone_sums(), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_specialize_matches_fraction_oracle(case, order):
    gf, direction = case
    assert specialize_outcome(specialize, gf, direction, order) == \
        specialize_outcome(specialize_oracle.specialize, gf, direction, order)
