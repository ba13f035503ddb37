from fractions import Fraction

import pytest

from conedec.deform import (local_contribution, nonsimple_decomposition,
                            vertex_triangulation)
from conedec.indicators import (ZPoly, default_box, indicator_of_interior,
                                indicator_of_polytope, verify_identity,
                                verify_identity_exact, weighted_indicator)
from conedec.linalg import DimensionError
from conedec.polar import (SimplicityError, is_generic, lv_decomposition,
                           partition_identity, polarization,
                           polarized_tangent_cone, rearrange_for_vertex,
                           weighted_lv_decomposition,
                           weighted_polarized_piece_value)
from conedec.polyhedra import Halfspace, polytope_from_vertices

from conftest import seeded_generic_functionals
from helpers import vertex_index
from indicator_oracle import evaluate

SEG = polytope_from_vertices([(-3,), (5,)])
SQUARE = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
CUBE = polytope_from_vertices(
    [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
TRIANGLE = polytope_from_vertices([(0, 0), (4, 0), (0, 4)])


class TestGenericity:
    def test_square_diag_generic(self):
        assert is_generic((1, 2), SQUARE)

    def test_square_axis_not_generic(self):
        assert not is_generic((1, 0), SQUARE)

    def test_pyramid_sweep_functional(self, pyramid_poly):
        assert is_generic((4, 2, 0), pyramid_poly)

    def test_functional_of_another_dimension_rejected(self):
        with pytest.raises(DimensionError):
            is_generic((1, 2), CUBE)

    @pytest.mark.parametrize("xi", [(1, 2, 3), (1,)], ids=["long", "short"])
    @pytest.mark.parametrize("build", [
        lv_decomposition, nonsimple_decomposition, weighted_lv_decomposition,
        lambda p, xi: local_contribution(p, 0, vertex_triangulation(p, 0), xi),
        lambda p, xi: polarization(p, 0, xi),
        lambda p, xi: rearrange_for_vertex(p, 0, xi),
    ], ids=["lv", "nonsimple", "weighted", "local_contribution",
            "polarization", "rearrange"])
    def test_builder_refuses_functional_of_another_length(self, build, xi):
        # a zip against each dual would drop extra coordinates or ignore
        # missing ones
        with pytest.raises(DimensionError,
                           match=r"functional \(.*\) in dimension 2"):
            build(TRIANGLE, xi)

    def test_nongeneric_ties_broken_lexicographically(self):
        # (1, 0) is constant on two edges; each is flipped when its first
        # nonzero coordinate is negative
        lv = lv_decomposition(SQUARE, (1, 0))
        rep = verify_identity_exact(lv, indicator_of_polytope(SQUARE))
        assert rep.success, rep.counterexample
        indices = sorted(polarization(SQUARE, v, (1, 0)).index
                         for v in range(4))
        assert indices == [0, 1, 1, 2]


class TestPolarization:
    def test_segment_lower_vertex(self):
        pol = polarization(SEG, vertex_index(SEG, (-3,)), (1,))
        assert pol.index == 0

    def test_segment_upper_vertex(self):
        vid = vertex_index(SEG, (5,))
        pol = polarization(SEG, vid, (1,))
        assert pol.index == 1
        pc = polarized_tangent_cone(SEG, vid, (1,))
        assert pc.constraints == (Halfspace((1,), Fraction(5), True),)
        assert not pc.contains((5,)) and pc.contains((6,))

    def test_square_side_vertex(self):
        vid = vertex_index(SQUARE, (1, 0))
        pol = polarization(SQUARE, vid, (1, 2))
        assert pol.index == 1
        pc = polarized_tangent_cone(SQUARE, vid, (1, 2))
        assert pc.constraints == (
            Halfspace((0, 1), Fraction(0), False),
            Halfspace((1, 0), Fraction(1), True))

    def test_index_parity_across_square(self):
        indices = sorted(polarization(SQUARE, v, (1, 2)).index
                         for v in range(4))
        assert indices == [0, 1, 1, 2]

    def test_exactly_one_min_and_max(self, corpus):
        for entry, p in corpus:
            if not entry.simple or p.dim > 3:
                continue
            for xi in seeded_generic_functionals(p, 2, seed=5):
                indices = [polarization(p, v, xi).index
                           for v in range(len(p.vertices))]
                assert indices.count(0) == 1, entry.name
                assert indices.count(p.dim) == 1, entry.name

    def test_non_simple_vertex_rejected(self, pyramid_poly):
        with pytest.raises(SimplicityError):
            polarization(pyramid_poly,
                         vertex_index(pyramid_poly, (0, 0, 0)), (4, 2, 0))


class TestLVDecomposition:
    def test_segment_pointwise(self):
        lv = lv_decomposition(SEG, (1,))
        rep = verify_identity(lv, indicator_of_polytope(SEG),
                              default_box(SEG), Fraction(1, 2), 100, 0)
        assert rep.success

    def test_square_five_functionals(self):
        for xi in seeded_generic_functionals(SQUARE, 5, seed=1):
            lv = lv_decomposition(SQUARE, xi)
            rep = verify_identity(lv, indicator_of_polytope(SQUARE),
                                  default_box(SQUARE), Fraction(1, 2), 100, 1)
            assert rep.success, (xi, rep.counterexample)

    def test_cube_five_functionals(self):
        for xi in seeded_generic_functionals(CUBE, 5, seed=2):
            lv = lv_decomposition(CUBE, xi)
            rep = verify_identity(lv, indicator_of_polytope(CUBE),
                                  default_box(CUBE), Fraction(1, 2), 100, 2)
            assert rep.success, (xi, rep.counterexample)

    def test_non_simple_polytope_rejected(self, pyramid_poly):
        with pytest.raises(SimplicityError):
            lv_decomposition(pyramid_poly, (4, 2, 0))

    def test_terms_are_the_cross_checked_vertex_cones(self, corpus):
        # lv runs through the non-simple path; each of its terms must still
        # be the signed polarized cone built by both the facet and edge route
        for entry, p in corpus:
            if not entry.simple:
                continue
            for xi in seeded_generic_functionals(p, 2, seed=7):
                expected = tuple(
                    (ZPoly.const((-1) ** polarization(p, vid, xi).index),
                     polarized_tangent_cone(p, vid, xi))
                    for vid in range(len(p.vertices)))
                assert lv_decomposition(p, xi).terms == expected, \
                    (entry.name, xi)


class TestWeighted:
    def test_piece_values(self):
        pol = polarization(SQUARE, vertex_index(SQUARE, (1, 0)), (1, 2))
        assert weighted_polarized_piece_value(pol, ()) == ZPoly.const(1)
        positive = [i for i, s in enumerate(pol.signs) if s > 0]
        negative = [i for i, s in enumerate(pol.signs) if s < 0]
        assert weighted_polarized_piece_value(pol, positive[:1]) == \
            ZPoly.z_power(1)
        assert weighted_polarized_piece_value(pol, negative[:1]) == \
            ZPoly((1, -1))

    def test_square_pointwise_values(self):
        w = weighted_lv_decomposition(SQUARE, (1, 2))
        half = Fraction(1, 2)
        assert evaluate(w, (half, 0)) == ZPoly.z_power(1)
        assert evaluate(w, (1, 1)) == ZPoly.z_power(2)
        assert evaluate(w, (half, half)) == ZPoly.const(1)
        assert evaluate(w, (5, 5)) == ZPoly(())

    def test_matches_weighted_indicator(self):
        for xi in seeded_generic_functionals(SQUARE, 3, seed=3):
            w = weighted_lv_decomposition(SQUARE, xi)
            rep = verify_identity(w, weighted_indicator(SQUARE),
                                  default_box(SQUARE), Fraction(1, 2), 80, 3)
            assert rep.success, (xi, rep.counterexample)

    def test_substitutions_recover_plain_and_interior(self):
        xi = (1, 2, 4)
        w = weighted_lv_decomposition(CUBE, xi)
        box = default_box(CUBE)
        assert verify_identity(w.substitute(1), indicator_of_polytope(CUBE),
                               box, Fraction(1, 2), 60, 4).success
        assert verify_identity(w.substitute(0), indicator_of_interior(CUBE),
                               box, Fraction(1, 2), 60, 4).success


class TestRearrange:
    def test_segment_upper_vertex(self):
        vid = vertex_index(SEG, (5,))
        lhs, rhs = rearrange_for_vertex(SEG, vid, (1,))
        assert len(rhs.terms) == 2  # the vertex itself and the whole segment
        rep = verify_identity(lhs, rhs, default_box(SEG), Fraction(1, 2), 50, 5)
        assert rep.success

    def test_square_top_vertex_gathers_four_faces(self):
        vid = vertex_index(SQUARE, (1, 1))
        lhs, rhs = rearrange_for_vertex(SQUARE, vid, (1, 2))
        assert len(rhs.terms) == 4
        rep = verify_identity(lhs, rhs, default_box(SQUARE), Fraction(1, 2), 50, 5)
        assert rep.success

    def test_square_bottom_vertex_alone(self):
        vid = vertex_index(SQUARE, (0, 0))
        lhs, rhs = rearrange_for_vertex(SQUARE, vid, (1, 2))
        assert len(rhs.terms) == 1
        rep = verify_identity(lhs, rhs, default_box(SQUARE), Fraction(1, 2), 50, 5)
        assert rep.success

    def test_all_pairs_on_simple_corpus(self, corpus):
        for entry, p in corpus:
            if not entry.simple or p.dim > 3:
                continue
            for xi in seeded_generic_functionals(p, 2, seed=6):
                for vid in range(len(p.vertices)):
                    lhs, rhs = rearrange_for_vertex(p, vid, xi)
                    rep = verify_identity(lhs, rhs, default_box(p),
                                          Fraction(1, 2), 20, 6)
                    assert rep.success, (entry.name, vid, xi)


def partition_holds(p, vid, extra_samples=0):
    """The sign-pattern pieces at a vertex sum to 1 on the default box."""
    return verify_identity(*partition_identity(p, vid), default_box(p),
                           Fraction(1, 2), extra_samples, 0).success


class TestPartition:
    def test_segment(self):
        assert partition_holds(SEG, 0)
        assert partition_holds(SEG, 1)

    def test_square_and_cube(self):
        for vid in range(4):
            assert partition_holds(SQUARE, vid)
        for vid in range(8):
            assert partition_holds(CUBE, vid)

    def test_all_simple_corpus_vertices(self, corpus):
        for entry, p in corpus:
            if not entry.simple or p.dim > 3:
                continue
            for vid in range(len(p.vertices)):
                assert partition_holds(p, vid, extra_samples=20), \
                    (entry.name, vid)
