import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from conedec.indicators import (GRID_POINT_BUDGET, IndicatorSum, ZPoly,
                                default_box, gram_decomposition, grid_points,
                                indicator_of_interior, indicator_of_polytope,
                                piece, verify_identity, verify_identity_exact,
                                weighted_indicator, whole_space_piece)
from conedec.polyhedra import Halfspace, halfspace, polytope_from_vertices

SEG = polytope_from_vertices([(-3,), (5,)])
ONE = ZPoly.const(1)


def indicator(dim, *halfspaces):
    return IndicatorSum(dim, ((ONE, piece(dim, halfspaces)),))


class TestZPoly:
    def test_arith(self):
        z = ZPoly.z_power(1)
        p = (ONE - z) * (ONE - z)
        assert p.coeffs == (1, -2, 1)
        assert p.at_one() == 0 and p(0) == 1
        assert p(Fraction(1, 2)) == Fraction(1, 4)

    def test_repr(self):
        assert repr(ZPoly.z_power(3) * 2 - ONE) == "-1 + 2z^3"
        assert repr(ZPoly(())) == "0"


class TestEvaluate:
    def test_segment_inside(self):
        s = indicator_of_polytope(SEG)
        assert s.evaluate((0,)) == ONE

    def test_segment_outside(self):
        s = indicator_of_polytope(SEG)
        assert s.evaluate((6,)).is_zero()

    def test_halfline_overlap_minus_line(self):
        s = IndicatorSum(1, (
            (ONE, piece(1, [halfspace((1,), -3)])),
            (ONE, piece(1, [halfspace((-1,), -5)])),
            (-ONE, whole_space_piece(1)),
        ))
        assert s.evaluate((0,)) == ONE

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            indicator_of_polytope(SEG).evaluate((0, 0))


class TestPieces:
    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            piece(1, [halfspace((1,), 1), halfspace((-1,), 1)])

    def test_strict_boundary_is_exact(self):
        pc = piece(1, [Halfspace((1,), Fraction(0), True)])
        assert not pc.contains((0,))
        assert pc.contains((Fraction(1, 10**9),))

    def test_parallel_constraints_collapse(self):
        pc = piece(1, [halfspace((1,), 0), halfspace((1,), 2)])
        assert pc.constraints == (Halfspace((1,), Fraction(2)),)

    def test_scaled_membership_agrees(self, corpus):
        for entry, p in corpus:
            s = gram_decomposition(p)
            for nums, den in list(grid_points(default_box(p), Fraction(1)))[:40]:
                x = tuple(Fraction(n, den) for n in nums)
                assert s.evaluate(x) == s.evaluate_scaled(nums, den), entry.name


class TestGram:
    def test_segment_term_structure(self):
        g = gram_decomposition(SEG)
        assert len(g.terms) == 3
        coeffs = sorted(c.at_one() for c, _ in g.terms)
        assert coeffs == [-1, 1, 1]

    def test_triangle_inside_outside(self):
        tri = polytope_from_vertices([(0, 0), (1, 0), (0, 1)])
        g = gram_decomposition(tri)
        assert len(g.terms) == 3 + 3 + 1
        for x, inside in [((Fraction(1, 4), Fraction(1, 4)), True),
                          ((2, 2), False), ((0, 0), True),
                          ((Fraction(1, 2), 0), True), ((-1, 0), False)]:
            expect = ONE if inside else ZPoly(())
            assert g.evaluate(x) == expect, x

    def test_pyramid_term_count(self, pyramid_poly):
        g = gram_decomposition(pyramid_poly)
        assert len(g.terms) == 19  # 5 vertices + 8 edges + 5 facets + itself

    def test_matches_membership_on_grid(self, corpus):
        for entry, p in corpus:
            if p.dim > 3:
                continue
            g = gram_decomposition(p)
            rep = verify_identity(g, indicator_of_polytope(p), default_box(p),
                                  Fraction(1, 2), extra_samples=50, seed=1)
            assert rep.success, (entry.name, rep.counterexample)


class TestWeightedIndicator:
    def test_cube_values(self):
        cube = polytope_from_vertices(
            [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        w = weighted_indicator(cube)
        half = Fraction(1, 2)
        assert w.evaluate((half, half, half)) == ONE
        assert w.evaluate((half, half, 0)) == ZPoly.z_power(1)
        assert w.evaluate((half, 0, 0)) == ZPoly.z_power(2)
        assert w.evaluate((0, 0, 0)) == ZPoly.z_power(3)
        assert w.evaluate((2, 0, 0)).is_zero()

    def test_substitutions(self, corpus):
        for entry, p in corpus:
            if p.dim > 2:
                continue
            w = weighted_indicator(p)
            box = default_box(p)
            rep = verify_identity(w.substitute(1), indicator_of_polytope(p),
                                  box, Fraction(1, 2), 30, 2)
            assert rep.success, entry.name
            rep = verify_identity(w.substitute(0), indicator_of_interior(p),
                                  box, Fraction(1, 2), 30, 2)
            assert rep.success, entry.name


class TestVerifyIdentity:
    def test_syntactic_equality(self):
        s = indicator_of_polytope(SEG)
        rep = verify_identity(s, s, default_box(SEG), Fraction(1, 2), 10, 0)
        # box [-4, 6] at step 1/2 has 21 grid points, plus the random ones
        assert rep.success and rep.points_checked == 21 + 10

    def test_mismatch_reported_at_first_grid_point(self):
        s01 = indicator(1, halfspace((1,), 0), halfspace((-1,), -1))
        s02 = indicator(1, halfspace((1,), 0), halfspace((-1,), -2))
        rep = verify_identity(s01, s02, [(Fraction(0), Fraction(3))], Fraction(1))
        assert not rep.success
        assert rep.counterexample == {"point": ["2"], "lhs": "0", "rhs": "1"}

    def test_deterministic_random_samples(self):
        s = indicator_of_polytope(SEG)
        r1 = verify_identity(s, s, default_box(SEG), Fraction(1, 2), 25, 9)
        r2 = verify_identity(s, s, default_box(SEG), Fraction(1, 2), 25, 9)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_oversized_grid_refused_before_iterating(self):
        with pytest.raises(ValueError, match="grid of 1000000000000000001 "
                           "points") as exc:
            grid_points([(0, 10 ** 18)], 1)
        assert "--step" in str(exc.value) and "--exact-cells" in str(exc.value)
        # a grid of exactly the budget is accepted, one more layer is not
        box = [(1, 1000), (1, 1000), (1, GRID_POINT_BUDGET // 10 ** 6)]
        assert next(grid_points(box, 1)) == ((1, 1, 1), 1)
        box[2] = (0, GRID_POINT_BUDGET // 10 ** 6)
        with pytest.raises(ValueError, match="budget"):
            grid_points(box, 1)

    def test_grid_order_matches_product(self):
        box = [(Fraction(-3, 2), 1), (0, Fraction(2, 3)), (Fraction(1, 3), 2)]
        step = Fraction(2, 3)
        axes = [[k for k in range(-10, 10) if lo <= k * step <= hi]
                for lo, hi in box]
        want = [(tuple(k * 2 for k in ks), 3) for ks in product(*axes)]
        assert list(grid_points(box, step)) == want
        assert list(grid_points([(0, 1), (Fraction(1, 3), Fraction(2, 3))],
                                1)) == []

    def test_long_axis_is_not_stored(self):
        tracemalloc.start()
        try:
            assert next(grid_points([(0, 10 ** 6 - 1)], 1)) == ((0,), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_exact_cells_mode(self):
        s01 = indicator(1, halfspace((1,), 0), halfspace((-1,), -1))
        s02 = indicator(1, halfspace((1,), 0), halfspace((-1,), -2))
        assert verify_identity_exact(s01, s01).success
        rep = verify_identity_exact(s01, s02)
        assert not rep.success

    def test_exact_cells_catches_sliver(self):
        # a sliver thinner than any reasonable grid: x2 in (0, 1/1000)
        thin = indicator(2, halfspace((0, 1), 0),
                         halfspace((0, -1), Fraction(-1, 1000)),
                         halfspace((1, 0), 0), halfspace((-1, 0), -1))
        base = indicator(2, halfspace((0, 1), 0), halfspace((0, -1), -1),
                         halfspace((1, 0), 0), halfspace((-1, 0), -1))
        rep = verify_identity_exact(thin, base)
        assert not rep.success
