import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import ceil, floor, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import indicator_oracle
from conedec import indicators
from conedec.indicators import (CELL_MEMO_CAP, GRID_POINT_BUDGET, Arrangement,
                                IndicatorSum, LocallyClosedPiece, ZPoly,
                                default_box,
                                gram_decomposition, grid_points,
                                indicator_of_interior, indicator_of_polytope,
                                piece, random_rational_points,
                                verify_identity, verify_identity_exact,
                                weighted_indicator)
from conedec.linalg import DimensionError
from conedec.polyhedra import Halfspace, halfspace, polytope_from_vertices
from helpers import dot, feasible_point
from indicator_oracle import evaluate, satisfied

SEG = polytope_from_vertices([(-3,), (5,)])
ONE = ZPoly.const(1)


def indicator(dim, *halfspaces):
    pc = piece(dim, halfspaces, feasible_point(halfspaces, dim))
    return IndicatorSum(dim, ((ONE, pc),))


class TestZPoly:
    def test_arith(self):
        p = ZPoly((1, -1)) * ZPoly((1, -1))
        assert p.coeffs == (1, -2, 1)
        assert p.at_one() == 0 and p(0) == 1
        assert p(Fraction(1, 2)) == Fraction(1, 4)

    def test_repr(self):
        assert repr(ZPoly((-1, 0, 0, 2))) == "-1 + 2z^3"
        assert repr(ZPoly(())) == "0"


class TestEvaluate:
    def test_segment_inside(self):
        s = indicator_of_polytope(SEG)
        assert evaluate(s, (0,)) == ONE

    def test_segment_outside(self):
        s = indicator_of_polytope(SEG)
        assert evaluate(s, (6,)) == ZPoly(())

    def test_halfline_overlap_minus_line(self):
        s = IndicatorSum(1, (
            (ONE, piece(1, [halfspace((1,), -3)], (0,))),
            (ONE, piece(1, [halfspace((-1,), -5)], (0,))),
            (ZPoly((-1,)), piece(1, (), (0,))),
        ))
        assert evaluate(s, (0,)) == ONE

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(indicator_of_polytope(SEG), (0, 0))


class TestPieces:
    def test_empty_system_has_no_point(self):
        assert feasible_point([halfspace((1,), 1), halfspace((-1,), 1)],
                              1) is None
        assert feasible_point([halfspace((1,), 0, True),
                               halfspace((-1,), 0)], 1) is None

    def test_piece_needs_its_witness(self):
        with pytest.raises(TypeError):
            piece(1, [halfspace((1,), 0)])

    def test_witness_outside_the_piece_is_refused(self):
        rows = [halfspace((1,), 1), halfspace((-1,), -3)]
        assert piece(1, rows, (2,)).contains((3,))
        for w in ((0,), (4,), (Fraction(1, 2),)):
            with pytest.raises(ValueError, match="not inside the piece"):
                piece(1, rows, w)
        with pytest.raises(ValueError, match="not inside the piece"):
            piece(1, [Halfspace((1,), Fraction(0), True)], (0,))

    def test_sums_of_different_dimensions_are_refused(self):
        with pytest.raises(DimensionError, match="^sums of dimensions 2 and "
                           "1$"):
            IndicatorSum(2) + IndicatorSum(1)

    def test_strict_boundary_is_exact(self):
        pc = piece(1, [Halfspace((1,), Fraction(0), True)], (1,))
        assert not pc.contains((0,))
        assert pc.contains((Fraction(1, 10**9),))

    def test_parallel_constraints_collapse(self):
        pc = piece(1, [halfspace((1,), 0), halfspace((1,), 2)], (2,))
        assert pc.constraints == (Halfspace((1,), Fraction(2)),)

    def test_piece_refuses_a_constraint_of_another_dimension(self):
        with pytest.raises(DimensionError, match=r"constraint \(1\)·x ≥ 0 "
                           "of dimension 1 on a piece of dimension 2"):
            piece(2, [halfspace((1,), 0)], (0, 0))

    def test_restrict_refuses_a_row_of_another_dimension(self):
        s = indicator(2, halfspace((1, 0), 0))
        with pytest.raises(DimensionError, match=r"constraint \(0, 0, 1\)·x "
                           "> 3 of dimension 3 on a sum of dimension 2"):
            s.restrict([halfspace((1, 0), 1), halfspace((0, 0, 1), 3, True)])

    def test_restrict_cuts_each_piece_and_drops_empty_cuts(self, pyramid_poly):
        # the relative interiors of the faces on x₁ ≤ 0 or x₂ ≥ 1 are cut away
        s = weighted_indicator(pyramid_poly)
        rows = [halfspace((1, 0, 0), 0, True), halfspace((0, -1, 0), -1, True)]
        cut = s.restrict(rows)
        assert 0 < len(cut.terms) < len(s.terms)
        assert all(piece(3, pc.constraints,
                         feasible_point(pc.constraints, 3)) == pc
                   for _c, pc in cut.terms)
        for nums, den in grid_points(default_box(pyramid_poly), Fraction(1, 2)):
            x = tuple(Fraction(n, den) for n in nums)
            inside = all(satisfied(h, x) for h in rows)
            assert evaluate(cut, x) == (evaluate(s, x) if inside else ZPoly())

    def test_scaled_membership_agrees(self, corpus):
        for entry, p in corpus:
            sums = (gram_decomposition(p), weighted_indicator(p))
            cells = Arrangement(sums)
            for nums, den in list(grid_points(default_box(p), Fraction(1)))[:40]:
                x = tuple(Fraction(n, den) for n in nums)
                want = tuple(evaluate(s, x) for s in sums)
                assert cells.values(cells.signs(nums, den)) == want, entry.name


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
            assert evaluate(g, x) == expect, x

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
        assert evaluate(w, (half, half, half)) == ONE
        assert evaluate(w, (half, half, 0)) == ZPoly.z_power(1)
        assert evaluate(w, (half, 0, 0)) == ZPoly.z_power(2)
        assert evaluate(w, (0, 0, 0)) == ZPoly.z_power(3)
        assert evaluate(w, (2, 0, 0)) == ZPoly(())

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

    def test_exact_cells_refuse_sums_of_different_dimensions(self):
        lhs = indicator(2, halfspace((1, 0), 0))
        rhs = indicator(1, halfspace((1,), 0))
        with pytest.raises(DimensionError, match="sums of dimensions 2, 1"):
            verify_identity_exact(lhs, rhs)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_grid_refuses_a_box_of_another_dimension(self, dim, monkeypatch):
        # refused before any grid point is made
        monkeypatch.setattr(indicators, "grid_points", None)
        s = indicator(2, halfspace((1, 0), 0))
        with pytest.raises(DimensionError, match=f"box of dimension {dim} "
                           "for sums of dimension 2"):
            verify_identity(s, s, [(Fraction(-1), Fraction(1))] * dim, 1)

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

    @pytest.mark.parametrize("box, count", [
        ([(Fraction(1, 3), Fraction(1, 3)), (Fraction(0), Fraction(5))], 20),
        ([(Fraction(1, 3), Fraction(2, 5))] * 2, 200),
    ], ids=["point-axis", "narrow-box"])
    def test_random_samples_lie_in_the_box(self, box, count):
        samples = list(random_rational_points(box, count, 0))
        assert len(samples) == count
        for nums, den in samples:
            assert all(lo <= Fraction(n, den) <= hi
                       for n, (lo, hi) in zip(nums, box))

    def test_random_samples_unchanged_where_every_axis_holds_one(self):
        # an axis at least 1 wide holds a multiple of 1/den for every den,
        # so the stream is the one drawn before samples were kept in the box
        def unraised(box, count, seed):
            rng = random.Random(seed)
            for _ in range(count):
                den = rng.randint(1, 6)
                yield tuple(rng.randint(ceil(lo * den), floor(hi * den))
                            for lo, hi in box), den
        for box in ([(Fraction(-4), Fraction(6))],
                    [(Fraction(-3, 2), Fraction(1)), (Fraction(1, 3),
                                                      Fraction(7, 3))]):
            for seed in range(3):
                assert list(random_rational_points(box, 50, seed)) == \
                    list(unraised(box, 50, seed))

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

    def test_cell_memo_is_bounded(self):
        # lines x = k and y = k for k < 16 cut the box into 33 × 33 cells,
        # nearly one per grid point and far more than the memo keeps
        walls = IndicatorSum(2, tuple(
            (ONE, piece(2, [halfspace(n, k)], tuple(k * a for a in n)))
            for k in range(16) for n in ((1, 0), (0, 1))))
        box = [(Fraction(-1), Fraction(16))] * 2
        assert 33 * 33 > 4 * CELL_MEMO_CAP
        tracemalloc.start()
        try:
            rep = verify_identity(walls, walls, box, Fraction(1, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.success and rep.points_checked == 35 * 35
        assert peak < 2 ** 18  # ~0.7 MB when every cell is kept

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

    def test_exact_cells_random_4d_gram(self, corpus):
        # the 4-d exact-cells cliff: a few seconds when each branch extends
        # its parent's levels, ~30 s when each solves its whole system
        p = next(p for e, p in corpus if e.name == "random01-4d")
        rep = verify_identity_exact(gram_decomposition(p),
                                    indicator_of_polytope(p))
        assert rep.success and rep.points_checked == 5515


class TestGridWork:
    """The grid check sweeps lines in runs of one arrangement cell: no sign
    vector is computed point by point, and each cell is evaluated once."""

    @pytest.mark.parametrize("samples", [0, 37])
    def test_sign_vectors_only_for_samples(self, pyramid_poly, monkeypatch,
                                           samples):
        calls = []
        signs = Arrangement.signs

        def counted(self, nums, den):
            calls.append(nums)
            return signs(self, nums, den)
        monkeypatch.setattr(Arrangement, "signs", counted)
        rep = verify_identity(gram_decomposition(pyramid_poly),
                              indicator_of_polytope(pyramid_poly),
                              default_box(pyramid_poly), Fraction(1, 2),
                              samples, 5)
        assert rep.success and rep.points_checked == 9 * 9 * 7 + samples
        assert len(calls) == samples

    @pytest.mark.parametrize("interior", [False, True])
    def test_each_point_checked_is_drawn_once(self, pyramid_poly, monkeypatch,
                                              interior):
        # the points checked are the items drawn from grid_points and
        # random_rational_points, up to and including a counterexample
        drawn = []
        for name in ("grid_points", "random_rational_points"):
            def counted(*args, gen=getattr(indicators, name)):
                for item in gen(*args):
                    drawn.append(item)
                    yield item
            monkeypatch.setattr(indicators, name, counted)
        rhs = (indicator_of_interior if interior else
               indicator_of_polytope)(pyramid_poly)
        rep = verify_identity(gram_decomposition(pyramid_poly), rhs,
                              default_box(pyramid_poly), Fraction(1, 2), 37, 5)
        assert len(drawn) == rep.points_checked
        if interior:
            nums, den = drawn[-1]
            assert rep.counterexample["point"] == [
                str(Fraction(n, den)) for n in nums]
        else:
            assert rep.success and rep.points_checked == 9 * 9 * 7 + 37

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The sign vectors that Arrangement.values is called with."""
        calls = []
        values = Arrangement.values

        def counted(self, signs):
            calls.append(signs)
            return values(self, signs)
        monkeypatch.setattr(Arrangement, "values", counted)
        return calls

    def test_pyramid_grid_evaluates_each_cell_once(self, pyramid_poly,
                                                   evaluated):
        lhs = gram_decomposition(pyramid_poly)
        rhs = indicator_of_polytope(pyramid_poly)
        box, step = [(Fraction(-6), Fraction(6))] * 3, Fraction(1, 4)
        cells = Arrangement((lhs, rhs))
        met = {cells.signs(*pt) for pt in grid_points(box, step)}
        assert len(met) <= CELL_MEMO_CAP  # so the memo is never cleared
        rep = verify_identity(lhs, rhs, box, step)
        assert rep.success and rep.points_checked == 49 ** 3 == 117649
        assert len(evaluated) == len(set(evaluated))
        assert set(evaluated) == met

    def test_pyramid_exact_cells_evaluate_each_cell_once(self, pyramid_poly,
                                                         evaluated):
        rep = verify_identity_exact(gram_decomposition(pyramid_poly),
                                    indicator_of_polytope(pyramid_poly))
        assert rep.success and rep.points_checked == len(evaluated) == 101
        assert len(set(evaluated)) == len(evaluated)


@st.composite
def identities(draw, max_dim=3, flat=False):
    """(dim, lhs, rhs): indicator sums in 1–max_dim variables over a small
    pool of hyperplanes, with strict and closed rows on either side of each
    plane, parallel planes that share a normal and, when flat is set, planes
    whose last normal coordinate is 0; rhs is lhs reordered and, when drawn
    so, perturbed so that the identity may fail."""
    dim = draw(st.integers(1, max_dim))
    normal = st.lists(st.integers(-2, 2), min_size=dim,
                      max_size=dim).filter(any)
    offset = st.fractions(-2, 2, max_denominator=3)
    pool = draw(st.lists(st.tuples(normal, offset), min_size=2, max_size=4))
    if flat and dim > 1:
        level = st.lists(st.integers(-2, 2), min_size=dim - 1,
                         max_size=dim - 1).filter(any).map(lambda n: n + [0])
        pool += draw(st.lists(st.tuples(level, offset), min_size=1,
                              max_size=2))
    pool += [(tuple(k * a for a in n), off) for (n, _off), k, off in draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from((-2, 1, 3)),
                           offset), max_size=2))]
    row = st.tuples(st.integers(0, len(pool) - 1), st.sampled_from((1, -1)),
                    st.booleans())
    coeff = st.tuples(st.integers(-2, 2), st.integers(0, 1))
    rows = st.lists(row, min_size=1, max_size=3)
    raw = draw(st.lists(st.tuples(coeff, rows), min_size=2, max_size=5))
    other = draw(st.permutations(raw))
    change = draw(st.sampled_from(("none", "drop", "strictness", "coeff")))
    j = draw(st.integers(0, len(other) - 1))
    (c0, c1), rows = other[j]
    if change == "drop":
        other = other[:j] + other[j + 1:]
    elif change == "strictness" and rows:
        i, o, strict = rows[0]
        other[j] = ((c0, c1), [(i, o, not strict)] + rows[1:])
    elif change == "coeff":
        other[j] = ((c0 + 1, c1), rows)

    def build(terms):
        out = []
        for (c0, c1), rows in terms:
            cons = [halfspace(tuple(o * a for a in pool[i][0]),
                              o * pool[i][1], strict) for i, o, strict in rows]
            if (w := feasible_point(cons, dim)) is None:  # an empty piece
                continue
            out.append((ZPoly((c0, c1) if c1 else (c0,) if c0 else ()),
                        piece(dim, cons, w)))
        return IndicatorSum(dim, tuple(out))

    return dim, build(raw), build(other)


@st.composite
def grid_boxes(draw, dim, step):
    """Boxes drawn axis by axis: [-2, 2], an interval with rational ends
    mostly off the grid, one grid point between ends that may lie off the
    grid, or no grid point at all."""
    box = []
    quarter = st.sampled_from((0, Fraction(1, 4), Fraction(1, 2),
                               Fraction(3, 4)))
    for _ in range(dim):
        kind = draw(st.sampled_from(("whole",) * 2 + ("span",) * 4
                                    + ("point",) * 3 + ("none",)))
        k = draw(st.integers(-2, 2)) * step  # a grid point
        if kind == "whole":
            box.append((Fraction(-2), Fraction(2)))
        elif kind == "span":
            ends = st.fractions(-2, 2, max_denominator=4)
            box.append(tuple(sorted((draw(ends), draw(ends)))))
        elif kind == "point":
            box.append((k - draw(quarter) * step, k + draw(quarter) * step))
        else:  # between two grid points, or the ends swapped
            box.append((k + step / 4, k + draw(st.sampled_from(
                (Fraction(-1, 2), Fraction(1, 4), Fraction(3, 4)))) * step))
    return box


class TestAgainstOracle:
    """The arrangement-based checks give the reports of the per-point and
    from-scratch checks they replaced (tests/indicator_oracle.py)."""

    @given(identities(max_dim=4, flat=True),
           st.sampled_from((1, Fraction(1, 2), Fraction(2, 3),
                            Fraction(3, 2))),
           st.integers(0, 5), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_grid_reports_match(self, ident, step, samples, seed, data):
        dim, lhs, rhs = ident
        box = data.draw(grid_boxes(dim, Fraction(step)))
        got = verify_identity(lhs, rhs, box, step, samples, seed)
        want = indicator_oracle.verify_identity(lhs, rhs, box, step, samples,
                                                seed)
        assert got.to_json_dict() == want.to_json_dict()

    @given(identities(max_dim=4, flat=True))
    @settings(max_examples=60, deadline=None)
    def test_exact_reports_match(self, ident):
        _dim, lhs, rhs = ident
        assert (verify_identity_exact(lhs, rhs).to_json_dict()
                == indicator_oracle.verify_identity_exact(lhs, rhs)
                .to_json_dict())

    @pytest.mark.parametrize("extra", [
        # only at (2/3, 1/3), where x + y = 1 crosses x = 2y
        [halfspace((1, 1), 1), halfspace((-1, -1), -1),
         halfspace((1, -2), 0), halfspace((-1, 2), 0)],
        # only on the open segment of x + y = 1 with 0 < x < 2
        [halfspace((1, 1), 1), halfspace((-1, -1), -1),
         halfspace((1, 0), 0, True), halfspace((-1, 0), -2, True)],
    ], ids=["crossing", "open-segment"])
    def test_exact_mismatch_on_a_lower_dimensional_cell(self, extra):
        # the `=` cells are settled by convexity and by the span of their
        # equations, yet the report names the point a search on the failing
        # cell itself finds
        base = indicator(2, halfspace((0, 1), -3), halfspace((2, -1), -4))
        rep = verify_identity_exact(base, base + indicator(2, *extra))
        want = indicator_oracle.verify_identity_exact(
            base, base + indicator(2, *extra))
        assert not rep.success
        assert rep.to_json_dict() == want.to_json_dict()

    def test_exact_counterexample_off_the_origin(self):
        # the sides differ where y > -3; the first such cell, x > 1 and
        # y > -3, inherits the witness (2, 0) of its parent x > 1, yet the
        # report names the point a search on the cell itself finds
        lhs = indicator(2, halfspace((1, 0), 1))
        rhs = lhs + indicator(2, halfspace((0, 1), -3, True))
        rep = verify_identity_exact(lhs, rhs)
        assert rep.counterexample == {"point": ["2", "-2"], "lhs": "1",
                                      "rhs": "2"}
        want = indicator_oracle.verify_identity_exact(lhs, rhs)
        assert rep.to_json_dict() == want.to_json_dict()

    def test_exact_witness_reuse_halves_feasibility_calls(
            self, pyramid_poly, monkeypatch):
        # each branch extends its parent's levels; a witness is solved only
        # for a branch the parent's witness misses, against the oracle's one
        # feasible_point call per branch
        import conedec.indicators
        from conedec.feasibility import witness
        from helpers import feasible_point
        solved, calls = [], []

        def counted_witness(levels):
            solved.append(1)
            return witness(levels)

        def counted(system, dim):
            calls.append(1)
            return feasible_point(system, dim)
        monkeypatch.setattr(conedec.indicators, "witness", counted_witness)
        monkeypatch.setattr(indicator_oracle, "feasible_point", counted)
        lhs = gram_decomposition(pyramid_poly)
        rhs = indicator_of_polytope(pyramid_poly)
        got = verify_identity_exact(lhs, rhs)
        want = indicator_oracle.verify_identity_exact(lhs, rhs)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.points_checked == 101
        assert 0 < 3 * len(solved) <= len(calls)

    def test_exact_pyramid_gram_projects_less(self, pyramid_poly,
                                              monkeypatch):
        # a plane constant on the cell, or any `=` side, is settled without
        # feasibility.project: 149 calls, where projecting the `=` side when
        # the opposite strict side is empty made 184, and projecting every
        # side the parent's point misses made 273
        import conedec.indicators
        from conedec.feasibility import project
        calls = []

        def counted(levels, rows, dim):
            calls.append(1)
            return project(levels, rows, dim)
        monkeypatch.setattr(conedec.indicators, "project", counted)
        rep = verify_identity_exact(gram_decomposition(pyramid_poly),
                                    indicator_of_polytope(pyramid_poly))
        assert rep.success and rep.points_checked == 101
        assert len(calls) <= 149

    def test_exact_cells_prove_only_strict_sides_empty(self, corpus,
                                                       monkeypatch):
        # convexity settles an `=` side from the strict sides, so every
        # projection that comes back empty was handed one strict row
        import conedec.indicators
        from conedec.feasibility import project
        empty = []

        def recorded(levels, rows, dim):
            lv = project(levels, rows, dim)
            if lv is None:
                empty.append(rows)
            return lv
        monkeypatch.setattr(conedec.indicators, "project", recorded)
        for entry, p in corpus:
            if p.dim <= 3:
                rep = verify_identity_exact(gram_decomposition(p),
                                            indicator_of_polytope(p))
                assert rep.success, entry.name
        assert empty and all(len(rows) == 1 and rows[0].strict
                             for rows in empty)


def rationals(max_den):
    return st.builds(Fraction, st.integers(-40, 40), st.integers(1, max_den))


@st.composite
def pieces_and_points(draw):
    """A piece of closed and strict rows with offsets over denominators up to
    10⁶, and points: some on a row's hyperplane, some anywhere."""
    dim = draw(st.integers(1, 3))
    normals = st.lists(st.integers(-5, 5), min_size=dim,
                       max_size=dim).filter(any)
    offsets = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                        st.integers(1, 10 ** 6))
    rows = draw(st.lists(st.builds(halfspace, normals, offsets, st.booleans()),
                         min_size=1, max_size=5))
    points = draw(st.lists(st.lists(rationals(10 ** 6), min_size=dim,
                                    max_size=dim), min_size=1, max_size=4))
    for h in rows:  # move a coordinate so the point lies on h's hyperplane
        x = list(draw(st.sampled_from(points)))
        k = next(i for i, a in enumerate(h.normal) if a)
        x[k] = 0
        x[k] = (h.offset - dot(h.normal, x)) / h.normal[k]
        points.append(x)
    return LocallyClosedPiece(dim, tuple(rows)), points


class TestIntegerPoints:
    """Points are scaled once to integers nums/den and tested against integer
    rows; the results are those of the Fraction bodies they replaced
    (tests/indicator_oracle.py)."""

    @given(pieces_and_points())
    @settings(max_examples=200, deadline=None)
    def test_contains_matches_the_fraction_test(self, case):
        pc, points = case
        for x in points:
            assert pc.contains(x) == indicator_oracle.contains(pc, x)
            den = lcm(*(c.denominator for c in x))
            nums = [c.numerator * (den // c.denominator) for c in x]
            for h in pc.constraints:
                s = dot(h.normal, x) - h.offset
                assert h.side(nums, den) == (s > 0) - (s < 0)

    def test_contains_refuses_a_point_of_another_dimension(self):
        pc = piece(2, [halfspace((1, 0), 0)], (0, 0))
        with pytest.raises(DimensionError):
            pc.contains((1,))

    @given(st.lists(st.tuples(rationals(12), rationals(12)), min_size=1,
                    max_size=3),
           st.integers(0, 2 ** 32), st.integers(0, 40))
    @example([(Fraction(1, 3), Fraction(2, 5))], 0, 40)
    @example([(Fraction(1, 3), Fraction(1, 3)), (0, 5)], 7, 40)
    @settings(max_examples=200, deadline=None)
    def test_sampler_yields_the_fraction_stream(self, box, seed, count):
        # unsorted axes make empty boxes, which yield nothing on both sides
        assert (list(random_rational_points(box, count, seed))
                == list(indicator_oracle.random_rational_points(box, count,
                                                                seed)))

    def test_sampler_raises_the_denominator(self):
        # [1/3, 2/5] holds no multiple of 1/den for den = 1, 2 or 4, which
        # are raised to 3, 6 and 12; it holds 1/3, 2/5 and 2/6
        dens = {den for _nums, den in random_rational_points(
            [(Fraction(1, 3), Fraction(2, 5))], 200, 0)}
        assert dens == {3, 5, 6, 12}

    def test_samples_count_against_the_grid_budget(self):
        box = [(0, 9)]  # 10 grid points at step 1
        assert next(grid_points(box, 1, GRID_POINT_BUDGET - 10)) == ((0,), 1)
        with pytest.raises(ValueError) as exc:
            grid_points(box, 1, GRID_POINT_BUDGET - 9)
        assert str(exc.value) == (
            f"grid of 10 points and {GRID_POINT_BUDGET - 9} samples (box "
            f"[0, 9], step 1) exceeds the budget of {GRID_POINT_BUDGET}; "
            "use fewer --samples")
        # an oversized grid keeps its own message, whatever the samples
        with pytest.raises(ValueError, match=r"^grid of 1000000000000000001 "
                           r"points \(box"):
            grid_points([(0, 10 ** 18)], 1, 5)

    def test_verify_refuses_too_many_samples_before_any_point(self,
                                                              monkeypatch):
        drawn = []
        monkeypatch.setattr(indicators, "random_rational_points",
                            lambda *args: drawn.append(args) or iter(()))
        s = indicator_of_polytope(SEG)
        t = time.perf_counter()
        with pytest.raises(ValueError, match="samples"):
            verify_identity(s, s, default_box(SEG), 1, GRID_POINT_BUDGET)
        assert time.perf_counter() - t < 1.0 and not drawn
