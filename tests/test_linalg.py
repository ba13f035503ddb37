from fractions import Fraction
from itertools import permutations, product
from math import floor, prod
from typing import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedec.linalg import (DimensionError, dual_basis, frac, hermite,
                            integer_inverse, kernel_basis, perturbed_key,
                            primitive, rank, residue_box)
import linalg_oracle
from helpers import dot, integer_rows
from linalg_oracle import determinant, mat_inverse, mat_vec, solve_linear


def mat_mul(a, b):
    """Oracle matrix product for the multiplicativity and inverse tests."""
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def square_matrix(n, elems=st.integers(min_value=-9, max_value=9)):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n)


class TestSolve:
    def test_identity_case(self):
        assert solve_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3]) == \
            (Fraction(1), Fraction(2), Fraction(3))

    def test_diagonal_exact(self):
        x = solve_linear([[2, 0], [0, 4]], [1, 1])
        assert x == (Fraction(1, 2), Fraction(1, 4))
        # substitute back
        assert [2 * x[0], 4 * x[1]] == [1, 1]

    def test_inconsistent_rows(self):
        assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None

    def test_underdetermined(self):
        assert solve_linear([[1, 1]], [3]) is None

    def test_overdetermined_consistent(self):
        x = solve_linear([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert x == (Fraction(2), Fraction(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear([[1, 0], [0, 1]], [1, 2, 3])


class TestDeterminant:
    def test_identity(self):
        assert determinant([[1, 0], [0, 1]]) == 1

    def test_diagonal(self):
        assert determinant([[2, 0], [0, 3]]) == 6

    def test_singular(self):
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_rational_entries(self):
        assert determinant([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant([[1, 2, 3], [4, 5, 6]])

    @given(square_matrix(3), square_matrix(3))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, a, b):
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


class TestExactArithmetic:
    @given(rationals, rationals)
    @settings(max_examples=100)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a

    @given(rationals)
    @settings(max_examples=100)
    def test_no_rounding_on_division(self, a):
        if a != 0:
            assert (a * 3) / 3 == a and a / a == 1


def nonsingular_matrix(n, bound):
    return square_matrix(n, st.integers(min_value=-bound, max_value=bound)
                         ).filter(lambda a: determinant(a) != 0)


def perturbed_sign(xi, h):
    """The sign of (ξ + εe₁ + ε²e₂ + …)·h as ε → 0⁺: that of the first
    nonzero entry of (ξ·h, h₁, h₂, …)."""
    return next((x > 0) - (x < 0) for x in (dot(xi, h), *h) if x != 0)


class TestDualBasis:
    @given(st.integers(1, 4).flatmap(lambda n: nonsingular_matrix(n, 5)),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_primitive_rows_of_the_inverse(self, gens, data):
        d = len(gens)
        # negating one generator flips the sign of the determinant
        flipped = [tuple(-x for x in gens[0])] + list(gens[1:])
        drawn = data.draw(st.tuples(*[st.integers(-3, 3)] * d))
        for cone in (gens, flipped):
            cols = tuple(zip(*cone))
            # ξ = 0 vanishes on every dual, the last generator on all others
            for xi in (drawn, (0,) * d, cone[-1]):
                inv, duals, signs = dual_basis(cone, xi)
                assert inv == integer_inverse(cols)
                assert duals == tuple(primitive(row)
                                      for row in mat_inverse(cols))
                assert all(dot(h, g) > 0 if i == j else dot(h, g) == 0
                           for i, h in enumerate(duals)
                           for j, g in enumerate(cone))
                zero = (0,) * (d + 1)
                assert signs == tuple(perturbed_sign(xi, h) for h in duals)
                assert all((perturbed_key(xi, h) > zero) == (s > 0)
                           for h, s in zip(duals, signs))
            assert dual_basis(cone) == (inv, duals, ())

    def test_singular_input(self):
        for gens in ([(0,)], [(1, 2), (2, 4)], [(1, 0, 1), (0, 1, 1), (1, 1, 2)],
                     [(1, 0, 0), (0, 1, 0)], [(1, 0), (0, 1), (1, 1)]):
            with pytest.raises(ValueError, match="^generators must be d "
                                                 "linearly independent vectors$"):
                dual_basis(gens)


class TestResidueBox:
    def assert_complete_residue_system(self, a):
        """|det| box points, no two congruent: x ≡ y exactly when
        a⁻¹·x and a⁻¹·y have the same fractional parts."""
        sides = residue_box(a)
        assert all(h > 0 for h in sides)
        assert prod(sides) == abs(determinant(a))
        inv = mat_inverse(a)
        classes = {tuple(c - floor(c) for c in mat_vec(inv, x))
                   for x in product(*(range(h) for h in sides))}
        assert len(classes) == prod(sides)
        return sides

    def test_known_sides(self):
        assert self.assert_complete_residue_system([[1, 0], [5, 1]]) == (1, 1)
        assert self.assert_complete_residue_system([[2, 0], [0, 3]]) == (2, 3)
        # columns (1, 1) and (0, 2): row 0 alone has gcd 1, det is 2
        assert self.assert_complete_residue_system([[1, 0], [1, 2]]) == (1, 2)

    def test_singular_rejected(self):
        for cols in ([[1, 2], [2, 4]], [[0, 0], [1, 1]], [[1], [2]],
                     [[3, 0, 1], [6, 0, 2]]):
            for box in (residue_box, linalg_oracle.residue_box):
                with pytest.raises(ValueError, match="^residue_box: columns "
                                   "do not span a full-rank lattice$"):
                    box(cols)

    @given(st.integers(1, 5).flatmap(lambda n: nonsingular_matrix(n, 10 ** 6)))
    @example([[10 ** 6, 0], [0, 10 ** 6]])
    @example([[6, 4, 2], [0, 6, 3], [-10 ** 6, 0, 4]])
    @example([[0, 0, 3, 0], [-2, 0, 0, 5], [0, 4, 0, 0], [0, 0, 0, -7]])
    @settings(max_examples=150, deadline=None)
    def test_hermite_normal_form(self, a):
        """H is lower triangular with 0 <= h_ij < h_ii, its columns lie in
        the lattice of a's columns and it has the same |det|, so it spans
        that lattice; its diagonal is the minor-gcd oracle's box."""
        h = hermite(a)
        n = len(a)
        assert all(h[i][j] == 0 for i in range(n) for j in range(i + 1, n))
        assert all(0 <= h[i][j] < h[i][i] for i in range(n) for j in range(i))
        assert all(x.denominator == 1
                   for x in (c for row in mat_mul(mat_inverse(a), h) for c in row))
        assert prod(h[i][i] for i in range(n)) == abs(determinant(a))
        assert residue_box(a) == linalg_oracle.residue_box(a) \
            == tuple(h[i][i] for i in range(n))

    @given(nonsingular_matrix(3, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_3x3(self, a):
        self.assert_complete_residue_system(a)

    @given(nonsingular_matrix(4, 6))
    @settings(max_examples=30, deadline=None)
    def test_random_4x4(self, a):
        self.assert_complete_residue_system(a)


class TestHelpers:
    def test_primitive(self):
        assert primitive((Fraction(1, 2), Fraction(3, 2))) == (1, 3)
        assert primitive((-2, -4)) == (-1, -2)
        with pytest.raises(ValueError):
            primitive((0, 0))

    def test_kernel_basis(self):
        ker = kernel_basis([[1, 1, 0]])
        assert len(ker) == 2
        for v in ker:
            assert v[0] + v[1] == 0

    def test_mat_inverse(self):
        inv = mat_inverse([[2, 0], [1, 1]])
        assert mat_mul([[2, 0], [1, 1]], inv) == \
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_frac_rejects_floats(self):
        with pytest.raises(TypeError):
            frac(0.5)

    @pytest.mark.parametrize("x", [True, False])
    def test_frac_rejects_bools(self, x):
        with pytest.raises(TypeError, match="got bool"):
            frac(x)


# ---------------------------------------------------------------------------
# Reference: Fraction Gauss–Jordan elimination
# ---------------------------------------------------------------------------

def _rref(rows: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    m = [[frac(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=4))


@st.composite
def rational_matrices(draw, nrows=None, ncols=None):
    """Small rational matrices; some rows are combinations of earlier rows
    (rank-deficient) and some are zero."""
    nrows = draw(st.integers(1, 4)) if nrows is None else nrows
    ncols = draw(st.integers(1, 4)) if ncols is None else ncols
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["free"] * 5 + ["combination", "zero"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(small_rationals, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)),
                             Fraction(0)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(small_rationals, min_size=ncols,
                                      max_size=ncols)))
    return draw(st.permutations(rows))


class TestAgainstReferenceElimination:
    @given(rational_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank(self, a):
        assert rank(integer_rows(a)) == len(_rref(a)[1])

    @pytest.mark.parametrize("entry", [Fraction(1), Fraction(1, 2), 1.0, True])
    def test_rank_refuses_a_non_integer_entry(self, entry):
        with pytest.raises(TypeError, match="^rank: rows must be integers"):
            rank([[1, 0], [0, entry]])

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1, max_size=5)))
    @settings(max_examples=100, deadline=None)
    def test_int_rows_take_the_same_answers(self, a):
        # rank takes int rows as they are, and primitive skips the Fraction
        # round trip on them
        as_fractions = [[Fraction(x) for x in r] for r in a]
        assert rank(a) == rank(integer_rows(as_fractions)) == \
            len(_rref(as_fractions)[1])
        for r, f in zip(a, as_fractions):
            if any(r):
                assert primitive(r) == primitive(f)

    @given(rational_matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis(self, a):
        ncols = len(a[0])
        m, pivots = _rref(a)
        expect = []
        for f in (c for c in range(ncols) if c not in pivots):
            x = [Fraction(0)] * ncols
            x[f] = Fraction(1)
            for i, c in enumerate(pivots):
                x[c] = -m[i][f]
            expect.append(tuple(x))
        assert kernel_basis(a) == expect

    @given(st.integers(1, 4).flatmap(lambda n: rational_matrices(n, n)))
    @settings(max_examples=100, deadline=None)
    def test_mat_inverse(self, a):
        n = len(a)
        m, pivots = _rref([list(r) + [Fraction(int(i == j)) for j in range(n)]
                           for i, r in enumerate(a)])
        if pivots != list(range(n)):
            with pytest.raises(ValueError):
                mat_inverse(a)
        else:
            assert mat_inverse(a) == tuple(tuple(m[i][n:]) for i in range(n))

    @given(st.integers(1, 4).flatmap(square_matrix))
    @settings(max_examples=100, deadline=None)
    def test_integer_inverse(self, a):
        det, n = _leibniz_det(a), len(a)
        if det == 0:
            assert integer_inverse(a) is None
        else:
            d, adj = integer_inverse(a)
            assert d == det
            assert mat_mul(a, adj) == tuple(
                tuple(det * int(i == j) for j in range(n)) for i in range(n))

    @given(rational_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_solve_linear(self, a, data):
        ncols = len(a[0])
        x = data.draw(st.lists(small_rationals, min_size=ncols, max_size=ncols))
        b = data.draw(st.one_of(
            st.just([sum(r[j] * x[j] for j in range(ncols)) for r in a]),
            st.lists(small_rationals, min_size=len(a), max_size=len(a))))
        m, pivots = _rref([list(r) + [rhs] for r, rhs in zip(a, b)])
        if pivots != list(range(ncols)):
            assert solve_linear(a, b) is None
        else:
            assert solve_linear(a, b) == tuple(m[i][ncols] for i in range(ncols))

    @given(st.integers(1, 4).flatmap(lambda n: rational_matrices(n, n)))
    @settings(max_examples=100, deadline=None)
    def test_determinant(self, a):
        det = determinant(a)
        assert det == _leibniz_det(a)
        assert (det == 0) == (len(_rref(a)[1]) < len(a))

    def test_no_rows(self):
        assert rank([]) == len(_rref([])[1]) == 0
        assert solve_linear([], []) == ()
        assert mat_inverse([]) == ()
        assert integer_inverse([]) == (1, ())
        assert determinant([]) == 1
