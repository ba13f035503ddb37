from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conedec.feasibility import feasible_point

F = Fraction


def con(coeffs, rhs, strict=False):
    return (tuple(F(c) for c in coeffs), F(rhs), strict)


def test_box_witness():
    rows = [con((1, 0), 0), con((-1, 0), -1), con((0, 1), 0), con((0, -1), -1)]
    w = feasible_point(rows, 2)
    assert all(c[0][0] * w[0] + c[0][1] * w[1] >= c[1] for c in rows)


def test_empty_closed_interval():
    assert feasible_point([con((1,), 1), con((-1,), 0)], 1) is None


def test_point_interval_needs_closed():
    assert feasible_point([con((1,), 1), con((-1,), -1)], 1) is not None
    assert feasible_point([con((1,), 1, True), con((-1,), -1)], 1) is None


def test_strict_open_box_witness_is_interior():
    rows = [con((1,), 0, True), con((-1,), -1, True)]
    w = feasible_point(rows, 1)
    assert 0 < w[0] < 1


def test_unbounded_direction():
    w = feasible_point([con((1, 1), 10)], 2)
    assert w[0] + w[1] >= 10


def test_degenerate_equality_chain():
    # x = y = z = 1/3 forced by three equalities written as pairs
    rows = []
    for coeffs, rhs in [((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1)]:
        rows.append(con(coeffs, rhs))
        rows.append(con(tuple(-c for c in coeffs), -rhs))
    w = feasible_point(rows, 3)
    assert w == (F(1, 3), F(1, 3), F(1, 3))


@given(st.lists(
    st.tuples(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
              st.integers(-6, 6), st.booleans()),
    min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_witness_soundness(rows_raw):
    rows = [con(c, r, s) for c, r, s in rows_raw]
    w = feasible_point(rows, 2)
    if w is not None:
        for coeffs, rhs, strict in rows:
            val = coeffs[0] * w[0] + coeffs[1] * w[1]
            assert val > rhs if strict else val >= rhs
