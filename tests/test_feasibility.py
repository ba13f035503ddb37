from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import fm_oracle
from indicator_oracle import satisfied
from conedec.feasibility import project, witness
from conedec.polyhedra import Halfspace, halfspace
from helpers import feasible_point

F = Fraction


def con(coeffs, rhs, strict=False):
    return halfspace(coeffs, rhs, strict)


def test_box_witness():
    rows = [con((1, 0), 0), con((-1, 0), -1), con((0, 1), 0), con((0, -1), -1)]
    w = feasible_point(rows, 2)
    assert all(satisfied(h, w) for h in rows)


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


def test_scaled_parallel_rows_bind_once():
    # 2x ≥ 1 and x ≥ 1 are one constraint, x ≥ 1, with x ≤ 1 forcing x = 1
    rows = [con((2,), 1), con((1,), 1), con((-1,), -1)]
    assert feasible_point(rows, 1) == (F(1),)


@given(st.lists(
    st.tuples(st.lists(st.integers(-4, 4), min_size=2, max_size=2).filter(any),
              st.integers(-6, 6), st.booleans()),
    min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_witness_soundness(rows_raw):
    rows = [con(c, r, s) for c, r, s in rows_raw]
    w = feasible_point(rows, 2)
    if w is not None:
        for h in rows:
            assert satisfied(h, w)


@st.composite
def systems(draw):
    """(dim, rows) with rows (normal, offset, strict) in 1–4 variables, some
    of them positive multiples of an earlier normal with their own offset."""
    dim = draw(st.integers(1, 4))
    normal = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    offset = st.fractions(-6, 6, max_denominator=3)
    rows = draw(st.lists(st.tuples(normal, offset, st.booleans()),
                         min_size=1, max_size=6))
    dups = draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(2, 3),
                                   offset, st.booleans()), max_size=3))
    rows += [(tuple(k * a for a in n), off, s)
             for (n, _off, _s), k, off, s in dups]
    return dim, rows


@given(systems())
@settings(max_examples=200, deadline=None)
def test_matches_triple_oracle(system):
    dim, rows = system
    triples = [(tuple(F(a) for a in n), F(off), s) for n, off, s in rows]
    assert (feasible_point([con(n, off, s) for n, off, s in rows], dim)
            == fm_oracle.feasible_point(triples, dim))


@given(systems())
@settings(max_examples=200, deadline=None)
def test_witness_is_the_oracle_point_over_its_lcm(system):
    dim, rows = system
    triples = [(tuple(F(a) for a in n), F(off), s) for n, off, s in rows]
    want = fm_oracle.feasible_point(triples, dim)
    levels = project((), [con(n, off, s) for n, off, s in rows], dim)
    assert (levels is None) == (want is None)
    if want is not None:
        den = lcm(*(x.denominator for x in want))
        assert witness(levels) == (tuple(int(x * den) for x in want), den)


def solve_in_chunks(rows, dim, cuts):
    """Witness of rows added to the levels one chunk at a time, as a
    ``Fraction`` point."""
    levels = ()
    for lo, hi in zip((0,) + cuts, cuts + (len(rows),)):
        levels = project(levels, rows[lo:hi], dim)
        if levels is None:
            return None
    nums, den = witness(project(levels, [], dim))
    return tuple(F(n, den) for n in nums)


@given(systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_extending_levels_matches_one_shot_and_oracle(system, data):
    dim, rows = system
    hs = [con(n, off, s) for n, off, s in rows]
    cuts = tuple(sorted(data.draw(st.lists(st.integers(0, len(hs)),
                                           max_size=len(hs)))))
    triples = [(tuple(F(a) for a in n), F(off), s) for n, off, s in rows]
    want = fm_oracle.feasible_point(triples, dim)
    assert feasible_point(hs, dim) == want
    assert solve_in_chunks(hs, dim, cuts) == want
    assert solve_in_chunks(hs, dim, tuple(range(1, len(hs)))) == want


@given(systems(), st.data())
@settings(max_examples=200, deadline=None)
def test_witness_depends_only_on_the_set(system, data):
    """Permuted, repeated, positively rescaled (left uncanonical) and
    implied rows describe the same set, so they give the same witness."""
    dim, rows = system
    hs = [con(n, off, s) for n, off, s in rows]
    want = feasible_point(hs, dim)
    same = data.draw(st.permutations(hs))
    same += data.draw(st.lists(st.sampled_from(hs), max_size=3))
    for h, k in data.draw(st.lists(st.tuples(st.sampled_from(hs),
                                             st.integers(2, 4)), max_size=3)):
        same.append(Halfspace(tuple(k * a for a in h.normal), k * h.offset,
                              h.strict))
    # a positive combination of two rows, loosened, is implied by them
    for i, j, a, b, slack in data.draw(st.lists(st.tuples(
            st.integers(0, len(hs) - 1), st.integers(0, len(hs) - 1),
            st.integers(1, 3), st.integers(1, 3),
            st.fractions(0, 2, max_denominator=3)), max_size=3)):
        n = tuple(a * x + b * y for x, y in zip(hs[i].normal, hs[j].normal))
        if any(n):
            same.append(halfspace(n, a * hs[i].offset + b * hs[j].offset - slack))
    assert feasible_point(same, dim) == want
