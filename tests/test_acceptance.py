"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with pytest -s / -rA); all
comparisons are exact, there are no numeric tolerances anywhere.
"""

import time
from fractions import Fraction

import pytest

from conedec.deform import (compatible_decomposition, compatible_from_dual,
                            local_contribution, local_contributions,
                            nonsimple_decomposition, normal_cone_rays,
                            positive_conic_check, seeded_dual_heights,
                            vertex_triangulation)
from conedec.genfunc import (brion_gf, brute_force_count, count_lattice_points,
                             gf_brute_force, gf_equal_as_functions,
                             gf_of_indicator_sum, make_term)
from conedec.indicators import (ZPoly, default_box, gram_decomposition,
                                indicator_of_interior, indicator_of_polytope,
                                piece, verify_identity, weighted_indicator)
from conedec.polar import (lv_decomposition, partition_identity,
                           rearrange_for_vertex, weighted_lv_decomposition)
from conedec.polyhedra import center_at_barycenter, polytope_from_vertices
from conedec.triangulation import regular_triangulation

from conftest import seeded_generic_functionals
from helpers import dot, flip_one_constraint, piece_gf
from indicator_oracle import evaluate
from lattice_oracle import lattice_points
from triangulation_oracle import verify_certificates

BOX6 = [(Fraction(-6), Fraction(6))] * 3
APEX_RAYS = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def test_criterion_01_segment_generating_function():
    t0 = time.monotonic()
    seg = polytope_from_vertices([(-3,), (5,)])
    g = brion_gf(seg)
    expected = {make_term(1, [(-3,)], [(1,)]), make_term(-1, [(6,)], [(1,)])}
    assert set(g.terms) == expected
    assert count_lattice_points(g) == 9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"segment gf is x^-3/(1-x) - x^6/(1-x), count 9 ({elapsed:.2f}s)")


def test_criterion_02_counting_oracle_equivalence():
    t0 = time.monotonic()
    from conedec.corpus import build_corpus
    entries = build_corpus()
    assert len(entries) >= 12
    assert {e.dim for e in entries} == {1, 2, 3, 4}
    for e in entries:
        p = e.build()
        brute = brute_force_count(p)
        brion = count_lattice_points(brion_gf(p))
        assert brion == brute == len(lattice_points(p)) == e.expected_count, \
            e.name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(2, f"brion count = brute count on {len(entries)} corpus entries "
              f"({elapsed:.1f}s)")


def test_criterion_03_brianchon_gram_everywhere(corpus):
    points = 0
    for entry, p in corpus:
        rep = verify_identity(gram_decomposition(p), indicator_of_polytope(p),
                              default_box(p), Fraction(1, 2),
                              extra_samples=200, seed=17, name="gram")
        assert rep.success, (entry.name, rep.counterexample)
        points += rep.points_checked
    report(3, f"alternating tangent-cone sum = indicator at {points} points")


def test_criterion_04_polar_decomposition_simple(corpus):
    lv_points = 0
    pairs = 0
    for entry, p in corpus:
        if not entry.simple:
            continue
        box = default_box(p)
        for k, xi in enumerate(seeded_generic_functionals(p, 5, seed=23)):
            rep = verify_identity(lv_decomposition(p, xi),
                                  indicator_of_polytope(p), box,
                                  Fraction(1, 2), 50, k, name="lv")
            assert rep.success, (entry.name, xi, rep.counterexample)
            lv_points += rep.points_checked
            for vid in range(len(p.vertices)):
                lhs, rhs = rearrange_for_vertex(p, vid, xi)
                rep = verify_identity(lhs, rhs, box, Fraction(1, 2), 20, k)
                assert rep.success, (entry.name, vid, xi, rep.counterexample)
                pairs += 1
        for vid in range(len(p.vertices)):
            rep = verify_identity(*partition_identity(p, vid), box,
                                  Fraction(1, 2), 20, 0)
            assert rep.success, (entry.name, vid, rep.counterexample)
    report(4, f"polar decomposition ok ({lv_points} points), "
              f"vertex grouping ok for {pairs} (vertex, functional) pairs, "
              f"sign patterns partition at every simple vertex")


def test_criterion_05_weighted_decomposition(corpus):
    checked = 0
    for entry, p in corpus:
        if not entry.simple:
            continue
        xi = seeded_generic_functionals(p, 1, seed=29)[0]
        box = default_box(p)
        w = weighted_lv_decomposition(p, xi)
        rep = verify_identity(w, weighted_indicator(p), box, Fraction(1, 2),
                              50, 29, name="weighted")
        assert rep.success, (entry.name, rep.counterexample)
        checked += rep.points_checked
        rep = verify_identity(w.substitute(1), indicator_of_polytope(p), box,
                              Fraction(1, 2), 50, 29, name="weighted@1")
        assert rep.success, (entry.name, rep.counterexample)
        rep = verify_identity(w.substitute(0), indicator_of_interior(p), box,
                              Fraction(1, 2), 50, 29, name="weighted@0")
        assert rep.success, (entry.name, rep.counterexample)
    report(5, f"weighted decomposition = weighted indicator at {checked} "
              f"points; z=1 and z=0 reductions exact")


def test_criterion_06_pyramid_nonsimple_example(pyramid_poly):
    t0 = time.monotonic()
    p = pyramid_poly
    xi = (4, 2, 0)
    tri1 = regular_triangulation(APEX_RAYS, [1, 1, 0, 0])
    tri2 = regular_triangulation(APEX_RAYS, [0, 0, 1, 1])
    assert tri1.cells == ((0, 2, 3), (1, 2, 3))
    assert tri2.cells == ((0, 1, 2), (0, 1, 3))
    lc1 = local_contribution(p, 0, tri1, xi)
    lc2 = local_contribution(p, 0, tri2, xi)
    assert lc1.cell_indices == (2, 1)
    assert lc2.cell_indices == (1, 2)
    assert evaluate(lc1.sum, (3, 0, 0)).at_one() == -1
    assert evaluate(lc2.sum, (3, 0, 0)).at_one() == -1
    rep = verify_identity(lc1.sum, lc2.sum, BOX6, Fraction(1, 2))
    assert rep.success and rep.points_checked == 25 ** 3
    apex_order = normal_cone_rays(p, 0)
    heights = {0: [[1, 1, 0, 0][APEX_RAYS.index(r)] for r in apex_order]}
    dec = nonsimple_decomposition(p, xi, heights)
    rep7 = verify_identity(dec, indicator_of_polytope(p), BOX6, Fraction(1, 2),
                           0, 0, name="pyramid-decomposition")
    assert rep7.success and rep7.points_checked == 25 ** 3
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(6, f"pyramid: indices (2,1)/(1,2), value -1 at (3,0,0), "
              f"both identities on 25^3 grid ({elapsed:.1f}s)")


def test_criterion_07_octahedron_nonsimple():
    octa = polytope_from_vertices(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    box = default_box(octa)
    for seed in range(3):
        xi = seeded_generic_functionals(octa, 1, seed=31 + seed)[0]
        contribs = {}
        for hseed in (0, 5):
            dec = nonsimple_decomposition(octa, xi, seed=hseed)
            rep = verify_identity(dec, indicator_of_polytope(octa), box,
                                  Fraction(1, 2), 60, hseed)
            assert rep.success, (xi, hseed, rep.counterexample)
            contribs[hseed] = local_contributions(octa, xi, seed=hseed)
        for vid in range(len(octa.vertices)):
            t1 = vertex_triangulation(octa, vid, seed=0)
            t2 = vertex_triangulation(octa, vid, seed=5)
            rep = verify_identity(
                local_contribution(octa, vid, t1, xi).sum,
                local_contribution(octa, vid, t2, xi).sum, box,
                Fraction(1, 2), 40, 0)
            assert rep.success, (xi, vid, rep.counterexample)
    report(7, "octahedron: decomposition and triangulation-independence "
              "for 3 functionals x 2 height draws")


def test_criterion_08_compatible_from_dual(pyramid_poly):
    octa = polytope_from_vertices(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    dh = seeded_dual_heights(octa, 3)
    tris = compatible_from_dual(octa, dh)
    assert all(verify_certificates(t) for t in tris.values())
    dec = compatible_decomposition(octa, (4, 2, 1), dh)
    rep = verify_identity(dec, indicator_of_polytope(octa), default_box(octa),
                          Fraction(1, 2), 100, 37)
    assert rep.success, rep.counterexample
    shifted, _ = center_at_barycenter(pyramid_poly)
    dh = seeded_dual_heights(shifted, 5)
    dec = compatible_decomposition(shifted, (4, 2, 1), dh)
    rep = verify_identity(dec, indicator_of_polytope(shifted),
                          default_box(shifted), Fraction(1, 2), 100, 37)
    assert rep.success, rep.counterexample
    report(8, "polar-dual-induced triangulations sum to the indicator on the "
              "octahedron and the centered pyramid")


def test_criterion_09_positive_conic_checker(pyramid_poly):
    p = pyramid_poly
    xi = (4, 2, 0)
    apex_order = normal_cone_rays(p, 0)
    families = []
    for hs in ([1, 1, 0, 0], [0, 0, 1, 1]):
        heights = {0: [hs[APEX_RAYS.index(r)] for r in apex_order]}
        families.append(local_contributions(p, xi, heights))
    sq = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    families.append(local_contributions(sq, (1, 2)))
    for fam in families:
        reports = positive_conic_check(
            fam, (4, 2, 0) if len(fam) == 5 else (1, 2))
        assert all(r.success for r in reports), reports
    mutated = dict(families[0])
    mutated[0] = flip_one_constraint(mutated[0], 0, 0)
    rep = positive_conic_check(mutated, xi)[0]
    assert not rep.success and rep.identity == "positive@v0"
    x = tuple(Fraction(c) for c in rep.counterexample["point"])
    t = tuple(a - b for a, b in zip(x, mutated[0].vertex))
    assert (dot(xi, t), *t) < (0, 0, 0, 0)  # the perturbed ξ decreases
    assert evaluate(mutated[0].sum, x) != ZPoly(())
    report(9, f"all generated families certified exactly; mutated family "
              f"rejected with witness point {rep.counterexample['point']}")


def test_criterion_10_line_containing_cones_vanish():
    seg = polytope_from_vertices([(-3,), (5,)])
    assert piece_gf(piece(1, (), (0,))).terms == ()
    image = gf_of_indicator_sum(gram_decomposition(seg))
    assert set(image.terms) == {make_term(1, [(-3,)], [(1,)]),
                                make_term(-1, [(6,)], [(1,)])}
    assert gf_equal_as_functions(image, gf_brute_force(seg))
    report(10, "whole-line piece has zero gf; segment image keeps only the "
               "two vertex terms")
