import json
from fractions import Fraction

import pytest

from conedec.genfunc import brion_gf, gf_equal_as_functions
from conedec.indicators import gram_decomposition
from conedec.jsonio import (gf_to_json, indicator_sum_to_json,
                            polytope_from_json, rat_str)
from conedec.polar import lv_decomposition
from conedec.polyhedra import polytope_from_vertices

from helpers import gf_from_json, indicator_sum_from_json, polytope_to_json


def test_rat_str():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-5, 2)) == "-5/2"


def test_polytope_roundtrip_via_vertices(corpus):
    for entry, p in corpus:
        q = polytope_from_json(json.loads(json.dumps(polytope_to_json(p))))
        assert set(q.vertices) == set(p.vertices), entry.name


def test_polytope_roundtrip_via_inequalities(pyramid_poly):
    q = polytope_from_json(polytope_to_json(pyramid_poly, "inequalities"))
    assert set(q.vertices) == set(pyramid_poly.vertices)


def test_rational_vertices_survive():
    p = polytope_from_vertices([(Fraction(-3, 2),), (Fraction(5, 2),)])
    obj = polytope_to_json(p)
    assert obj["vertices"] == [["-3/2"], ["5/2"]]
    q = polytope_from_json(obj)
    assert set(q.vertices) == set(p.vertices)


def test_indicator_sum_roundtrip(pyramid_poly):
    s = gram_decomposition(pyramid_poly)
    back = indicator_sum_from_json(
        json.loads(json.dumps(indicator_sum_to_json(s))), pyramid_poly.dim)
    assert back.terms == s.terms


def test_indicator_sum_roundtrip_with_strict(pyramid_poly):
    sq = polytope_from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    s = lv_decomposition(sq, (1, 2))
    back = indicator_sum_from_json(indicator_sum_to_json(s), 2)
    assert back.terms == s.terms


def test_gf_roundtrip(pyramid_poly):
    g = brion_gf(pyramid_poly)
    back = gf_from_json(json.loads(json.dumps(gf_to_json(g))))
    assert set(back.terms) == set(g.terms)
    assert gf_equal_as_functions(back, g)


def test_bad_polytope_json_rejected():
    with pytest.raises(ValueError):
        polytope_from_json({"vertices": [["0"]]})
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 2})
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 2, "vertices": [["0"], ["1"]]})
    # int() would read these as 2 and 1, and both polytopes would load
    with pytest.raises(ValueError):
        polytope_from_json({"dim": 2.7, "vertices": [["0", "0"], ["1", "0"],
                                                     ["0", "1"]]})
    with pytest.raises(ValueError):
        polytope_from_json({"dim": True, "vertices": [["0"], ["1"]]})


def test_both_forms_refused():
    # the inequality x₁ ≥ 5 misses the triangle, which loaded on its own
    with pytest.raises(ValueError, match="^polytope JSON needs 'vertices' or "
                                         "'inequalities', not both$"):
        polytope_from_json({
            "dim": 2, "vertices": [["0", "0"], ["4", "0"], ["0", "4"]],
            "inequalities": [{"normal": ["1", "0"], "offset": "5"}]})
