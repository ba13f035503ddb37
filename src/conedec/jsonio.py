"""JSON serialization: rationals as strings, everything else plain lists.

Rationals are always written as "p/q" (or "p" for integers) so files are
bit-exact and diffable.
"""

from __future__ import annotations

from .genfunc import RationalGF, gf_pretty
from .indicators import IndicatorSum
from .linalg import frac
from .polyhedra import (Halfspace, Polytope, halfspace, polytope_from_halfspaces,
                        polytope_from_vertices)


def rat_str(x) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def polytope_from_json(obj: dict) -> Polytope:
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("polytope JSON needs a 'dim' field")
    dim = obj["dim"]
    if type(dim) is not int:  # a float or a bool would pass int()
        raise ValueError(f"'dim' must be an integer, got {dim!r}")
    if "vertices" in obj:
        verts = [[frac(x) for x in row] for row in obj["vertices"]]
        if any(len(v) != dim for v in verts):
            raise ValueError("vertex dimension disagrees with 'dim'")
        return polytope_from_vertices(verts)
    if "inequalities" in obj:
        hs = []
        for ineq in obj["inequalities"]:
            normal = [frac(x) for x in ineq["normal"]]
            if len(normal) != dim:
                raise ValueError("normal dimension disagrees with 'dim'")
            hs.append(halfspace(normal, frac(ineq["offset"])))
        return polytope_from_halfspaces(hs)
    raise ValueError("polytope JSON needs 'vertices' or 'inequalities'")


def halfspace_to_json(h: Halfspace) -> dict:
    return {
        "normal": [str(a) for a in h.normal],
        "offset": rat_str(h.offset),
        "sense": "gt" if h.strict else "ge",
    }


def indicator_sum_to_json(s: IndicatorSum) -> list:
    out = []
    for coeff, pc in s.terms:
        out.append({
            "coeff": [str(c) for c in coeff.coeffs] or ["0"],
            "constraints": [halfspace_to_json(h) for h in pc.constraints],
        })
    return out


def gf_to_json(g: RationalGF) -> dict:
    return {
        "dim": g.dim,
        "terms": [
            {"coeff": rat_str(t.coeff),
             "numerator": [list(a) for a in t.numerators],
             "denominators": [list(b) for b in t.denominators]}
            for t in g.terms],
        "pretty": gf_pretty(g),
    }
