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
    return str(frac(x))


def _vector(row, dim: int, where: str) -> list:
    """dim exact rationals; a bad row is refused by where it is."""
    if not isinstance(row, list) or len(row) != dim:
        raise ValueError(f"{where} must be a list of {dim} rationals, "
                         f"got {row!r}")
    try:
        return [frac(x) for x in row]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def polytope_from_json(obj: dict) -> Polytope:
    """A polytope from {"dim", "vertices"} or from {"dim", "inequalities"},
    each inequality {"normal", "offset"} for normal·x ≥ offset.  A ValueError
    names the field at fault; an object with both fields is refused."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("polytope JSON needs a 'dim' field")
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:  # a float or a bool would pass int()
        raise ValueError(f"'dim' must be a positive integer, got {dim!r}")
    field = next((f for f in ("vertices", "inequalities") if f in obj), None)
    if field is None or (field == "vertices" and "inequalities" in obj):
        raise ValueError("polytope JSON needs 'vertices' or 'inequalities'"
                         + (", not both" if field else ""))
    if not isinstance(rows := obj[field], list):
        raise ValueError(f"'{field}' must be a list, got {rows!r}")
    if field == "vertices":
        return polytope_from_vertices([_vector(row, dim, f"vertices[{i}]")
                                       for i, row in enumerate(rows)])
    hs = []
    for i, ineq in enumerate(rows):
        at = f"inequalities[{i}]"
        if not isinstance(ineq, dict) or not {"normal", "offset"} <= ineq.keys():
            raise ValueError(f"{at} must be an object with 'normal' and "
                             f"'offset', got {ineq!r}")
        normal = _vector(ineq["normal"], dim, f"{at}.normal")
        (offset,) = _vector([ineq["offset"]], 1, f"{at}.offset")
        if not any(normal):
            raise ValueError(f"{at}.normal is zero")
        hs.append(halfspace(normal, offset))
    return polytope_from_halfspaces(hs)


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
