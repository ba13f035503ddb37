"""Test-only helpers: vertex lookup, the polar dual, a deliberately
corrupted local contribution, the CLI parser's option choices, the JSON
writer and readers that only tests use, a system's Fourier–Motzkin
witness as a ``Fraction`` point, a rational matrix scaled to integer rows,
the ``Fraction`` dot product of the oracles, and the generating function
of one piece or of one half-open simplicial cone."""

import argparse
from fractions import Fraction
from math import lcm

from conedec.cli import build_parser
from conedec.deform import (CLOSED, STRICT, LocalContribution, frame_piece,
                            simple_cone_frame)
from conedec.feasibility import project, witness
from conedec.genfunc import RationalGF, gf_of_indicator_sum, make_term
from conedec.indicators import ONE, IndicatorSum, LocallyClosedPiece, ZPoly
from conedec.jsonio import rat_str
from conedec.linalg import DimensionError, dual_basis, frac, vec
from conedec.polyhedra import (DegenerateInput, Polytope, halfspace,
                               polytope_from_halfspaces)


def dot(u, v) -> Fraction:
    """⟨u, v⟩ of two rational vectors of the same length, in ``Fraction``."""
    if len(u) != len(v):
        raise DimensionError(f"dot: {len(u)} vs {len(v)}")
    return sum((frac(a) * frac(b) for a, b in zip(u, v)), Fraction(0))


def vertex_index(p: Polytope, point) -> int:
    """Index of the vertex equal to the point."""
    try:
        return p.vertices.index(vec(point))
    except ValueError:
        raise ValueError(f"{point} is not a vertex") from None


def edges(p: Polytope) -> list:
    """The edges of p (its faces of dimension 1), in face order."""
    return [f for f in p.faces if f.dim == 1]


def edge_directions(p: Polytope, vid: int) -> tuple:
    """The primitive directions of the edges at vertex vid, away from it."""
    return tuple(t for t, _ in p.vertex_edges(vid))


def polar_dual(p: Polytope) -> Polytope:
    """The polar polytope {y : ⟨y, x⟩ ≤ 1 for all x in P}.

    Requires the origin strictly inside; vertices and facets swap roles, and
    the bijection is checked on construction.
    """
    origin = tuple(Fraction(0) for _ in range(p.dim))
    if not p.contains_interior(origin):
        raise DegenerateInput("polar dual needs the origin strictly inside; "
                              "translate first (center_at_barycenter)")
    dual_hs = [halfspace(tuple(-x for x in v), Fraction(-1))
               for v in p.vertices]
    dual = polytope_from_halfspaces(dual_hs)
    expected = {tuple(a / h.offset for a in h.normal) for h in p.facets}
    if set(dual.vertices) != expected or len(dual.facets) != len(p.vertices):
        raise AssertionError("polar dual bijection failed")
    return dual


def flip_one_constraint(lc: LocalContribution, term_index: int = 0,
                        constraint_index: int = 0) -> LocalContribution:
    """Deliberately corrupt a contribution by flipping one inequality.

    Used to demonstrate that the positive/conic checker rejects wrong
    families with a concrete witness.
    """
    terms = list(lc.sum.terms)
    coeff, pc = terms[term_index]
    cons = list(pc.constraints)
    cons[constraint_index] = cons[constraint_index].complement()
    terms[term_index] = (coeff, LocallyClosedPiece(pc.dim, tuple(sorted(cons))))
    return LocalContribution(lc.vertex_id, lc.vertex, lc.xi, lc.cell_indices,
                             IndicatorSum(lc.sum.dim, tuple(terms)))


def feasible_point(system, dim: int):
    """The witness of a system of ``Halfspace`` rows as a ``Fraction``
    point, or None when the system is empty."""
    levels = project((), system, dim)
    if levels is None:
        return None
    nums, den = witness(levels)
    return tuple(Fraction(n, den) for n in nums)


def integer_rows(rows) -> list:
    """Each row of a rational matrix times the lcm of its denominators:
    integer rows of the same rank, as ``linalg.rank`` takes them."""
    return [[int(x * q) for x in r] for r in map(vec, rows)
            for q in (lcm(*(x.denominator for x in r)),)]


def option_choices(command: str, option: str) -> list:
    """The choices of one option of a ``conedec`` subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if option in a.option_strings)


def polytope_to_json(p: Polytope, field: str = "vertices") -> dict:
    """One form of a polytope, its "vertices" or its "inequalities",
    readable by ``jsonio.polytope_from_json``."""
    if field == "vertices":
        rows = [[rat_str(x) for x in v] for v in p.vertices]
    else:
        rows = [{"normal": [str(a) for a in h.normal],
                 "offset": rat_str(h.offset)} for h in p.facets]
    return {"dim": p.dim, field: rows}


def indicator_sum_from_json(obj: list, dim: int) -> IndicatorSum:
    """Inverse of ``jsonio.indicator_sum_to_json``."""
    terms = []
    for t in obj:
        coeff = ZPoly(tuple(int(c) for c in t["coeff"]))
        cons = []
        for c in t["constraints"]:
            h = halfspace([frac(x) for x in c["normal"]], frac(c["offset"]),
                          c.get("sense", "ge") == "gt")
            cons.append(h)
        terms.append((coeff, LocallyClosedPiece(dim, tuple(sorted(cons)))))
    return IndicatorSum(dim, tuple(terms))


def gf_from_json(obj: dict) -> RationalGF:
    """Inverse of ``jsonio.gf_to_json``."""
    terms = tuple(make_term(frac(t["coeff"]),
                            [tuple(a) for a in t["numerator"]],
                            [tuple(b) for b in t["denominators"]])
                  for t in obj["terms"])
    return RationalGF(int(obj["dim"]), terms)


def piece_gf(pc: LocallyClosedPiece) -> RationalGF:
    """The generating function of one piece, as the sum of it alone."""
    return gf_of_indicator_sum(IndicatorSum(pc.dim, ((ONE, pc),)))


def simplicial_cone_gf(apex, generators, open_flags=None) -> RationalGF:
    """The generating function of the half-open cone apex + cone(generators)
    whose facet off generator i is open where open_flags[i] is set: one
    frame piece, its normals the dual basis of the generators."""
    normals = dual_basis(generators)[1]
    flags = [False] * len(normals) if open_flags is None else open_flags
    return piece_gf(frame_piece(simple_cone_frame(apex, normals),
                                [STRICT if f else CLOSED for f in flags]))
