"""Test-only helpers: vertex lookup, the polar dual, a deliberately
corrupted local contribution, and the CLI parser's option choices."""

import argparse
from fractions import Fraction

from conedec.cli import build_parser
from conedec.deform import LocalContribution
from conedec.indicators import IndicatorSum, LocallyClosedPiece
from conedec.linalg import vec, vneg
from conedec.polyhedra import (DegenerateInput, Polytope, halfspace,
                               polytope_from_halfspaces)


def vertex_index(p: Polytope, point) -> int:
    """Index of the vertex equal to the point."""
    try:
        return p.vertices.index(vec(point))
    except ValueError:
        raise ValueError(f"{point} is not a vertex") from None


def polar_dual(p: Polytope) -> Polytope:
    """The polar polytope {y : ⟨y, x⟩ ≤ 1 for all x in P}.

    Requires the origin strictly inside; vertices and facets swap roles, and
    the bijection is checked on construction.
    """
    origin = tuple(Fraction(0) for _ in range(p.dim))
    if not p.contains_interior(origin):
        raise DegenerateInput("polar dual needs the origin strictly inside; "
                              "translate first (center_at_barycenter)")
    dual_hs = [halfspace(vneg(v), Fraction(-1)) for v in p.vertices]
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


def option_choices(command: str, option: str) -> list:
    """The choices of one option of a ``conedec`` subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions
                if option in a.option_strings)
