"""Rational generating functions of cones and lattice-point counting.

A RationalGF is a finite sum of terms coeff·(Σ_a z^a)/Π_i(1 - z^{b_i}).
Denominator exponents are canonicalized to be lexicographically positive via
1/(1-z^{-b}) = -z^b/(1-z^b), so structurally equal functions compare equal
term by term.  Counting specializes z_j := exp(s·λ_j) for a direction λ that
degenerates no denominator, expands each term as an exact Laurent series in
s, and reads off the constant coefficient.
Brion's path runs in ``int`` from the face lattice to the walk, and each
cell is inverted once, for its normals, open flags and walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count, islice, product
from math import comb, factorial, lcm, prod
from operator import add, mul, sub
from typing import Collection, Iterable, Optional, Sequence

from .indicators import IndicatorSum, LocallyClosedPiece, lattice_runs
from .linalg import (DimensionError, IntVector, _scaled, dual_basis, frac,
                     idot, primitive, rank, residue_box, vec, vec_str)
from .polyhedra import Polytope, homogenized_rays
from .triangulation import half_open_inverses, pulling_triangulation

# Most lattice points one GF may list as int tuples (parallelepiped walks,
# the brute-force Laurent polynomial): a Brion sum of 2·10⁶ points peaks near
# 0.5 GB.  Grid sweeps hold no points and have indicators.GRID_POINT_BUDGET.
LISTED_POINT_BUDGET = 2 * 10 ** 6


@dataclass(frozen=True)
class GFTerm:
    """coeff · (Σ_a z^a) / Π_i (1 - z^{b_i}) with integer exponent vectors."""
    coeff: Fraction
    numerators: tuple[IntVector, ...]
    denominators: tuple[IntVector, ...]


def make_term(coeff, numerators: Iterable[Sequence[int]],
              denominators: Iterable[Sequence[int]]) -> GFTerm:
    """Canonical term: every denominator exponent lex-positive, all sorted.
    Numerator and denominator exponents are sequences of ``int``."""
    coeff = frac(coeff)
    dens, shift = [], None
    for b in denominators:
        b = tuple(b)
        if all(x == 0 for x in b):
            raise ValueError("zero denominator exponent")
        if b < (0,) * len(b):  # tuple order is the lexicographic order
            # 1/(1 - z^{-b}) = -z^{b} / (1 - z^{b})
            b = tuple(-x for x in b)
            coeff = -coeff
            shift = b if shift is None else tuple(map(add, shift, b))
        dens.append(b)
    nums = map(tuple, numerators) if shift is None else zip(*(  # by column
        [x + s for x in col] for col, s in zip(zip(*numerators), shift)))
    return GFTerm(coeff, tuple(sorted(nums)), tuple(sorted(dens)))


@dataclass(frozen=True)
class RationalGF:
    dim: int
    terms: tuple[GFTerm, ...] = ()

    def __add__(self, other: "RationalGF") -> "RationalGF":
        if self.dim != other.dim:
            raise DimensionError("generating functions of dimensions "
                                 f"{self.dim} and {other.dim}")
        return RationalGF(self.dim, self.terms + other.terms)

    def __neg__(self) -> "RationalGF":
        return RationalGF(self.dim, tuple(
            GFTerm(-t.coeff, t.numerators, t.denominators) for t in self.terms))

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return self + (-other)

    def scaled(self, c) -> "RationalGF":
        c = frac(c)
        return RationalGF(self.dim, tuple(
            GFTerm(c * t.coeff, t.numerators, t.denominators) for t in self.terms))


def zero_gf(dim: int) -> RationalGF:
    return RationalGF(dim, ())


# ---------------------------------------------------------------------------
# Fundamental parallelepipeds and simplicial cones
# ---------------------------------------------------------------------------

def enumerate_parallelepiped(generators: Sequence[Sequence[int]],
                             apex: Sequence,
                             open_flags: Optional[Sequence[bool]] = None, *,
                             inverse: Optional[tuple] = None) -> list[IntVector]:
    """Lattice points of the half-open cell apex + Σ λ_i·t_i, sorted.

    λ_i runs over [0,1) where the flag is False and (0,1] where it is True.
    Each point r of a residue box of Z^d modulo the generator lattice (one
    per class) moves into the cell as r − Σ k_i·t_i, k_i = ⌊λ_i(r)⌋ (or
    ⌈λ_i(r)⌉ − 1 on an open facet), with λ(r) = n/s for n, s in ``int``.
    The box is walked in columns along its longest side, on which n_i grows
    by a fixed step: each k_i, then each coordinate, is built a whole column
    at a time, with no dot product per point.  There must be d flags and
    d apex coordinates.  A cell of index over LISTED_POINT_BUDGET is refused
    before it is walked.
    ``inverse``: the (det, adj) of the ``int`` generators, if the caller has it.
    """
    gens = [_ints(g, "generators") for g in generators]
    d = len(gens[0])
    cols = tuple(zip(*gens))  # generator matrix: column i is generator i
    det, adj = inverse or dual_basis(gens)[0]
    if len(apex) != d:
        raise DimensionError(f"apex {vec_str(apex)} of dimension {len(apex)} "
                             f"for generators of dimension {d}")
    _check_cell(det, apex)
    box = residue_box(cols)
    if prod(box) != abs(det):
        raise AssertionError(f"residue box {box} does not hold |det| classes")
    flags = tuple(open_flags) if open_flags is not None else (False,) * d
    if len(flags) != d:
        raise ValueError(f"{d} generators but {len(flags)} open flags")
    q, (a,) = _scaled([vec(apex)])  # apex = a/q
    s, sq = abs(det) * q, (q if det > 0 else -q)
    # n = sq·adj·(r − apex) is an int vector, and k_i = (n_i − open_i) // s
    steps = [[sq * x for x in row] for row in adj]
    shift = [idot(row, a) // q + f for row, f in zip(steps, flags)]
    w = box.index(max(box))  # the column side: r_w = t runs over range(m)
    m = box[w]
    points = []
    for r in product(*(range(1 if j == w else h) for j, h in enumerate(box))):
        ks = []  # k_i = (base_i + a_i·t) // s down the column
        for row, b in zip(steps, shift):
            base, a = sum(map(mul, row, r)) - b, row[w]
            ks.append(list(map(s.__rfloordiv__, range(base, base + a * m, a)))
                      if a else [base // s] * m)
        coords = []
        for j, (x, row) in enumerate(zip(r, cols)):
            c = list(range(m)) if j == w else [x] * m
            for g, k in zip(row, ks):
                if g:
                    c = list(map(sub, c, map(g.__mul__, k)))
            coords.append(c)
        points.extend(zip(*coords))
    points.sort()
    return points


def _ints(xs: Iterable, what: str) -> list[int]:
    """xs as a list of ``int``s; a float, bool or Fraction is refused, not
    truncated to another input."""
    xs = list(xs)
    if any(type(x) is not int for x in xs):
        raise TypeError(f"{what} must be integers, got {xs!r}")
    return xs


def _check_cell(det: int, apex: Sequence) -> None:
    if abs(det) > LISTED_POINT_BUDGET:
        raise ValueError(f"a cell of index {abs(det)} at apex {vec_str(apex)} "
                         f"exceeds the budget of {LISTED_POINT_BUDGET} points")


def gf_simplicial_cone(apex: Sequence, generators: Sequence[Sequence[int]],
                       open_flags: Optional[Sequence[bool]] = None) -> RationalGF:
    """Generating function of a half-open simplicial cone: one term whose
    numerator lists the fundamental-parallelepiped points and whose
    denominator factors are the generators, walked by ``_cones_gf`` as a
    one-cell cone."""
    gens = [primitive(g) for g in generators]
    cell = (gens, dual_basis(gens)[0], open_flags)
    return _cones_gf(len(gens[0]), [(1, apex, [cell])], "the cone's cell",
                     "apex")


# ---------------------------------------------------------------------------
# Brute-force oracle and Brion sum
# ---------------------------------------------------------------------------

def brute_force_count(p: Polytope) -> int:
    """The number of lattice points of p, summed over lattice_runs."""
    return sum(n for _head, _k, n, _tail in lattice_runs(p))


def gf_brute_force(p: Polytope) -> RationalGF:
    """The exact Laurent polynomial Σ z^m over the lattice points (the oracle),
    listed from lattice_runs.  More than LISTED_POINT_BUDGET points are
    refused before any is listed."""
    total = brute_force_count(p)
    if total > LISTED_POINT_BUDGET:
        raise ValueError(f"{total} lattice points exceed the budget of "
                         f"{LISTED_POINT_BUDGET} points to list")
    if not total:
        return zero_gf(p.dim)
    pts = [(*head, k + j, *tail)
           for head, k, n, tail in lattice_runs(p) for j in range(n)]
    return RationalGF(p.dim, (make_term(1, pts, ()),))


def _cone_cells(rays: Sequence[IntVector],
                facets: Collection[Collection[int]],
                strict_normals: Collection[IntVector]) -> list[tuple]:
    """(generators, (det, adj), open flags) of each cell of cone(rays), its
    primitive extreme rays, triangulated by pulling them in index order;
    `facets` lists the cone's facets (and maybe smaller faces) as sets of
    ray indices.  The cells are made half-open so their generating functions
    add up with no inclusion–exclusion; a cell facet whose normal is in
    strict_normals is open as well."""
    cells = pulling_triangulation(range(len(rays)), len(rays[0]), facets)
    return [([rays[j] for j in cell], inv,
             tuple(f or h in strict_normals for f, h in zip(flags, normals)))
            for cell, (inv, normals, flags)
            in zip(cells, half_open_inverses(rays, cells))]


def _cones_gf(dim: int, cones: list[tuple], what: str, at: str
              ) -> RationalGF:
    """The sum over (weight, apex, ``_cone_cells``) triples: one term per
    cell.  The plan is checked before any cell is walked: cells of more than
    LISTED_POINT_BUDGET points in all are refused, and a cell over the
    budget on its own is named first.  The refusal calls the cells `what`
    and each apex `at`."""
    shares = [sum(abs(inv[0]) for _, inv, _ in cells) for _, _, cells in cones]
    if sum(shares) > LISTED_POINT_BUDGET:
        for _, apex, cells in cones:
            for _, (det, _), _ in cells:
                _check_cell(det, apex)
        most = max(shares)
        raise ValueError(
            f"{what} hold {sum(shares)} parallelepiped points, over the "
            f"budget of {LISTED_POINT_BUDGET}; {most} of them are in the cone "
            f"at {at} {vec_str(cones[shares.index(most)][1])}")
    return RationalGF(dim, tuple(
        make_term(w, enumerate_parallelepiped(gens, apex, flags, inverse=inv),
                  gens) for w, apex, cells in cones
        for gens, inv, flags in cells))


def brion_gf(p: Polytope) -> RationalGF:
    """Sum of the vertex tangent cone generating functions.

    Tangent cones at higher faces contain lines and contribute zero, so the
    vertex sum is the whole generating function of the polytope.  The rays
    of the cone at v are its ``vertex_edges`` directions, its facets are the
    facets of P through v, and edge i lies on facet j exactly when j is
    among its facet ids: no arithmetic is needed.
    Cells of more than LISTED_POINT_BUDGET points in all are refused
    unwalked.
    """
    cones = []
    for vid, v in enumerate(p.vertices):
        dirs, edges = zip(*p.vertex_edges(vid))
        facets = [{i for i, e in enumerate(edges) if j in e.facet_ids}
                  for j in p.tight_facets(vid)]
        cones.append((1, v, _cone_cells(dirs, facets, set())))
    return _cones_gf(p.dim, cones, "Brion's cells", "vertex")


# ---------------------------------------------------------------------------
# Specialization z_j := exp(s·λ_j)
# ---------------------------------------------------------------------------

def _series_mul(a: list[int], b: list[int], order: int) -> list[int]:
    """Product of two integer power series, truncated after s^order."""
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:order + 1 - i]):
                out[i + j] += x * y
    return out


@cache
def _bernoulli(n: int) -> Fraction:
    """B_n with B_1 = −1/2, from Σ_{j≤n} C(n+1, j)·B_j = 0 for n ≥ 1."""
    return Fraction(1) if n == 0 else -sum(
        comb(n + 1, j) * _bernoulli(j) for j in range(n)) / (n + 1)


@cache
def _scaled_series(work: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(L, (work!/i!)_i, (L·work!·B_i/i!)_i) for i = 0..work, all in ``int``,
    with L = lcm of the denominators of B_0..B_work."""
    bern = [_bernoulli(i) for i in range(work + 1)]
    den = lcm(*(b.denominator for b in bern))
    ratios = tuple(factorial(work) // factorial(i) for i in range(work + 1))
    return den, ratios, tuple(int(b * den) * f for b, f in zip(bern, ratios))


def specialize(gf: RationalGF, direction: Sequence[int], order: int
               ) -> list[Fraction]:
    """Coefficients of s^0..s^order of gf(exp(s·λ)), as exact rationals.

    Each term with k denominator factors has a pole of order k at s = 0; the
    series bookkeeping divides it out exactly.  The series run in ``int``:
    with w = k + order, the numerator's power sums p_i are scaled by w!/i!
    and each factor's Bernoulli series by lcm(den B_0..B_w)·w!, so a term is
    one integer series over one scale, and all are summed over the lcm of the
    scales.  The direction must satisfy ⟨λ, b⟩ ≠ 0 for every denominator b.
    Raises ValueError if the negative-order coefficients fail to cancel
    across terms (the input was not the generating function of a bounded
    set).
    """
    lam = _ints(direction, "the direction")
    max_pole = max((len(t.denominators) for t in gf.terms), default=0)
    series = []  # (first power of s, integer series, scale) per term
    for t in gf.terms:
        k = len(t.denominators)
        work = k + order
        den, ratios, bern = _scaled_series(work)
        # Σ_a exp(s·⟨λ,a⟩) = Σ_i s^i·p_i/i! with p_i the i-th power sum
        dots = [sum(map(mul, lam, a)) for a in t.numerators]
        powers = [1] * len(dots)
        num = []
        for f in ratios:
            num.append(sum(powers) * f * t.coeff.numerator)
            powers = list(map(mul, powers, dots))
        scale = factorial(work) * t.coeff.denominator  # num/scale = coeff·series
        for b in t.denominators:
            beta = idot(lam, b)
            if beta == 0:
                raise ValueError(f"direction {lam} degenerates denominator {b}")
            # 1/(1 − exp(β·s)) = −1/(β·s) · Σ_i B_i·(β·s)^i/i!
            num = _series_mul(num, [x * beta ** i for i, x in enumerate(bern)],
                              work)
            scale *= -beta * den * factorial(work)
        series.append((max_pole - k, num, scale))  # term = s^{-k}·num(s)/scale
    common = lcm(*(scale for _, _, scale in series))
    total = [0] * (max_pole + order + 1)  # s^{-max_pole} .. s^{order}, ·common
    for first, num, scale in series:
        f = common // scale
        for i, c in enumerate(num):
            total[first + i] += c * f
    for j in range(max_pole):
        if total[j] != 0:
            raise ValueError(
                f"pole of order {max_pole - j} does not cancel; "
                "not the generating function of a bounded set")
    return [Fraction(c, common) for c in total[max_pole:]]


def counting_directions(gf: RationalGF, start: int = 1):
    """The moment-curve directions (t, t², …, t^d), t = start, start + 1, …,
    that clear all denominators."""
    dens = {b for t in gf.terms for b in t.denominators}
    for t in count(start):
        lam = [t ** (j + 1) for j in range(gf.dim)]
        if all(idot(lam, b) != 0 for b in dens):
            yield lam


def count_lattice_points(gf: RationalGF) -> int:
    """Evaluate the generating function at z = 1 by exact specialization."""
    c0 = specialize(gf, next(counting_directions(gf)), 0)[0]
    if c0.denominator != 1:
        raise ValueError(f"specialization gave non-integer {c0}")
    return int(c0)


def gf_equal_as_functions(g1: RationalGF, g2: RationalGF,
                          seed: int = 0) -> bool:
    """Probe g1 - g2 under four specializations (orders 0 and 1).

    Sound for refutation.  Directions come from the deterministic moment
    curve; the seed only offsets where the search starts, keeping runs
    reproducible.
    """
    diff = g1 - g2
    for lam in islice(counting_directions(diff, 1 + seed % 97), 4):
        try:
            c = specialize(diff, lam, 1)
        except ValueError:
            return False  # the difference has a genuine pole at z = 1
        if any(x != 0 for x in c):
            return False
    return True


# ---------------------------------------------------------------------------
# From indicator sums to generating functions
# ---------------------------------------------------------------------------

def _piece_cone(pc: LocallyClosedPiece) -> Optional[tuple]:
    """(apex, ``_cone_cells``) of a piece that is a shifted cone, or None
    when its closure contains a line: its ``homogenized_rays`` with t > 0
    are the apex alone, and those with t = 0 are the cone's rays."""
    normals = [h.normal for h in pc.constraints]
    if rank(normals) < pc.dim:  # the closure contains a line
        return None
    hull, facets = homogenized_rays(pc.constraints, pc.dim)
    # rows that meet in one point x/t make (x, t) the only ray with t > 0
    tops = [ray for ray, on in hull if ray[-1] and len(on) == len(normals)]
    if len(tops) != 1:
        raise ValueError("piece is not a shifted cone (no common apex)")
    apex = tuple(Fraction(x, tops[0][-1]) for x in tops[0][:-1])
    cone = [(ray[:-1], on) for ray, on in hull if not ray[-1]]
    rays = tuple(r for r, _ in cone)
    if rank(rays) != pc.dim:
        raise ValueError("piece is not full-dimensional")
    if any(h.strict and j not in facets for j, h in enumerate(pc.constraints)):
        raise ValueError("strict constraint does not support a facet of the "
                         "piece; its lattice points are not a half-open cone")
    # each constraint's tight rays: a facet, or a smaller face pulling drops
    tight = [frozenset(i for i, (_, on) in enumerate(cone) if j in on)
             for j in range(len(normals))]
    return apex, _cone_cells(rays, tight,
                             {h.normal for h in pc.constraints if h.strict})


def gf_of_piece(pc: LocallyClosedPiece) -> RationalGF:
    """Generating function of a locally closed piece that is a shifted cone.

    Pieces whose closure contains a line have generating function zero.
    Everything else must have a unique apex (all constraint hyperplanes
    concurrent); pointed pieces are triangulated if necessary, with strict
    constraints turning the matching facets open.
    """
    cone = _piece_cone(pc)
    return _cones_gf(pc.dim, [(1, *cone)] if cone else [], "the piece's cells",
                     "apex")


def gf_of_indicator_sum(s: IndicatorSum) -> RationalGF:
    """Map each piece to its generating function (z := 1 in coefficients);
    line-containing pieces drop out.  Every piece's cells are planned, and
    the plan checked against the budget, before any cell is walked."""
    cones = [(w, *cone) for coeff, pc in s.terms
             if (w := coeff.at_one()) != 0 and (cone := _piece_cone(pc))]
    return _cones_gf(s.dim, cones, "the pieces' cells", "apex")


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def _monomial_str(a: IntVector) -> str:
    if len(a) == 1:
        return {0: "1", 1: "x"}.get(a[0], f"x^{a[0]}")
    parts = [f"x{i + 1}^{e}" for i, e in enumerate(a) if e != 0]
    return "*".join(parts) if parts else "1"


def gf_pretty(gf: RationalGF) -> str:
    chunks = []
    for t in gf.terms:
        if t.coeff == 0 or not t.numerators:
            continue
        num = " + ".join(_monomial_str(a) for a in t.numerators)
        if len(t.numerators) > 1:
            num = f"({num})"
        c = t.coeff
        body = num if c in (1, -1) else f"{abs(c)}*{num}"
        if t.denominators:
            den = "".join(f"(1-{_monomial_str(b)})" for b in t.denominators)
            body = f"{body}/{den}"
        sign = "-" if c < 0 else "+"
        chunks.append((sign, body))
    if not chunks:
        return "0"
    out = " ".join(f"{sign} {body}" for sign, body in chunks)
    return out[2:] if out[0] == "+" else "-" + out[2:]
