"""Locally closed pieces, weighted indicator sums, and identity verification.

An IndicatorSum is a formal integer-polynomial combination of locally closed
polyhedral pieces.  It can be evaluated exactly at any rational point, which
is how every decomposition identity in this library gets machine-checked:
evaluate both sides on a witness grid, swept line by line in runs of one
cell of the sides' hyperplane arrangement, plus seeded random rational points.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat, starmap, tee
from math import ceil, floor, gcd, prod
from operator import add, itemgetter, mul
from typing import Iterable, Optional, Sequence

from .feasibility import project, witness
from .linalg import DimensionError, _scaled, frac, vec, vec_str
from .polyhedra import Face, Halfspace, Polytope, binding


# ---------------------------------------------------------------------------
# Integer polynomials in one variable z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZPoly:
    """Dense integer polynomial in z; coeffs[k] multiplies z**k."""
    coeffs: tuple[int, ...] = ()

    @staticmethod
    def const(n: int) -> "ZPoly":
        return ZPoly((n,)) if n else ZPoly(())

    @staticmethod
    def z_power(k: int) -> "ZPoly":
        return ZPoly((0,) * k + (1,))

    @staticmethod
    def one_minus_z_power(k: int) -> "ZPoly":
        """(1 - z)**k"""
        out = ZPoly.const(1)
        for _ in range(k):
            out = out * ZPoly((1, -1))
        return out

    def __add__(self, other: "ZPoly") -> "ZPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [0] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return ZPoly(_trim(cs))

    def __neg__(self) -> "ZPoly":
        return ZPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other) -> "ZPoly":
        if isinstance(other, int):
            return ZPoly(_trim([c * other for c in self.coeffs]))
        cs = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return ZPoly(_trim(cs))

    __rmul__ = __mul__

    def __call__(self, z) -> Fraction:
        z = frac(z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def at_one(self) -> int:
        return sum(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mon = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}{mon}")
        return " + ".join(parts).replace("+ -", "- ")


def _trim(cs: Sequence[int]) -> tuple[int, ...]:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


ONE = ZPoly((1,))


# ---------------------------------------------------------------------------
# Locally closed pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocallyClosedPiece:
    """Finite conjunction of closed (≥) and strict (>) rational constraints.

    Constraints are kept in a canonical sorted, deduplicated form so that
    syntactic equality of pieces is meaningful.  Pieces are nonempty by
    construction: `piece` builds each from a point inside it.
    """
    dim: int
    constraints: tuple[Halfspace, ...]

    def contains(self, x: Sequence) -> bool:
        den, (nums,) = _scaled([vec(x)])
        if len(nums) != self.dim:
            raise DimensionError(f"point of dimension {len(nums)}, "
                                 f"piece of dimension {self.dim}")
        return all(h.side(nums, den) >= h.strict for h in self.constraints)


def piece(dim: int, constraints: Iterable[Halfspace],
          witness: Sequence) -> LocallyClosedPiece:
    """Canonicalize a locally closed piece built from a point inside it.

    Duplicate constraints are removed and parallel constraints collapse to
    the binding one.  Every builder has a point inside at hand (an apex
    moved along the rays, a barycenter, a vertex); a witness outside the
    piece, or a constraint of another dimension, is refused.
    """
    canon = tuple(sorted(binding(constraints)))
    _check_rows(canon, dim, "piece")
    pc = LocallyClosedPiece(dim, canon)
    if not pc.contains(witness):
        raise ValueError(f"piece witness {witness} not inside the piece")
    return pc


def _check_rows(rows: Sequence[Halfspace], dim: int, what: str) -> None:
    for h in rows:
        if len(h.normal) != dim:
            raise DimensionError(
                f"constraint {vec_str(h.normal)}·x {'>' if h.strict else '≥'} "
                f"{h.offset} of dimension {len(h.normal)} on a {what} of "
                f"dimension {dim}")


def whole_space_piece(dim: int) -> LocallyClosedPiece:
    return LocallyClosedPiece(dim, ())


# ---------------------------------------------------------------------------
# Indicator sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicatorSum:
    """Formal sum of (coefficient in Z[z], piece) terms."""
    dim: int
    terms: tuple[tuple[ZPoly, LocallyClosedPiece], ...] = ()

    def __add__(self, other: "IndicatorSum") -> "IndicatorSum":
        if self.dim != other.dim:
            raise DimensionError(f"sums of dimensions {self.dim} and "
                                 f"{other.dim}")
        return IndicatorSum(self.dim, self.terms + other.terms)

    def substitute(self, z_value: int) -> "IndicatorSum":
        """Specialize every coefficient at an integer value of z."""
        out = []
        for c, p in self.terms:
            v = c(z_value)
            if v != 0:
                out.append((ZPoly.const(int(v)), p))
        return IndicatorSum(self.dim, tuple(out))

    def restrict(self, rows: Iterable[Halfspace]) -> "IndicatorSum":
        """The sum times the indicator of the rows: each piece cut by them,
        canonical as `piece` makes it, and the empty cuts dropped.  A row
        of another dimension is refused."""
        rows = tuple(rows)
        _check_rows(rows, self.dim, "sum")
        cuts = [(c, tuple(sorted(binding(pc.constraints + rows))))
                for c, pc in self.terms]
        return IndicatorSum(self.dim, tuple(
            (c, LocallyClosedPiece(self.dim, cons)) for c, cons in cuts
            if project((), cons, self.dim) is not None))


def indicator_of_polytope(p: Polytope) -> IndicatorSum:
    pc = piece(p.dim, p.facets, witness=p.barycenter())
    return IndicatorSum(p.dim, ((ONE, pc),))


def indicator_of_interior(p: Polytope) -> IndicatorSum:
    """The relative interior of the top face: every facet strict."""
    return IndicatorSum(p.dim, ((ONE, relative_interior_piece(p, p.faces[-1])),))


def tangent_cone_piece(p: Polytope, f: Face) -> LocallyClosedPiece:
    """Tangent cone of a face: the facets tight on it (all of space for the
    polytope itself)."""
    if f.dim == p.dim:
        return whole_space_piece(p.dim)
    return piece(p.dim, (p.facets[i] for i in f.facet_ids), p.barycenter(f))


def gram_decomposition(p: Polytope) -> IndicatorSum:
    """Alternating sum of the tangent cones of all nonempty faces.

    Evaluates to the indicator function of the polytope everywhere.
    """
    return IndicatorSum(p.dim, tuple(
        (ZPoly.const(-1 if f.dim % 2 else 1), tangent_cone_piece(p, f))
        for f in p.faces))


def relative_interior_piece(p: Polytope, f: Face) -> LocallyClosedPiece:
    """Relative interior of a face: tight facets as equalities, the rest strict."""
    fset = set(f.facet_ids)
    cons = [Halfspace(h.normal, h.offset, i not in fset)
            for i, h in enumerate(p.facets)]
    cons += [Halfspace(tuple(-a for a in p.facets[i].normal),
                       -p.facets[i].offset) for i in f.facet_ids]
    return piece(p.dim, cons, witness=p.barycenter(f))


def weighted_indicator(p: Polytope) -> IndicatorSum:
    """Sum valuing z**k on the relative interior of each codimension-k face.

    Realized with one relative-interior piece per face; the relative
    interiors of all faces partition the polytope.
    """
    terms = []
    for f in p.faces:
        codim = p.dim - f.dim
        terms.append((ZPoly.z_power(codim), relative_interior_piece(p, f)))
    return IndicatorSum(p.dim, tuple(terms))


# ---------------------------------------------------------------------------
# Verification harness
# ---------------------------------------------------------------------------

class Arrangement:
    """The distinct constraint hyperplanes of some indicator sums, and each
    sum's value as a function of a point's sign vector on them.

    A piece contains a point iff the point lies on the side of each plane
    that the piece's constraint there asks for, so every sum is constant on
    each cell of the arrangement and one evaluation per cell decides it.
    Sums of different dimensions are refused.
    """

    def __init__(self, sums: Sequence[IndicatorSum]):
        if len({s.dim for s in sums}) > 1:
            raise DimensionError("sums of dimensions "
                                 f"{', '.join(str(s.dim) for s in sums)}")
        index: dict[tuple, int] = {}  # (normal, offset) -> plane
        zero = (0,) * (sums[0].dim if sums else 0)
        # each sum as (coefficients, requirements) terms; a requirement
        # (i, o, t) holds iff o·(sign at plane i) ≥ t, t = 1 when strict and
        # o = -1 when the constraint's leading coordinate is negative
        self._sums: list[list[tuple[tuple[int, ...], tuple]]] = []
        for s in sums:
            terms = []
            for coeff, pc in s.terms:
                reqs = []
                for h in pc.constraints:
                    n, off, o = h.normal, h.offset, 1
                    if n < zero:
                        n, off, o = tuple(-a for a in n), -off, -1
                    reqs.append((index.setdefault((n, off), len(index)), o,
                                 int(h.strict)))
                terms.append((coeff.coeffs, tuple(reqs)))
            self._sums.append(terms)
        # closed halfspaces n·x ≥ off, one per hyperplane, in first-use order
        self.planes: list[Halfspace] = [Halfspace(*key) for key in index]
        # n·x ≥ p/q scaled to q·n·x ≥ p: a point nums/den needs integers only
        self._rows = [(tuple(a * h.offset.denominator for a in h.normal),
                       h.offset.numerator) for h in self.planes]

    def signs(self, nums: Sequence[int], den: int) -> tuple[int, ...]:
        """The side (1, 0 or -1) of each plane on which nums/den lies."""
        out = []
        for n, p in self._rows:
            v = sum(map(mul, n, nums)) - p * den
            out.append((v > 0) - (v < 0))
        return tuple(out)

    def values(self, signs: Sequence[int]) -> tuple[ZPoly, ...]:
        """Each sum's value on the cell with the given sign vector."""
        out = []
        for terms in self._sums:
            acc = [0] * max((len(cs) for cs, _reqs in terms), default=0)
            for cs, reqs in terms:
                for i, o, t in reqs:
                    if o * signs[i] < t:
                        break
                else:
                    acc[:len(cs)] = map(add, acc, cs)
            out.append(ZPoly(_trim(acc)))
        return tuple(out)


Box = Sequence[tuple[Fraction, Fraction]]

# Most grid points one verification may check.
GRID_POINT_BUDGET = 10 ** 7

# Most arrangement cells whose values one grid sweep keeps, the least
# recently used dropped first.  Grid order visits neighbouring cells in runs,
# so a small memo keeps almost every hit.
CELL_MEMO_CAP = 256


@dataclass
class VerificationReport:
    identity: str
    parameters: dict
    points_checked: int
    success: bool
    counterexample: Optional[dict] = None
    wall_time: float = 0.0

    def to_json_dict(self) -> dict:
        # wall time is intentionally excluded: reports must be byte-identical
        # across runs with the same inputs
        out = {
            "identity": self.identity,
            "parameters": self.parameters,
            "points_checked": self.points_checked,
            "success": self.success,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def default_box(p: Polytope) -> Box:
    """Bounding box of the polytope grown by 1 in every direction."""
    return p.bounding_box(inflate=1)


def grid_points(box: Box, step: Fraction, samples: int = 0):
    """Lattice step·Z^d clipped to the box, in lexicographic order.

    Returns an iterator of (nums, den) pairs: the point is nums/den
    coordinatewise.  A grid whose points, with `samples` points checked
    after it, exceed GRID_POINT_BUDGET is refused before any is made.
    """
    q, last, lines = _grid_lines((), box, step, samples)
    heads = map(repeat, map(itemgetter(0), lines), repeat(len(last)))
    tails = map(zip, repeat(last))  # per line, the 1-tuples (k,) of its axis
    return zip(map(add, chain.from_iterable(heads), chain.from_iterable(tails)),
               repeat(q))


def grid_runs(rows: Sequence, box: Box, step):
    """The points of grid_points(box, step) in runs along the last axis:
    (prefix, j, length, signs) stands for `length` of them from the j-th on
    the line through prefix, all with the sign vector `signs` of
    n·nums − off·den over the integer rows (n, off), at each point nums/den.
    On a line, row i is a + b·j at the j-th point, so its sign can change
    only at ⌊−a/b⌋ + 1, or at r and r + 1 when r = −a/b is an integer."""
    _q, last, lines = _grid_lines(rows, box, step)
    n = -(-(last.stop - last.start) // last.step)  # len() overflows past 2⁶³
    grow = [row[-1] * last.step for row, _off in rows] if n > 1 else []
    for prefix, vals in lines:
        signs = [(a > 0) - (a < 0) for a in vals]
        if not grow:
            yield prefix, 0, n, tuple(signs)
            continue
        cuts: dict[int, list] = {}
        for i, (a, b) in enumerate(zip(vals, grow)):
            if b:
                r, rem = divmod(-a, b)
                for c, sign in ((r, 0), (r + 1, 1 if b > 0 else -1))[bool(rem):]:
                    if 0 < c < n:
                        cuts.setdefault(c, []).append((i, sign))
        j = 0
        for end in sorted(cuts):
            yield prefix, j, end - j, tuple(signs)
            for i, sign in cuts[end]:
                signs[i] = sign
            j = end
        yield prefix, j, n - j, tuple(signs)


def lattice_runs(p: Polytope):
    """Runs (head, k, n, tail) of p's lattice points (*head, k + j, *tail),
    j < n, along the axis w with the most integer points: the runs of
    grid_runs at step 1, in lines × facets, on which no facet row
    (q·normal, q·offset), q the offset's denominator, w moved last, is
    negative."""
    ends = [(ceil(lo), floor(hi)) for lo, hi in p.bounding_box()]
    w = max(reversed(range(p.dim)), key=lambda a: ends[a][1] - ends[a][0])
    move = lambda v: (*v[:w], *v[w + 1:], v[w])
    rows = [(move([a * h.offset.denominator for a in h.normal]),
             h.offset.numerator) for h in p.facets]
    for pre, j, n, signs in grid_runs(rows, move(ends), 1):
        if min(signs) >= 0:
            yield pre[:w], ends[w][0] + j, n, pre[w:]


def _grid_lines(rows: Sequence, box: Box, step, samples=None):
    """(den, last axis, lines along it in lexicographic order): a line is
    (prefix, vals), vals[i] = n·nums − off·den for row i = (n, off) at the
    line's first point nums/den.  Refuses a grid over GRID_POINT_BUDGET
    lines, or, unless samples is None, whose points and samples exceed it."""
    step = frac(step)
    if step <= 0:
        raise ValueError("step must be positive")
    ends = [(ceil(Fraction(lo) / step), floor(Fraction(hi) / step))
            for lo, hi in box]
    size = prod(sizes := [max(0, k1 - k0 + 1) for k0, k1 in ends])
    sides = " x ".join(f"[{lo}, {hi}]" for lo, hi in box)
    if samples is not None and size + samples > GRID_POINT_BUDGET:
        more = f" and {samples} samples" if size <= GRID_POINT_BUDGET else ""
        raise ValueError(f"grid of {size} points{more} (box {sides}, step "
                         f"{step}) exceeds the budget of {GRID_POINT_BUDGET}; "
                         "use " + ("fewer --samples" if more else "a coarser "
                                   "--step, a smaller --box or --exact-cells"))
    if size and (lines := prod(sizes[:-1])) > GRID_POINT_BUDGET:
        raise ValueError(f"grid of {lines} lines (box {sides}, step {step}) "
                         f"exceeds the budget of {GRID_POINT_BUDGET}")
    p, q = step.numerator, step.denominator
    axes = [range(k0 * p, k1 * p + 1, p) for k0, k1 in ends]
    grow = [[n[a] * p for n, _off in rows] for a in range(len(axes) - 1)]
    first = [sum(map(mul, n, (r.start for r in axes))) - off * q
             for n, off in rows]
    return q, axes[-1], _lines(axes[:-1], grow, (), first) if size else iter(())


def _lines(axes: list[range], grow: list, prefix: tuple, vals: list):
    """The lines through prefix; a step along axis a adds grow[a] to vals."""
    a = len(prefix)
    if a == len(axes):
        yield prefix, vals
        return
    for k in axes[a]:
        if a + 1 == len(axes):
            yield prefix + (k,), vals
        else:
            yield from _lines(axes, grow, prefix + (k,), vals)
        vals = list(map(add, vals, grow[a]))


def random_rational_points(box: Box, count: int, seed: int):
    """Seeded rational samples in the box with small random denominators.

    A sample's denominator is raised by an axis's lower-bound denominator
    when the axis holds no multiple of 1/den, so every sample lies in the
    box; an empty box yields none.
    """
    rng = random.Random(seed)
    # lo = a/b and hi = c/e: ⌈lo·den⌉ = −(−a·den // b), ⌊hi·den⌋ = c·den // e
    axes = [(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
            for lo, hi in ((Fraction(lo), Fraction(hi)) for lo, hi in box)]
    if any(a * e > c * b for a, b, c, e in axes):
        return
    for _ in range(count):
        den = rng.randint(1, 6)
        for a, b, c, e in axes:
            if -(-a * den // b) > c * den // e:
                den *= b
        yield tuple(rng.randint(-(-a * den // b), c * den // e)
                    for a, b, c, e in axes), den


def verify_identity(lhs: IndicatorSum, rhs: IndicatorSum, box: Box,
                    step, extra_samples: int = 0, seed: int = 0,
                    name: str = "identity") -> VerificationReport:
    """Compare two indicator sums on the grid plus seeded random points.

    Sound for refutation: the first mismatch (in lexicographic grid order,
    random samples afterwards) is reported with both values.  grid_runs
    sweeps each grid line in one pass over the distinct hyperplanes; each
    run of one arrangement cell, and each sample, costs one lookup of both
    sides' values, which are kept for the last CELL_MEMO_CAP cells met.
    Every point checked is drawn from grid_points or random_rational_points
    (a run reads its first point and passes over the rest), so the items
    those two yield count the points checked.  A box of another dimension
    than the sums is refused.
    """
    t0 = time.monotonic()
    step = frac(step)
    params = {
        "box": [[str(lo), str(hi)] for lo, hi in box],
        "step": str(step),
        "extra_samples": extra_samples,
        "seed": seed,
    }
    cells = Arrangement((lhs, rhs))
    if len(box) != lhs.dim:
        raise DimensionError(f"box of dimension {len(box)} for sums of "
                             f"dimension {lhs.dim}")
    checked = 0

    @lru_cache(CELL_MEMO_CAP)
    def mismatch(key):  # both sides' values on a cell, None where equal
        a, b = cells.values(key)
        return None if a == b else (a, b)

    def run(points, runs) -> Optional[dict]:
        nonlocal checked
        for _prefix, _j, length, key in runs:
            nums, den = next(points)
            if (ab := mismatch(key)) is not None:
                checked += 1
                return _counterexample(nums, den, *ab)
            checked += length
            if length > 1:  # pass over the run's other points
                next(islice(points, length - 1, length - 1), None)
        return None

    bad = run(grid_points(box, step, extra_samples),
              grid_runs(cells._rows, box, step))
    if bad is None and extra_samples > 0:
        samples, again = tee(random_rational_points(box, extra_samples, seed))
        bad = run(samples, zip(repeat(()), repeat(0), repeat(1),
                               starmap(cells.signs, again)))
    return VerificationReport(name, params, checked, bad is None, bad,
                              time.monotonic() - t0)


def verify_identity_exact(lhs: IndicatorSum, rhs: IndicatorSum,
                          name: str = "identity") -> VerificationReport:
    """Decide an identity exactly by enumerating arrangement cells.

    Splits space by every constraint hyperplane appearing on either side and
    checks each nonempty sign cell once; both sides are constant on cells,
    so this is a complete decision procedure.  Exponential in the number of
    hyperplanes; intended for small identities (--exact-cells).

    The cells are searched depth first, plane by plane; the side of the
    plane that the node's point lies on is a child.  If the plane's normal
    lies in the span of the node's `=` normals, n·x is constant on the cell
    and that side is the only child.  Else the plane cuts across the cell's
    flat, and the cell, relatively open and convex, meets it exactly when
    it has points strictly on both sides.  So only strict sides are decided
    by projection (feasibility.project) and get a point (feasibility.witness):
    both if the point is on the plane, else the opposite one; if that is
    nonempty, the `=` side is a child where the segment between the two
    strict points crosses the plane.  A mismatching cell reports the
    witness of its own rows, a point that depends only on the cell.
    """
    t0 = time.monotonic()
    dim = lhs.dim
    cells = Arrangement((lhs, rhs))
    last = len(cells.planes) - 1
    # per plane, the rows of its sides n·x > off, n·x = off and n·x < off
    sides = []
    for h in cells.planes:
        neg = Halfspace(tuple(-a for a in h.normal), -h.offset)
        sides.append({1: [neg.complement()], 0: [h, neg],
                      -1: [h.complement()]})
    checked = 0

    def check(values, levels, rows) -> Optional[dict]:
        nonlocal checked
        checked += 1
        a, b = values
        if a == b:
            return None
        return _counterexample(*witness(project(levels, rows, dim)), a, b)

    bad = check(cells.values(()), (), []) if last < 0 else None
    # (sign vector so far, levels, rows not yet projected, the normals of
    # the `=` planes in echelon form, a point nums/den in the cell)
    stack = [((), (), [], (), ((0,) * dim, 1))] if last >= 0 else []
    while stack and bad is None:
        signs, levels, rows, basis, w = stack.pop()
        k = len(signs)
        inner = k < last  # the children need points of their own
        normal, off = cells._rows[k]
        v = sum(map(mul, normal, w[0])) - off * w[1]
        side = (v > 0) - (v < 0)
        eq = _reduce(basis, normal)
        if eq is None:  # n·x is constant on the cell: its rows imply side
            kids = {side: (levels, rows, basis, w)}
        else:
            if rows:
                levels = project(levels, rows, dim)
            kids = {side: (levels, sides[k][side],
                           basis + (eq,) if side == 0 else basis, w)}
            for s in ((1, -1) if side == 0 else (-side,)):
                if (lv := project(levels, sides[k][s], dim)) is not None:
                    kids[s] = (lv, [], basis, witness(lv) if inner else None)
            if side and -side in kids:  # between two strict points
                u = kids[-side][3]
                kids[0] = (levels, sides[k][0], basis + (eq,),
                           _crossing(normal, off, w, u) if inner else None)
        order = [s for s in (1, 0, -1) if s in kids]
        if inner:
            stack.extend((signs + (s,), *kids[s]) for s in reversed(order))
            continue
        for s in order:
            if (bad := check(cells.values(signs + (s,)), *kids[s][:2])):
                break
    return VerificationReport(name, {"mode": "exact-cells"}, checked,
                              bad is None, bad, time.monotonic() - t0)


def _counterexample(nums: Sequence[int], den: int, a, b) -> dict:
    """A mismatch's report: the point nums/den and both sides' values."""
    pt = [str(Fraction(n, den)) for n in nums]
    return {"point": pt, "lhs": repr(a), "rhs": repr(b)}


def _reduce(basis: tuple, normal: Sequence[int]) -> Optional[tuple]:
    """The normal reduced fraction-free against an echelon basis of
    (pivot, row) pairs, each row zero at the pivots before its own, as the
    pair that extends the basis; None when the normal lies in its span."""
    n = normal
    for piv, b in basis:
        if c := n[piv]:
            n = [b[piv] * x - c * y for x, y in zip(n, b)]
    piv = next((i for i, x in enumerate(n) if x), None)
    if piv is None:
        return None
    g = gcd(*n)
    return piv, tuple(x // g for x in n)


def _crossing(n: Sequence[int], off: int, wa: tuple, wb: tuple) -> tuple:
    """Where the segment between the points wa and wb (each nums/den) on
    opposite strict sides of the plane n·x = off meets it."""
    (a, p), (b, q) = wa, wb
    va = sum(map(mul, n, a)) - off * p
    vb = sum(map(mul, n, b)) - off * q
    nums = [va * y - vb * x for x, y in zip(a, b)]
    den = va * q - vb * p
    g = gcd(den, *nums) * ((den > 0) - (den < 0))
    return tuple(x // g for x in nums), den // g

