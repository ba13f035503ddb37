"""The sampled positive/conic checker that `deform.positive_conic_check`
replaced: a family of local contributions is probed along a ±2 integer
direction grid, seeded random directions and exact probes into each piece,
at λ ∈ {½, 1, 3}.  Sound for refutation only; the exact check must reject
every family this one rejects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from conedec.deform import LocalContribution, as_functional
from conedec.feasibility import project, witness
from conedec.indicators import Arrangement
from conedec.linalg import IntVector, Vector, _scaled, perturbed_key, primitive
from conedec.polyhedra import Halfspace
from helpers import dot


@dataclass
class PositiveConicReport:
    directions_checked: int
    structurally_conic: bool
    violations: list[dict]

    @property
    def success(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "directions_checked": self.directions_checked,
            "structurally_conic": self.structurally_conic,
            "success": self.success,
            "violations": self.violations,
        }


def _direction_grid(dim: int, radius: int = 2):
    for t in product(range(-radius, radius + 1), repeat=dim):
        if any(t):
            yield t


def _piece_direction_probes(pc, v: Vector, xi: IntVector) -> list[IntVector]:
    """Directions aimed at a piece: one in its relative interior, and one in
    the part of the piece where the functional decreases (if any)."""
    dim = len(v)
    probes = []
    levels = project((), [Halfspace(h.normal, Fraction(1))
                          for h in pc.constraints], dim)
    if levels is None:
        # piece too thin for strict interior; settle for the closure
        levels = project((), [Halfspace(h.normal, Fraction(0), h.strict)
                              for h in pc.constraints], dim)
    decrease = Halfspace(tuple(-a for a in xi), Fraction(1))
    for lv in (levels, levels and project(levels, [decrease], dim)):
        if lv is not None and any(t := witness(lv)[0]):  # t = nums
            probes.append(primitive(t))
    return probes


def positive_conic_check(contribs: dict[int, LocalContribution] | Sequence,
                         xi: Sequence, direction_samples: int = 32,
                         seed: int = 0) -> PositiveConicReport:
    """Certify a family of per-vertex functions as conic and positive.

    Conic: the value along v + λ·t does not change with λ > 0 (checked at
    λ = 1/2, 1, 3 and structurally: every piece's constraints are tight at
    the vertex).  Positive: the value at v + t vanishes whenever the
    perturbed functional decreases along t, that is when perturbed_key(ξ, t)
    is below (0, …, 0).  Directions sweep a small integer grid, seeded
    random vectors, and exact probes into each piece (in particular into
    any part of a piece on which the functional decreases), so a wrongly
    flipped piece cannot hide between grid points.
    """
    xi = as_functional(xi)
    if isinstance(contribs, dict):
        family = [contribs[k] for k in sorted(contribs)]
    else:
        family = list(contribs)
    if not family:
        raise ValueError("empty family")
    dim = len(family[0].vertex)
    rng = random.Random(seed)
    base_dirs = list(_direction_grid(dim))
    for _ in range(direction_samples):
        t = tuple(rng.randint(-5, 5) for _ in range(dim))
        if any(t) and t not in base_dirs:
            base_dirs.append(t)
    structural = True
    violations: list[dict] = []
    lambdas = ((1, 2), (1, 1), (3, 1))  # λ = p/q
    total_dirs = 0
    for lc in family:
        v = lc.vertex
        e, (a,) = _scaled([v])  # v = a/e
        cells = Arrangement((lc.sum,))
        dirs = list(base_dirs)
        for _c, pc in lc.sum.terms:
            for h in pc.constraints:
                if dot(h.normal, v) != h.offset:
                    structural = False
            for probe in _piece_direction_probes(pc, v, xi):
                if probe not in dirs:
                    dirs.append(probe)
        total_dirs += len(dirs)
        for t in dirs:  # v + (p/q)·t = (q·a + p·e·t) / (q·e)
            vals = [cells.values(cells.signs(
                [q * x + p * e * y for x, y in zip(a, t)], q * e))[0]
                for p, q in lambdas]
            if not (vals[0] == vals[1] == vals[2]):
                violations.append({
                    "kind": "conic", "vertex": [str(c) for c in v],
                    "direction": list(t),
                    "values": [repr(x) for x in vals]})
                continue
            if perturbed_key(xi, t) < (0,) * (dim + 1) and vals[1].coeffs:
                violations.append({
                    "kind": "positive", "vertex": [str(c) for c in v],
                    "direction": list(t), "value": repr(vals[1])})
    return PositiveConicReport(total_dirs, structural, violations)
