"""Reference lattice-point listing of a polytope, one point at a time.

This is the body ``conedec.genfunc.lattice_points`` had before brute force
counted by the grid's line runs (``indicators.lattice_runs``), kept as an
oracle: it tests every integer point of the bounding box against every
facet in ``Fraction`` arithmetic, so its cost is the box volume.
"""

from __future__ import annotations

from itertools import product
from math import ceil, floor

from conedec.linalg import IntVector
from conedec.polyhedra import Polytope
from indicator_oracle import satisfied


def lattice_points(p: Polytope) -> list[IntVector]:
    """All integer points of the polytope, in lexicographic order."""
    ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in p.bounding_box()]
    return [pt for pt in product(*ranges)
            if all(satisfied(h, pt) for h in p.facets)]
