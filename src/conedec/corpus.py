"""Bundled test corpus: small polytopes spanning the interesting cases.

Simple and non-simple, unimodular and not, dimensions 1 through 4.  Expected
lattice counts are frozen literals; the test suite regenerates every one of
them with the brute-force oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .polyhedra import DegenerateInput, Polytope, polytope_from_vertices

RANDOM_01_SEED = 20260808
_RANDOM_01_POINTS = {2: 3, 3: 6, 4: 8}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    dim: int
    simple: bool
    expected_count: int
    build: Callable[[], Polytope]


def _cube(d: int) -> Callable[[], Polytope]:
    return lambda: polytope_from_vertices(list(product((0, 1), repeat=d)))


def _simplex(d: int) -> Callable[[], Polytope]:
    def build():
        pts = [tuple(0 for _ in range(d))]
        for i in range(d):
            pts.append(tuple(1 if j == i else 0 for j in range(d)))
        return polytope_from_vertices(pts)
    return build


def _cross(d: int) -> Callable[[], Polytope]:
    def build():
        pts = []
        for i in range(d):
            for s in (1, -1):
                pts.append(tuple(s if j == i else 0 for j in range(d)))
        return polytope_from_vertices(pts)
    return build


def pyramid() -> Polytope:
    """Square pyramid with apex at the origin; the apex is not simple."""
    return polytope_from_vertices(
        [(0, 0, 0), (1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])


def pentagon_cone() -> Polytope:
    """Cone over an integral pentagon: one vertex with five tight facets."""
    pent = [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]
    return polytope_from_vertices([(1, 1, 0)] + [(x, y, 1) for x, y in pent])


def random_01_polytope(d: int) -> Polytope:
    """Convex hull of a fixed-seed random subset of the 0/1 cube corners."""
    rng = random.Random(RANDOM_01_SEED + d)
    k = _RANDOM_01_POINTS[d]
    while True:
        pts: set[tuple[int, ...]] = set()
        while len(pts) < k:
            pts.add(tuple(rng.randint(0, 1) for _ in range(d)))
        try:
            return polytope_from_vertices(sorted(pts))
        except DegenerateInput:
            continue


def build_corpus() -> list[CorpusEntry]:
    entries = [
        CorpusEntry("segment[-3,5]", 1, True, 9,
                    lambda: polytope_from_vertices([(-3,), (5,)])),
        CorpusEntry("segment[-3/2,5/2]", 1, True, 4,
                    lambda: polytope_from_vertices(
                        [(Fraction(-3, 2),), (Fraction(5, 2),)])),
        CorpusEntry("square", 2, True, 4, _cube(2)),
        CorpusEntry("triangle", 2, True, 3, _simplex(2)),
        CorpusEntry("cross-2d", 2, True, 5, _cross(2)),
        CorpusEntry("cube", 3, True, 8, _cube(3)),
        CorpusEntry("simplex-3d", 3, True, 4, _simplex(3)),
        CorpusEntry("octahedron", 3, False, 7, _cross(3)),
        CorpusEntry("pyramid", 3, False, 10, pyramid),
        CorpusEntry("pentagon-cone", 3, False, 13, pentagon_cone),
        CorpusEntry("cube-4d", 4, True, 16, _cube(4)),
        CorpusEntry("simplex-4d", 4, True, 5, _simplex(4)),
        CorpusEntry("random01-2d", 2, True, RANDOM_01_COUNTS[2],
                    lambda: random_01_polytope(2)),
        CorpusEntry("random01-3d", 3, RANDOM_01_SIMPLE[3], RANDOM_01_COUNTS[3],
                    lambda: random_01_polytope(3)),
        CorpusEntry("random01-4d", 4, RANDOM_01_SIMPLE[4], RANDOM_01_COUNTS[4],
                    lambda: random_01_polytope(4)),
    ]
    return entries


# frozen facts about the seeded random entries (regenerated by the tests)
RANDOM_01_COUNTS = {2: 3, 3: 6, 4: 8}
RANDOM_01_SIMPLE = {2: True, 3: False, 4: False}
