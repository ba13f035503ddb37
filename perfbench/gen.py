"""Seeded input generation and independent integer-geometry oracles.

This module never imports ``conedec``: the inputs it writes are the only
thing the program sees, and the oracles it provides (hull facet sets,
brute-force lattice counts, grid sizes) share no code path with the
program's own algorithms.  All arithmetic is on Python ``int``.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import ceil, floor, gcd


# ---------------------------------------------------------------------------
# Integer linear algebra
# ---------------------------------------------------------------------------

def int_det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_rank(rows):
    """Rank of an integer matrix by fraction-free row reduction."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                a, b = m[r][c], m[i][c]
                m[i] = [a * x - b * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def affine_rank(points):
    p0 = points[0]
    return int_rank([[a - b for a, b in zip(p, p0)] for p in points[1:]])


def _primitive(v):
    g = 0
    for a in v:
        g = gcd(g, a)
    return tuple(a // g for a in v) if g > 1 else tuple(v)


def _small_det(rows):
    """int_det, written out for the 1x1 to 3x3 minors the hull needs."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return int_det(rows)


def _hyperplane_normal(diffs):
    """Normal of the span of d-1 vectors in Z^d, by cofactor expansion."""
    d = len(diffs[0])
    return tuple((-1) ** i * _small_det([row[:i] + row[i + 1:] for row in diffs])
                 for i in range(d))


# ---------------------------------------------------------------------------
# Hull oracle
# ---------------------------------------------------------------------------

def hull(points):
    """Vertices and facets of the convex hull of integer points.

    Returns ``(vertices, facets)``: ``vertices`` is a sorted tuple of integer
    tuples and ``facets`` a frozenset of ``(normal, offset)`` with primitive
    integer ``normal`` and ``normal·x ≥ offset`` on the hull, the same
    normalisation the program uses.  Points must affinely span Z^d.
    """
    pts = sorted({tuple(p) for p in points})
    d = len(pts[0])
    facets = set()
    for subset in combinations(pts, d):
        p0 = subset[0]
        diffs = [[a - b for a, b in zip(p, p0)] for p in subset[1:]]
        n = _hyperplane_normal(diffs) if d > 1 else (1,)
        if not any(n):
            continue
        n = _primitive(n)
        c = sum(a * b for a, b in zip(n, p0))
        above = below = False
        for p in pts:
            side = sum(a * b for a, b in zip(n, p)) - c
            above = above or side > 0
            below = below or side < 0
            if above and below:
                break
        else:
            facets.add((tuple(-a for a in n), -c) if below else (n, c))
    verts = []
    for p in pts:
        tight = [n for n, c in facets if sum(a * b for a, b in zip(n, p)) == c]
        if int_rank(tight) == d:
            verts.append(p)
    return tuple(verts), frozenset(facets)


def is_simple(vertices, facets):
    """Every vertex lies on exactly dim facets."""
    d = len(vertices[0])
    return all(sum(sum(a * b for a, b in zip(n, v)) == c for n, c in facets) == d
               for v in vertices)


def brute_count(vertices, facets):
    """Lattice points of the hull, by bounding-box enumeration."""
    d = len(vertices[0])
    ranges = [range(min(v[i] for v in vertices), max(v[i] for v in vertices) + 1)
              for i in range(d)]
    return sum(1 for x in product(*ranges)
               if all(sum(a * b for a, b in zip(n, x)) >= c for n, c in facets))


def grid_size(dim, lo, hi, step_num, step_den, samples):
    """Points a grid verification checks: the grid step·Z^d in [lo, hi]^d
    plus the extra random samples."""
    # k·p/q in [lo, hi]  <=>  ceil(lo·q/p) <= k <= floor(hi·q/p)
    per_axis = floor(hi * step_den / step_num) - ceil(lo * step_den / step_num) + 1
    return per_axis ** dim + samples


# ---------------------------------------------------------------------------
# Seeded shapes
# ---------------------------------------------------------------------------

def random_cloud(rng, dim, n, radius):
    """n distinct integer points in [-radius, radius]^dim spanning Z^dim."""
    while True:
        pts = {tuple(rng.randint(-radius, radius) for _ in range(dim))
               for _ in range(n)}
        if len(pts) != n:
            continue
        pts = sorted(pts)
        if affine_rank(pts) == dim:
            return pts


def random_polytope(rng, dim, n_vertices, n_facets, n_interior, radius):
    """A lattice polytope of a fixed size: n_vertices vertices drawn near the
    sphere of the given radius (so that nearly all are extreme), n_facets
    facets, plus n_interior points strictly inside, in seeded order.

    Returns (points, vertices, facets)."""
    r2 = radius * radius
    while True:
        shell = set()
        while len(shell) < n_vertices:
            x = tuple(rng.randint(-radius, radius) for _ in range(dim))
            if r2 - 2 * radius <= sum(a * a for a in x) <= r2:
                shell.add(x)
        verts, facets = hull(sorted(shell))
        if len(verts) != n_vertices or len(facets) != n_facets:
            continue
        inside = set()
        for _ in range(100 * n_interior):
            if len(inside) == n_interior:
                break
            x = tuple(rng.randint(-radius // 2, radius // 2) for _ in range(dim))
            if all(sum(a * b for a, b in zip(n, x)) > c for n, c in facets):
                inside.add(x)
        if len(inside) == n_interior:
            points = list(verts) + sorted(inside)
            rng.shuffle(points)
            return points, verts, facets


def random_polygon(rng, n_vertices, radius):
    """The vertices of a lattice polygon with exactly n_vertices edges."""
    return list(random_polytope(rng, 2, n_vertices, n_vertices, 0, radius)[1])


def random_prism(rng, n_vertices, radius, height):
    """Prism over a lattice polygon: every vertex is simple."""
    base = random_polygon(rng, n_vertices, radius)
    z0 = rng.randint(-radius, radius - height)
    return [(x, y, z) for x, y in base for z in (z0, z0 + height)]


def golden_sequence(rng, count):
    """A seeded low-discrepancy sequence in [0, 1): every prefix is spread
    evenly, so a run that stops early still sees the whole range."""
    x = rng.random()
    out = []
    for _ in range(count):
        out.append(x)
        x = (x + 0.6180339887498949) % 1.0
    return out


def make_rng(workload, seed):
    return random.Random(f"{workload}:{seed}")
