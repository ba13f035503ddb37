"""The three workloads: seeded inputs, one user-level call per op, oracles.

Inputs come from a fixed repeating pattern of rungs (a ladder of sizes), so
every run sees the same mix of op sizes whatever its seed; the seed picks
the shapes within each rung.  An op's result is kept and checked against an
oracle that shares no code with the timed path only after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import gen


INPUT = "{input}"       # stands for the input file in an argv until it is written


@dataclass
class Op:
    rung: str
    arg: object                 # argv for CLI ops, a JSON object for hull ops
    expect: dict = field(default_factory=dict)
    doc: dict | None = None     # a CLI op's input file, to be written


def write_inputs(ops, workdir):
    """Write each CLI op's input file and put its path into the argv."""
    for i, op in enumerate(ops):
        if op.doc is not None:
            path = os.path.join(workdir, f"in{i:04d}.json")
            with open(path, "w") as fh:
                json.dump(op.doc, fh)
            op.arg = [path if a == INPUT else a for a in op.arg]


def _json_vertices(points):
    return {"dim": len(points[0]),
            "vertices": [[str(x) for x in p] for p in points]}


def _json_halfspaces(dim, facets):
    return {"dim": dim,
            "inequalities": [{"normal": [str(a) for a in n], "offset": str(c)}
                             for n, c in sorted(facets)]}


def run_cli(cli, argv):
    """cli.main in process, stdout captured: returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# count: lattice-point counting through the CLI
# ---------------------------------------------------------------------------

# (points, radius) of the 3-d rungs; with the triangle that makes 6 ops per
# round.  The median op falls inside the doubled 7-point rung, and p90
# inside the doubled 8-point rung, whose cost varies most from cloud to cloud.
COUNT_CLOUDS = [(6, 3), (7, 3), (7, 3), (8, 4), (8, 4)]
COUNT_MAX_LOG10_K = 3.5                      # thin triangles up to 10^3.5


def count_inputs(seed, n_ops):
    rng = gen.make_rng("count", seed)
    rounds = -(-n_ops // (len(COUNT_CLOUDS) + 1))
    ops = []
    for x in gen.golden_sequence(rng, rounds):
        k = max(1, round(10 ** (COUNT_MAX_LOG10_K * x)))
        shapes = [(f"cloud{n}", gen.random_cloud(rng, 3, n, radius), {})
                  for n, radius in COUNT_CLOUDS]
        shapes.append(("triangle", [(0, 0), (k, 0), (0, 1)], {"count": k + 2}))
        for rung, pts, expect in shapes:
            ops.append(Op(rung, ["count", "--input", INPUT, "--json"],
                          dict(expect, points=pts), _json_vertices(pts)))
    return ops


def count_call(mods, op):
    return run_cli(mods.cli, op.arg)


def count_check(op, result):
    code, out = result
    if code != 0:
        return False
    if "count" not in op.expect:
        verts, facets = gen.hull(op.expect["points"])
        op.expect["count"] = gen.brute_count(verts, facets)
    return json.loads(out)["count"] == op.expect["count"]


# ---------------------------------------------------------------------------
# hull: V-to-H and H-to-V conversion through the JSON loader
# ---------------------------------------------------------------------------

# (dim, vertices, facets, interior points, radius).  V-to-H cost grows with
# C(points, dim) and H-to-V cost with C(facets, dim), so both are fixed per
# rung.  A round is the V- and H-form of the first two rungs and the H-form
# of the third: five ops whose costs are far enough apart that p50 and p90
# fall inside one rung each (h3d12 and h4d12), not between two.
HULL_RUNGS = [(3, 8, 12, 2, 5), (4, 7, 12, 1, 4), (3, 10, 16, 2, 5)]


def hull_inputs(seed, n_ops):
    rng = gen.make_rng("hull", seed)
    ops = []
    while len(ops) < n_ops:
        for i, (dim, nv, nf, ni, radius) in enumerate(HULL_RUNGS):
            pts, verts, facets = gen.random_polytope(rng, dim, nv, nf, ni, radius)
            expect = {"vertices": set(verts), "facets": facets}
            if i < 2:
                ops.append(Op(f"v{dim}d{nv}", _json_vertices(pts), expect))
            ops.append(Op(f"h{dim}d{nf}", _json_halfspaces(dim, facets), expect))
    return ops


def hull_call(mods, op):
    return mods.jsonio.polytope_from_json(op.arg)


def hull_signature(p):
    """What the oracle needs from a Polytope, kept instead of the object."""
    fvec = [0] * p.dim
    for f in p.faces:
        if f.dim < p.dim:
            fvec[f.dim] += 1
    return {"dim": p.dim, "vertices": set(p.vertices),
            "facets": {(h.normal, h.offset) for h in p.facets}, "fvec": fvec}


def hull_check(op, sig):
    d = sig["dim"]
    euler = sum((-1) ** i * f for i, f in enumerate(sig["fvec"]))
    return (sig["vertices"] == op.expect["vertices"]
            and sig["facets"] == op.expect["facets"]
            and sig["fvec"][0] == len(sig["vertices"])
            and sig["fvec"][d - 1] == len(sig["facets"])
            and euler == 1 - (-1) ** d)


# ---------------------------------------------------------------------------
# verify: identity checks on the grid and by exact arrangement cells
# ---------------------------------------------------------------------------

VERIFY_STEP = (1, 2)          # grid step 1/2
VERIFY_SAMPLES = 16           # seeded random points on top of the grid


def verify_inputs(seed, n_ops):
    rng = gen.make_rng("verify", seed)
    specs = []
    while len(specs) < n_ops:
        exact = ("gram", "lv")[len(specs) // 5 % 2]     # alternate by round
        cloud = gen.random_cloud(rng, 3, 5, 2)
        prism = gen.random_prism(rng, 3, 2, 2)
        simple = gen.is_simple(*gen.hull(cloud))
        specs.append(("grid-gram-cloud", cloud, "gram"))
        specs.append(("grid-dec-cloud", cloud, "lv" if simple else "nonsimple"))
        specs.append(("grid-gram-prism", prism, "gram"))
        specs.append(("grid-lv-prism", prism, "lv"))
        specs.append((f"exact-{exact}-hexagon", gen.random_polygon(rng, 6, 4), exact))
    ops = []
    for rung, pts, ident in specs:
        argv = ["verify", "--input", INPUT, "--identity", ident, "--json"]
        expect = {}
        if rung.startswith("exact"):
            argv.append("--exact-cells")
        else:
            lo = min(min(p) for p in pts) - 1
            hi = max(max(p) for p in pts) + 1
            num, den = VERIFY_STEP
            argv += [f"--box={lo},{hi}", "--step", f"{num}/{den}",
                     "--samples", str(VERIFY_SAMPLES)]
            expect["points"] = gen.grid_size(len(pts[0]), lo, hi, num, den,
                                             VERIFY_SAMPLES)
        ops.append(Op(rung, argv, expect, _json_vertices(pts)))
    return ops


def verify_call(mods, op):
    return run_cli(mods.cli, op.arg)


def verify_check(op, result):
    code, out = result
    if code != 0:
        return False
    payload = json.loads(out)
    reports = payload["reports"]
    if not payload["success"] or len(reports) != 1 or not reports[0]["success"]:
        return False
    checked = reports[0]["points_checked"]
    if "points" in op.expect:
        return checked == op.expect["points"]
    return checked >= 1


def _as_is(result):
    return result


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int                   # distinct inputs; a run cycles through them
    make_inputs: object         # (seed, n_ops) -> list[Op]
    call: object                # (modules, op) -> result; the timed call
    check: object               # (op, kept result) -> bool; the oracle
    keep: object = _as_is       # result -> what the oracle needs of it


# Pools cover a whole run of count and verify (~300 ops); hull inputs cost
# more to generate and its rungs have fixed sizes, so it cycles its pool.
WORKLOADS = {
    "count": Workload("count", 400, count_inputs, count_call, count_check),
    "hull": Workload("hull", 180, hull_inputs, hull_call, hull_check,
                     hull_signature),
    "verify": Workload("verify", 400, verify_inputs, verify_call, verify_check),
}
