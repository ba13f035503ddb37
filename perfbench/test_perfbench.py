"""Tests of the benchmark itself: its oracles, its counters, its exit paths.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import types

import pytest

import gen
import run
from clock import REF_S, Clock, reference_task
from spans import Tracer
from workloads import WORKLOADS, Op, run_cli, write_inputs

sys.path.insert(0, str(run.SRC))

import conedec.cli  # noqa: E402
import conedec.genfunc  # noqa: E402
import conedec.jsonio  # noqa: E402
import conedec.polyhedra  # noqa: E402

MODS = types.SimpleNamespace(cli=conedec.cli, jsonio=conedec.jsonio)


def _write_vertices(path, points):
    path.write_text(json.dumps({"dim": len(points[0]),
                                "vertices": [[str(x) for x in p] for p in points]}))
    return str(path)


def _traced_metrics(workload, op):
    """Per-layer metrics of one op (run_traced runs it twice: two ops)."""
    done, metrics, _summary, _tracer = run.run_traced(WORKLOADS[workload], MODS,
                                                       [op], 0)
    assert run.count_failed(WORKLOADS[workload], done) == 0
    return metrics


# -- oracles ----------------------------------------------------------------

def test_int_det_and_rank():
    assert gen.int_det([[2, 0, 1], [1, 3, 0], [0, 1, 4]]) == 25
    assert gen.int_det([[0, 1], [1, 0]]) == -1
    assert gen.int_rank([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 2


def test_hull_oracle_agrees_with_program_on_cube_with_interior_point():
    cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    verts, facets = gen.hull(cube + [(1, 1, 1)])
    assert set(verts) == set(cube)
    p = conedec.polyhedra.polytope_from_vertices(cube + [(1, 1, 1)])
    assert {(h.normal, h.offset) for h in p.facets} == facets
    assert gen.brute_count(verts, facets) == 27


def test_grid_size_is_axis_product_plus_samples():
    # [-2, 2] at step 1/2 has 9 points per axis
    assert gen.grid_size(3, -2, 2, 1, 2, 16) == 9 ** 3 + 16
    assert gen.grid_size(2, -1, 3, 2, 3, 0) == 6 ** 2   # k·2/3 for k in -1..4


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_seeded(name):
    def inputs(seed):
        return [(op.rung, json.dumps([op.expect, op.doc, op.arg], default=sorted,
                                     sort_keys=True))
                for op in WORKLOADS[name].make_inputs(seed, 12)]
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


# -- a planted wrong oracle value counts as an error -------------------------

@pytest.mark.parametrize("name, plant", [
    ("count", lambda e: e.update(count=e.get("count", 0) - 1)),
    ("hull", lambda e: e.update(facets=set(list(e["facets"])[1:]))),
    ("verify", lambda e: e.update(points=e["points"] + 1)),
])
def test_planted_wrong_oracle_raises_error_rate(tmp_path, name, plant):
    wl = WORKLOADS[name]
    ops = wl.make_inputs(3, 8)
    write_inputs(ops, str(tmp_path))
    op = next(op for op in ops if name != "verify" or "points" in op.expect)
    done = [(op, wl.keep(wl.call(MODS, op)), None)]
    assert run.count_failed(wl, done) == 0
    if name == "count":
        wl.check(op, done[0][1])          # fills in the brute-force count
    plant(op.expect)
    assert run.count_failed(wl, done) == 1


def test_failed_op_is_an_error(tmp_path):
    wl = WORKLOADS["count"]
    op = Op("bad", ["count", "--input", str(tmp_path / "missing.json"), "--json"])
    assert run.count_failed(wl, [(op, wl.call(MODS, op), None)]) == 1


# -- computed counts ----------------------------------------------------------

def test_parallelepiped_points_is_sum_of_vertex_cone_determinants(tmp_path):
    # a lattice simplex: every vertex is simple and every vertex pair an edge
    simplex = [(0, 0, 0), (3, 0, 0), (0, 2, 0), (1, 1, 5)]
    expected = sum(
        abs(gen.int_det([gen._primitive([a - b for a, b in zip(w, v)])
                         for w in simplex if w != v]))
        for v in simplex)
    op = Op("simplex", ["count", "--input",
                        _write_vertices(tmp_path / "s.json", simplex), "--json"],
            {"points": simplex})
    metrics = _traced_metrics("count", op)
    assert metrics["genfunc.parallelepiped_points"] == expected
    count = gen.brute_count(*gen.hull(simplex))
    assert metrics["genfunc.useful_ratio"] == pytest.approx(count / expected)


def test_grid_points_counter(tmp_path):
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    argv = ["verify", "--input", _write_vertices(tmp_path / "t.json", pts),
            "--identity", "gram", "--box=-2,2", "--step", "1/2",
            "--samples", "16", "--json"]
    metrics = _traced_metrics("verify", Op("simplex", argv, {"points": 9 ** 3 + 16}))
    assert metrics["indicators.grid_points"] == 9 ** 3 + 16


# -- tracing --------------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores_it():
    original = conedec.genfunc.brion_gf
    assert conedec.cli.brion_gf is original
    tracer = Tracer()
    tracer.install()
    try:
        assert conedec.cli.brion_gf is conedec.genfunc.brion_gf
        assert conedec.cli.brion_gf is not original
        assert conedec.brion_gf is conedec.genfunc.brion_gf
    finally:
        tracer.uninstall()
    assert conedec.cli.brion_gf is original is conedec.brion_gf


def test_self_times_partition_the_op(tmp_path):
    path = _write_vertices(tmp_path / "t.json", [(0, 0), (40, 0), (0, 1)])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.span("count", lambda: run_cli(conedec.cli,
                                             ["count", "--input", path, "--json"]))
    finally:
        tracer.uninstall()
    op_time = tracer.inclusive["bench.count"]
    assert sum(tracer.self_time.values()) == pytest.approx(op_time)
    names = tracer.names
    spans = [s for s in tracer.spans if s is not None]
    by_index = dict(enumerate(tracer.spans))
    for name_id, t0, t1, parent, _op in spans:
        if parent >= 0:
            p = by_index[parent]
            assert p[1] <= t0 <= t1 <= p[2], names[name_id]
    assert {names[s[0]].split(".")[0] for s in spans} >= {"cli", "genfunc",
                                                           "linalg", "polyhedra"}


# -- host speed ----------------------------------------------------------------

def test_clock_scales_by_the_reference_speed_around_a_timing():
    clock = Clock()
    clock.samples = [0.002] * 20 + [0.008] * 20     # the host slows 4x
    assert clock.scale_at(5) == pytest.approx(REF_S / 0.002)
    assert clock.scale_at(35) == pytest.approx(REF_S / 0.008)
    assert clock.overall_scale() == pytest.approx(REF_S / 0.005)
    assert reference_task() == reference_task() == 26


# -- the command ---------------------------------------------------------------

def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work-*", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
