"""Seeded benchmark of conedec: count, hull and verify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload count --seed 1 --seconds 40 --trace 0

Load is a closed loop: one client, one process, one thread; each op starts
when the previous one has finished.  Ops are timed with tracing off, times
are scaled to a reference host speed (clock.py), and results are checked
against independent oracles after the timed loop.  ``--trace 1``
runs every op twice, once traced and once not, alternating which goes
first, and reports per-layer numbers and the tracing overhead instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A summary goes to stderr; the
run record (with the ``src/`` line count) and, for traced runs, the spans
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_REPS = 3          # set-up is repeated and its median reported
MIN_OPS = 100           # so that at least 10 samples lie beyond p90
MAX_LOOP_S = 150.0      # hard stop for a program too slow to reach MIN_OPS

SELF_LAYERS = ["polyhedra", "linalg", "genfunc", "indicators", "feasibility",
               "polar", "deform", "triangulation", "cli", "jsonio"]


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def set_up(workload, seed):
    """One set-up: import the program afresh and generate the inputs."""
    for name in [n for n in sys.modules if n == "conedec" or n.startswith("conedec.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace(cli=importlib.import_module("conedec.cli"),
                                 jsonio=importlib.import_module("conedec.jsonio"))
    return mods, workload.make_inputs(seed, workload.pool)


def timed_call(call):
    """(seconds, result, error): an op that raises is failed, not fatal."""
    t0 = perf_counter()
    try:
        result = call()
    except Exception as exc:
        return perf_counter() - t0, None, exc
    return perf_counter() - t0, result, None


def count_failed(workload, done):
    failed = 0
    for op, kept, err in done:
        try:
            ok = err is None and workload.check(op, kept)
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return failed


def run_plain(workload, mods, ops, seconds):
    """The timed loop.  A reference-task sample follows each op, and each
    op's time is scaled by the host speed around it (see clock.py)."""
    clock = Clock()
    raw, done = [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(raw) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
        op = ops[len(raw) % len(ops)]
        dt, result, err = timed_call(lambda: workload.call(mods, op))
        clock.tick()
        raw.append(dt)
        done.append((op, None if err else workload.keep(result), err))
    wall = perf_counter() - start
    times = [t * clock.scale_at(i) for i, t in enumerate(raw)]
    p90 = statistics.quantiles(times, n=10)[-1]
    metrics = {"ops_per_s": len(times) / sum(times),
               "op_p50_s": statistics.median(times), "op_p90_s": p90}
    by_rung = {}
    for (op, _kept, _err), t in zip(done, times):
        by_rung.setdefault(op.rung, []).append(t)
    summary = {"ops": len(times), "beyond_p90": sum(t > p90 for t in times),
               "loop_s": wall,
               "unscaled": {"ops_per_s": len(raw) / wall,
                            "op_p50_s": statistics.median(raw),
                            "op_p90_s": statistics.quantiles(raw, n=10)[-1]},
               "reference_task_median_s": statistics.median(clock.samples),
               "rung_median_s": {r: statistics.median(ts) for r, ts in by_rung.items()},
               "rung_ops": {r: len(ts) for r, ts in by_rung.items()},
               "op_s": times, "unscaled_op_s": raw}
    return done, metrics, summary


def run_traced(workload, mods, ops, seconds):
    """Every op twice, traced and untraced, alternating which runs first.
    Per-layer times are scaled by the run's median host speed."""
    tracer, clock = Tracer(), Clock()
    done = []
    plain_s = traced_s = 0.0
    start = perf_counter()
    n = 0
    while n < 2 or perf_counter() - start < seconds:
        op = ops[n % len(ops)]
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                tracer.op = n
                tracer.install()
                try:
                    dt, result, err = timed_call(lambda: tracer.span(
                        workload.name, lambda: workload.call(mods, op)))
                finally:
                    tracer.uninstall()
                traced_s += dt
            else:
                dt, result, err = timed_call(lambda: workload.call(mods, op))
                plain_s += dt
            done.append((op, None if err else workload.keep(result), err))
        clock.tick()
        n += 1
    metrics = layer_metrics(tracer, n, clock.overall_scale())
    metrics["trace.overhead"] = traced_s / plain_s
    summary = {"ops": n, "traced_s": traced_s, "untraced_s": plain_s,
               "spans_stored": len(tracer.spans), "spans_dropped": tracer.dropped}
    return done, metrics, summary, tracer


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_ops, scale=1.0):
    """Per-layer numbers from a traced run: times (multiplied by scale) and
    counts are per op, ratios are of run totals."""
    self_s = tracer.layer_self()
    calls = tracer.layer_calls()
    incl = tracer.inclusive
    c = tracer.counts
    grid_s = incl["indicators.verify_identity"]
    per_op = {
        "polyhedra.vh_s": incl["polyhedra.polytope_from_vertices"],
        "polyhedra.hv_s": incl["polyhedra.polytope_from_halfspaces"],
        "polyhedra.calls": calls["polyhedra"],
        "polyhedra.subsets": c["polyhedra.subsets"],
        "linalg.calls": calls["linalg"],
        "genfunc.enumerate_s": incl["genfunc.enumerate_parallelepiped"],
        "genfunc.specialize_s": incl["genfunc.specialize"],
        "genfunc.parallelepiped_points": c["genfunc.parallelepiped_points"],
        "genfunc.terms": c["genfunc.terms"],
        "indicators.grid_s": grid_s,
        "indicators.grid_points": c["indicators.grid_points"],
        "indicators.pieces": c["indicators.pieces"],
        "indicators.exact_s": incl["indicators.verify_identity_exact"],
        "indicators.exact_cells": c["indicators.exact_cells"],
        "feasibility.calls": calls["feasibility"],
        "deform.cells": c["deform.cells"],
        "triangulation.calls": calls["triangulation"],
        "triangulation.cells": c["triangulation.cells"],
    }
    for layer in SELF_LAYERS:
        per_op[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out = {k: v * (scale if k.endswith("_s") else 1) / n_ops
           for k, v in per_op.items()}
    out.update({
        "polyhedra.facet_yield": _ratio(c["polyhedra.facets_found"],
                                        c["polyhedra.vh_subsets"]),
        "polyhedra.vertex_yield": _ratio(c["polyhedra.vertices_found"],
                                         c["polyhedra.hv_subsets"]),
        "genfunc.useful_ratio": _ratio(c["genfunc.lattice_points"],
                                       c["genfunc.parallelepiped_points"]),
        "indicators.us_per_point": _ratio(grid_s * scale * 1e6,
                                          c["indicators.grid_points"]),
        "feasibility.feasible_ratio": _ratio(
            c["feasibility.feasible"], tracer.calls["feasibility.feasible_point"]),
    })
    return out


def print_layer_table(tracer, n_ops):
    self_s = tracer.layer_self()
    calls = tracer.layer_calls()
    total = sum(self_s.values())
    print(f"{'layer':<14}{'unscaled self s/op':>20}{'share':>8}{'calls/op':>12}",
          file=sys.stderr)
    for layer, t in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<14}{t / n_ops:>20.5f}{t / total:>8.1%}"
              f"{calls[layer] / n_ops:>12.1f}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "conedec" / "__init__.py").is_file():
        print(f"error: no conedec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = HERE / f".work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, clock = [], Clock()
        for _ in range(SETUP_REPS):
            dt, (mods, ops) = clock.timed(lambda: set_up(workload, args.seed))
            setups.append(dt)
        # Writing the files is kernel time, which on the shared host varies
        # 4x from run to run and which no program change moves: it is kept
        # out of setup_s and recorded on its own.
        work.mkdir(parents=True)
        t0 = perf_counter()
        write_inputs(ops, work)
        write_s = perf_counter() - t0
        if args.trace:
            done, metrics, summary, tracer = run_traced(workload, mods, ops,
                                                        args.seconds)
        else:
            done, metrics, summary = run_plain(workload, mods, ops, args.seconds)
        failed = count_failed(workload, done)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(done)
    if not args.trace:
        metrics.update(setup_s=statistics.median(setups),
                       ok_rate=(attempted - failed) / attempted,
                       peak_rss_mb=resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "src_lines": src_lines(), "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted,
              "setup_runs_s": setups, "input_write_s": write_s, **summary,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json", {"workload": args.workload,
                                                  "seed": args.seed})
        print_layer_table(tracer, summary["ops"])
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("metrics", "op_s", "unscaled_op_s")}),
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
