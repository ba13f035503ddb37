"""Command-line front end.

Subcommands: count, decompose, verify, corpus.  All output is deterministic
given (input, flags, seed); JSON reports omit wall-clock time for exactly
that reason.  Exit codes: 0 success, 1 mathematical counterexample, 2 bad
input or usage, 3 internal error (a broken invariant or another unexpected
failure such as running out of memory: never bad input).
An option value may start with a minus sign: ``--xi -1,2`` is ``--xi=-1,2``.
``--xi`` may be any nonzero functional, even one constant on an edge or a
triangulation ray (ties are broken lexicographically); without it, a
functional nonconstant on every edge is drawn from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from fractions import Fraction

from . import corpus as corpus_mod
from .deform import (compatible_decomposition, local_contribution,
                     local_contributions, nonsimple_decomposition,
                     positive_conic_check, seeded_dual_heights, t_sigma,
                     vertex_triangulation)
from .genfunc import (brion_gf, count_lattice_points, gf_brute_force,
                      gf_equal_as_functions, lattice_points)
from .indicators import (ONE, IndicatorSum, VerificationReport, default_box,
                         gram_decomposition, indicator_of_polytope,
                         indicator_of_interior, piece, tangent_cone_piece,
                         verify_identity, verify_identity_exact,
                         weighted_indicator)
from .jsonio import (gf_to_json, indicator_sum_to_json, polytope_from_json,
                     rat_str)
from .linalg import frac
from .polar import (is_generic, lv_decomposition, partition_identity,
                    rearrange_for_vertex, weighted_lv_decomposition)
from .polyhedra import Polytope, center_at_barycenter, is_simple_vertex

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    pass


def _load_polytope(path: str) -> Polytope:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}")
    try:
        return polytope_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {exc}")


def _parse_xi(text, dim: int):
    if text is None:
        raise InputError("this operation needs --xi a,b,...")
    try:
        xi = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"--xi must be comma-separated integers, got {text!r}")
    if len(xi) != dim:
        raise InputError(f"--xi has {len(xi)} entries, polytope dim is {dim}")
    return xi


def _parse_heights(items, p: Polytope) -> dict[int, list[Fraction]]:
    out: dict[int, list[Fraction]] = {}
    for item in items or []:
        if "=" not in item:
            raise InputError(f"--heights must look like v0=1,1,0,0, got {item!r}")
        key, vals = item.split("=", 1)
        if not key.startswith("v"):
            raise InputError(f"--heights key must be v<index>, got {key!r}")
        try:
            vid = int(key[1:])
            heights = [frac(x) for x in vals.split(",")]
        except (ValueError, TypeError):
            raise InputError(f"cannot parse --heights item {item!r}")
        if not 0 <= vid < len(p.vertices):
            raise InputError(f"--heights: no vertex {vid}")
        want = len(p.tight_facets(vid))
        if len(heights) != want:
            raise InputError(f"--heights v{vid} needs {want} values "
                             f"(one per tight facet), got {len(heights)}")
        out[vid] = heights
    return out


def _parse_box(text, p: Polytope):
    if text is None:
        return default_box(p)
    try:
        lo, hi = (frac(x) for x in text.split(","))
    except (ValueError, TypeError):
        raise InputError(f"--box must be lo,hi with rationals, got {text!r}")
    if lo >= hi:
        raise InputError("--box lower bound must be below upper bound")
    return [(lo, hi)] * p.dim


def _emit(report_dicts, human_lines, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_dicts, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    p = _load_polytope(args.input)
    t0 = time.monotonic()
    results = {}
    if args.method in ("brion", "both") or args.check:
        results["brion"] = count_lattice_points(brion_gf(p, seed=args.seed))
    if args.method in ("brute", "both") or args.check:
        results["brute"] = len(lattice_points(p))
    wall = time.monotonic() - t0
    agree = len(set(results.values())) <= 1
    count = next(iter(results.values()))
    out = {"count": count, "methods": results, "agree": agree}
    lines = [f"count = {count}  ({', '.join(f'{k}: {v}' for k, v in sorted(results.items()))})",
             f"wall time: {wall:.3f}s"]
    if args.check and not agree:
        lines.insert(0, "METHOD DISAGREEMENT")
    _emit(out, lines, args.json)
    return EXIT_OK if agree else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    p = _load_polytope(args.input)
    method = args.method
    if method == "gram":
        payload = {"method": method,
                   "decomposition": indicator_sum_to_json(gram_decomposition(p))}
    elif method == "brion-gf":
        payload = {"method": method,
                   "gf": gf_to_json(brion_gf(p, seed=args.seed))}
    elif method in ("lv", "weighted-lv"):
        xi = _parse_xi(args.xi, p.dim)
        fn = lv_decomposition if method == "lv" else weighted_lv_decomposition
        payload = {"method": method, "xi": list(xi),
                   "decomposition": indicator_sum_to_json(fn(p, xi))}
    elif method == "nonsimple":
        xi = _parse_xi(args.xi, p.dim)
        heights = _parse_heights(args.heights, p)
        dec = nonsimple_decomposition(p, xi, heights, seed=args.seed)
        payload = {"method": method, "xi": list(xi),
                   "decomposition": indicator_sum_to_json(dec)}
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown method {method}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _report_exit(reports, as_json: bool, extra: dict | None = None) -> int:
    if not isinstance(reports, list):
        reports = [reports]
    ok = all(r.success for r in reports)
    payload = {"success": ok, "reports": [r.to_json_dict() for r in reports]}
    if extra:
        payload.update(extra)
    lines = []
    for r in reports:
        status = "ok" if r.success else "FAIL"
        lines.append(f"[{status}] {r.identity}: {r.points_checked} points "
                     f"({r.wall_time:.3f}s)")
        if r.counterexample:
            lines.append(f"       counterexample: {r.counterexample}")
    _emit(payload, lines, as_json)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _xi(text, p: Polytope, seed: int):
    """The --xi functional, or else the first edge-generic seeded draw, or
    the first nonzero one when 1000 draws hold no edge-generic one.

    Any nonzero functional is accepted: ties on triangulation rays are
    broken by the perturbation of `deform.simple_cone_frame`.
    """
    if text:
        return _parse_xi(text, p.dim)
    rng = random.Random(seed)
    first = None
    for _ in range(1000):
        cand = tuple(rng.randint(-9, 9) for _ in range(p.dim))
        if any(cand):
            if is_generic(cand, p):
                return cand
            first = first or cand
    return first


def cmd_verify(args) -> int:
    p = _load_polytope(args.input)
    box = _parse_box(args.box, p)
    step = frac(args.step)
    samples = args.samples
    if samples < 0:
        raise InputError(f"--samples must be non-negative, got {samples}")
    seed = args.seed
    ident = args.identity
    if args.exact_cells and ident in ("brion", "positive-conic"):
        raise InputError(f"--exact-cells does not apply to {ident}")
    one = indicator_of_polytope(p)

    def vrfy(lhs, rhs, name, box=box):
        if args.exact_cells:
            return verify_identity_exact(lhs, rhs, name=name)
        return verify_identity(lhs, rhs, box, step, samples, seed, name=name)

    if ident == "gram":
        return _report_exit(vrfy(gram_decomposition(p), one, "gram"), args.json)

    if ident == "brion":
        g1 = brion_gf(p, seed=seed)
        g2 = gf_brute_force(p)
        c1, c2 = count_lattice_points(g1), count_lattice_points(g2)
        same = gf_equal_as_functions(g1, g2, trials=4, seed=seed) and c1 == c2
        rep = VerificationReport(
            "brion", {"seed": seed}, 4, same,
            None if same else {"brion_count": c1, "brute_count": c2})
        return _report_exit(rep, args.json)

    if ident == "lv":
        xi = _xi(args.xi, p, seed)
        return _report_exit(vrfy(lv_decomposition(p, xi), one,
                                 f"lv xi={','.join(map(str, xi))}"),
                            args.json, {"xi": list(xi)})

    if ident == "weighted":
        xi = _xi(args.xi, p, seed)
        w = weighted_lv_decomposition(p, xi)
        reports = [
            vrfy(w, weighted_indicator(p), "weighted"),
            vrfy(w.substitute(1), one, "weighted@z=1"),
            vrfy(w.substitute(0), indicator_of_interior(p), "weighted@z=0"),
        ]
        return _report_exit(reports, args.json)

    if ident == "rearrange":
        xi = _xi(args.xi, p, seed)
        reports = []
        for vid in range(len(p.vertices)):
            lhs, rhs = rearrange_for_vertex(p, vid, xi)
            reports.append(vrfy(lhs, rhs, f"rearrange@v{vid}"))
        return _report_exit(reports, args.json)

    if ident == "partition":
        reports = [vrfy(*partition_identity(p, vid), f"partition@v{vid}")
                   for vid in range(len(p.vertices))]
        return _report_exit(reports, args.json)

    if ident == "eq6":
        heights = _parse_heights(args.heights, p)
        reports = []
        for vid in range(len(p.vertices)):
            if is_simple_vertex(p, vid):
                continue
            tri = vertex_triangulation(p, vid, heights.get(vid), seed)
            walls = [h for cell in tri.cells
                     for h in t_sigma(p, vid, cell, tri).constraints]
            cells = piece(p.dim, walls, witness=p.vertices[vid])
            tangent = tangent_cone_piece(p, p.face_of_vertex(vid))
            reports.append(vrfy(IndicatorSum(p.dim, ((ONE, cells),)),
                                IndicatorSum(p.dim, ((ONE, tangent),)),
                                f"cell-intersection@v{vid}"))
        if not reports:
            raise InputError("eq6 needs a non-simple vertex; this polytope "
                             "is simple")
        return _report_exit(reports, args.json)

    if ident == "nonsimple":
        heights = _parse_heights(args.heights, p)
        xi = _xi(args.xi, p, seed)
        dec = nonsimple_decomposition(p, xi, heights, seed=seed)
        return _report_exit(vrfy(dec, one, "nonsimple"), args.json,
                            {"xi": list(xi)})

    if ident == "delta-invariance":
        heights = _parse_heights(args.heights, p)
        xi = _xi(args.xi, p, seed)
        reports = []
        for vid in range(len(p.vertices)):
            tri1 = vertex_triangulation(p, vid, heights.get(vid), seed)
            tri2 = vertex_triangulation(p, vid, None, seed + 1)
            reports.append(vrfy(local_contribution(p, vid, tri1, xi).sum,
                                local_contribution(p, vid, tri2, xi).sum,
                                f"delta-invariance@v{vid}"))
        return _report_exit(reports, args.json, {"xi": list(xi)})

    if ident == "compatible":
        xi = _xi(args.xi, p, seed)
        shifted, shift = p, None
        origin = tuple(Fraction(0) for _ in range(p.dim))
        if not p.contains_interior(origin):
            shifted, shift = center_at_barycenter(p)
        if args.dual_heights:
            try:
                dh = [frac(x) for x in args.dual_heights.split(",")]
            except (ValueError, TypeError):
                raise InputError("--dual-heights must be comma-separated rationals")
            if len(dh) != len(shifted.facets):
                raise InputError(f"--dual-heights needs {len(shifted.facets)} "
                                 "values (one per facet)")
        else:
            dh = seeded_dual_heights(shifted, seed)
        dec = compatible_decomposition(shifted, xi, dh)
        rep = vrfy(dec, indicator_of_polytope(shifted), "compatible",
                   _parse_box(args.box, shifted))
        extra = {"xi": list(xi)}
        if shift:
            extra["shift"] = [rat_str(s) for s in shift]
        return _report_exit(rep, args.json, extra)

    if ident == "positive-conic":
        heights = _parse_heights(args.heights, p)
        xi = _xi(args.xi, p, seed)
        contribs = local_contributions(p, xi, heights, seed)
        rep = positive_conic_check(contribs, xi, samples, seed)
        payload = rep.to_json_dict()
        lines = [f"[{'ok' if rep.success else 'FAIL'}] positive-conic: "
                 f"{rep.directions_checked} directions, "
                 f"structurally conic: {rep.structurally_conic}"]
        for v in rep.violations[:5]:
            lines.append(f"       violation: {v}")
        _emit(payload, lines, args.json)
        return EXIT_OK if rep.success else EXIT_COUNTEREXAMPLE

    raise InputError(f"unknown identity {ident!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _corpus_entries(args):
    if args.input:
        try:
            with open(args.input) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}")
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.input}: not valid JSON: {exc}")
        if not isinstance(data, list) or not data:
            raise InputError(f"{args.input}: corpus must be a nonempty list")
        entries = []
        for row in data:
            try:
                name = row["name"]
                expected = int(row["expected_count"])
                pj = row["polytope"]
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{args.input}: bad corpus entry: {exc}")
            entries.append((name, expected, lambda pj=pj: polytope_from_json(pj)))
        return entries
    return [(e.name, e.expected_count, e.build) for e in corpus_mod.build_corpus()]


def cmd_corpus(args) -> int:
    entries = _corpus_entries(args)
    rows = []
    failures = 0
    for name, expected, build in entries:
        t0 = time.monotonic()
        try:
            p = build()
            brute = len(lattice_points(p))
            brion = count_lattice_points(brion_gf(p, seed=args.seed))
            gram_ok = verify_identity(
                gram_decomposition(p), indicator_of_polytope(p),
                default_box(p), Fraction(1, 2), 50, args.seed, "gram").success
            dec = nonsimple_decomposition(p, _xi(None, p, args.seed),
                                          seed=args.seed)
            dec_ok = verify_identity(
                dec, indicator_of_polytope(p), default_box(p), Fraction(1, 2),
                50, args.seed, "decomposition").success
            ok = (brion == brute == expected) and gram_ok and dec_ok
            row = {"name": name, "dim": p.dim, "expected": expected,
                   "brute": brute, "brion": brion, "gram": gram_ok,
                   "decomposition": dec_ok, "ok": ok,
                   "seconds": round(time.monotonic() - t0, 3)}
        except AssertionError:
            raise  # a broken invariant is a bug, not a failing entry
        except Exception as exc:
            ok = False
            row = {"name": name, "ok": False, "error": str(exc),
                   "seconds": round(time.monotonic() - t0, 3)}
        if not ok:
            failures += 1
        rows.append(row)
    if args.json:
        for row in rows:
            row.pop("seconds", None)
        print(json.dumps({"entries": rows, "failures": failures},
                         indent=2, sort_keys=True))
    else:
        for row in rows:
            if "error" in row:
                print(f"{row['name']:<18} ERROR {row['error']}")
            else:
                mark = "ok " if row["ok"] else "FAIL"
                print(f"{row['name']:<18} d={row['dim']} count={row['brion']} "
                      f"expected={row['expected']} gram={row['gram']} "
                      f"dec={row['decomposition']} [{mark}] "
                      f"{row['seconds']:.2f}s")
        print(f"{len(rows) - failures}/{len(rows)} corpus entries pass")
    return EXIT_OK if failures == 0 else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads an argument such as "-1,2" as a value, not as an option."""

    def _parse_optional(self, arg_string):
        if re.match(r"-\d", arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="conedec",
        description="Exact conic decompositions of rational polytopes and "
                    "lattice-point counting, with machine-checked identities.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("--input", required=True, help="polytope JSON file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")

    sp = sub.add_parser("count", help="count lattice points")
    common(sp)
    sp.add_argument("--method", choices=["brion", "brute", "both"],
                    default="brion")
    sp.add_argument("--check", action="store_true",
                    help="run both methods and compare")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("decompose", help="emit a decomposition as JSON")
    common(sp)
    sp.add_argument("--method", required=True,
                    choices=["gram", "brion-gf", "lv", "weighted-lv",
                             "nonsimple"])
    sp.add_argument("--xi", help="functional, e.g. 4,2,0")
    sp.add_argument("--heights", action="append",
                    help="per-vertex lifting heights, e.g. v0=1,1,0,0 "
                         "(ray order = facet order)")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("verify", help="machine-check an identity")
    common(sp)
    sp.add_argument("--identity", required=True,
                    choices=["gram", "brion", "lv", "weighted", "rearrange",
                             "partition", "eq6", "nonsimple",
                             "delta-invariance", "compatible",
                             "positive-conic"])
    sp.add_argument("--xi")
    sp.add_argument("--heights", action="append")
    sp.add_argument("--dual-heights")
    sp.add_argument("--box", help="lo,hi applied to every coordinate")
    sp.add_argument("--step", default="1/2")
    sp.add_argument("--samples", type=int, default=200,
                    help="extra seeded random points")
    sp.add_argument("--exact-cells", action="store_true",
                    help="decide by arrangement cell enumeration (slow)")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("corpus", help="run the bundled acceptance corpus")
    sp.add_argument("--input", help="optional corpus JSON overriding the "
                                    "bundled one")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a broken invariant or a resource failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
