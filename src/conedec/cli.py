"""Command-line front end.

Subcommands: count, decompose, verify, corpus.  All output is deterministic
given (input, flags, seed), so JSON reports omit wall-clock time; Brion
pulls each vertex cone's edges in order and needs no seed.  Exit codes: 0
success, 1 mathematical counterexample, 2 bad input or usage, 3 internal
error (a broken invariant or another unexpected failure such as running out
of memory: never bad input).
An option value may start with a minus sign: ``--xi -1,2`` is ``--xi=-1,2``.
``--xi`` may be any nonzero functional, even one constant on an edge or a
triangulation ray (ties are broken lexicographically); without it, one
nonconstant on every edge is drawn from ``--seed``.  JSON output reports it.
``verify`` checks an identity on a grid plus seeded samples, or by exact
arrangement cells with ``--exact-cells``; ``brion`` (generating functions)
and ``positive-conic`` (exact cells per vertex) ignore the grid options.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from fractions import Fraction
from functools import cache

from . import corpus as corpus_mod
from .deform import (compatible_decomposition, local_contribution,
                     local_contributions, nonsimple_decomposition,
                     positive_conic_check, seeded_dual_heights, t_sigma,
                     vertex_triangulation)
from .genfunc import (brion_gf, brute_force_count, count_lattice_points,
                      gf_brute_force, gf_equal_as_functions)
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


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}")


def _load_polytope(path: str) -> Polytope:
    try:
        return polytope_from_json(_read_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {exc}")


def _parse_xi(text: str, dim: int):
    try:
        xi = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"--xi must be comma-separated integers, got {text!r}")
    if len(xi) != dim:
        raise InputError(f"--xi has {len(xi)} entries, polytope dim is {dim}")
    if not any(xi):
        raise InputError("--xi must be nonzero")
    return xi


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
        if vid in out:
            raise InputError(f"--heights gives v{vid} twice")
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
# identities: (polytope, parsed args) -> ([(name, lhs, rhs), ...], extra JSON
# fields); a 4th element of a pair is the polytope whose default box checks it
# ---------------------------------------------------------------------------

def _gram(p, args):
    return [("gram", gram_decomposition(p), indicator_of_polytope(p))], {}


def _lv(p, args):
    xi = _xi(args.xi, p, args.seed)
    return ([(f"lv xi={','.join(map(str, xi))}", lv_decomposition(p, xi),
              indicator_of_polytope(p))], {"xi": list(xi)})


def _weighted(p, args):
    xi = _xi(args.xi, p, args.seed)
    w = weighted_lv_decomposition(p, xi)
    return ([("weighted", w, weighted_indicator(p)),
             ("weighted@z=1", w.substitute(1), indicator_of_polytope(p)),
             ("weighted@z=0", w.substitute(0), indicator_of_interior(p))],
            {"xi": list(xi)})


def _rearrange(p, args):
    xi = _xi(args.xi, p, args.seed)
    return ([(f"rearrange@v{vid}", *rearrange_for_vertex(p, vid, xi))
             for vid in range(len(p.vertices))], {"xi": list(xi)})


def _partition(p, args):
    return ([(f"partition@v{vid}", *partition_identity(p, vid))
             for vid in range(len(p.vertices))], {})


def _eq6(p, args):
    heights = _parse_heights(args.heights, p)
    pairs = []
    for vid in range(len(p.vertices)):
        if is_simple_vertex(p, vid):
            continue
        tri = vertex_triangulation(p, vid, heights.get(vid), args.seed)
        walls = [h for cell in tri.cells
                 for h in t_sigma(p, vid, cell, tri).constraints]
        cells = piece(p.dim, walls, witness=p.vertices[vid])
        tangent = tangent_cone_piece(p, p.faces[vid])
        pairs.append((f"cell-intersection@v{vid}",
                      IndicatorSum(p.dim, ((ONE, cells),)),
                      IndicatorSum(p.dim, ((ONE, tangent),))))
    if not pairs:
        raise InputError("eq6 needs a non-simple vertex; this polytope "
                         "is simple")
    return pairs, {}


def _nonsimple(p, args):
    heights = _parse_heights(args.heights, p)
    xi = _xi(args.xi, p, args.seed)
    dec = nonsimple_decomposition(p, xi, heights, seed=args.seed)
    return [("nonsimple", dec, indicator_of_polytope(p))], {"xi": list(xi)}


def _delta_invariance(p, args):
    heights = _parse_heights(args.heights, p)
    xi = _xi(args.xi, p, args.seed)
    pairs = []
    for vid in range(len(p.vertices)):
        tri1 = vertex_triangulation(p, vid, heights.get(vid), args.seed)
        tri2 = vertex_triangulation(p, vid, None, args.seed + 1)
        pairs.append((f"delta-invariance@v{vid}",
                      local_contribution(p, vid, tri1, xi).sum,
                      local_contribution(p, vid, tri2, xi).sum))
    return pairs, {"xi": list(xi)}


def _compatible(p, args):
    xi = _xi(args.xi, p, args.seed)
    extra = {"xi": list(xi)}
    shifted = p
    if not p.contains_interior(tuple(Fraction(0) for _ in range(p.dim))):
        shifted, shift = center_at_barycenter(p)
        extra["shift"] = [rat_str(s) for s in shift]
    if args.dual_heights:
        try:
            dh = [frac(x) for x in args.dual_heights.split(",")]
        except (ValueError, TypeError):
            raise InputError("--dual-heights must be comma-separated rationals")
        if len(dh) != len(shifted.facets):
            raise InputError(f"--dual-heights needs {len(shifted.facets)} "
                             "values (one per facet)")
    else:
        dh = seeded_dual_heights(shifted, args.seed)
    dec = compatible_decomposition(shifted, xi, dh)
    return [("compatible", dec, indicator_of_polytope(shifted), shifted)], extra


IDENTITIES = {"gram": _gram, "lv": _lv, "weighted": _weighted,
              "rearrange": _rearrange, "partition": _partition, "eq6": _eq6,
              "nonsimple": _nonsimple, "delta-invariance": _delta_invariance,
              "compatible": _compatible}


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    p = _load_polytope(args.input)
    t0 = time.monotonic()
    results = {}
    if args.method == "brion" or args.check:
        results["brion"] = count_lattice_points(brion_gf(p))
    if args.method == "brute" or args.check:
        results["brute"] = brute_force_count(p)
    wall = time.monotonic() - t0
    agree = len(set(results.values())) <= 1
    count = next(iter(results.values()))
    out = {"count": count, "methods": results, "agree": agree}
    lines = [f"count = {count}  ({', '.join(f'{k}: {v}' for k, v in sorted(results.items()))})",
             f"wall time: {wall:.3f}s"]
    if not agree:  # only --check runs two methods
        lines.insert(0, "METHOD DISAGREEMENT")
    _emit(out, lines, args.json)
    return EXIT_OK if agree else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    """Print the lhs of the method's first identity pair, or Brion's GF."""
    p = _load_polytope(args.input)
    if args.method == "brion-gf":
        payload = {"gf": gf_to_json(brion_gf(p))}
    else:
        pairs, payload = IDENTITIES[args.method.removesuffix("-lv")](p, args)
        payload["decomposition"] = indicator_sum_to_json(pairs[0][1])
    payload["method"] = args.method
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _report_exit(reports: list, as_json: bool, extra: dict) -> int:
    ok = all(r.success for r in reports)
    payload = {"success": ok, "reports": [r.to_json_dict() for r in reports],
               **extra}
    lines = []
    for r in reports:
        unit = "cells" if r.parameters.get("mode") == "exact-cells" else "points"
        lines.append(f"[{'ok' if r.success else 'FAIL'}] {r.identity}: "
                     f"{r.points_checked} {unit} ({r.wall_time:.3f}s)")
        if r.counterexample:
            lines.append(f"       counterexample: {r.counterexample}")
    _emit(payload, lines, as_json)
    return EXIT_OK if ok else EXIT_COUNTEREXAMPLE


def _verify_brion(p: Polytope, args) -> int:
    g2 = gf_brute_force(p)  # first: it refuses at once what is too big to list
    g1 = brion_gf(p)
    c1, c2 = count_lattice_points(g1), count_lattice_points(g2)
    same = gf_equal_as_functions(g1, g2, seed=args.seed) and c1 == c2
    rep = VerificationReport(
        "brion", {"seed": args.seed}, 4, same,
        None if same else {"brion_count": c1, "brute_count": c2})
    return _report_exit([rep], args.json, {})


def _verify_positive_conic(p: Polytope, args) -> int:
    heights = _parse_heights(args.heights, p)
    xi = _xi(args.xi, p, args.seed)
    contribs = local_contributions(p, xi, heights, args.seed)
    return _report_exit(positive_conic_check(contribs, xi), args.json,
                        {"xi": list(xi)})


def cmd_verify(args) -> int:
    p = _load_polytope(args.input)
    _parse_box(args.box, p)  # refuse a bad --box before any work
    step = frac(args.step)
    if step <= 0:
        raise InputError(f"--step must be positive, got {step}")
    if args.samples < 0:
        raise InputError(f"--samples must be non-negative, got {args.samples}")
    ident = args.identity
    if args.exact_cells and ident == "brion":
        raise InputError("--exact-cells does not apply to brion")
    if ident == "brion":
        return _verify_brion(p, args)
    if ident == "positive-conic":
        return _verify_positive_conic(p, args)
    pairs, extra = IDENTITIES[ident](p, args)

    def check(name, lhs, rhs, on=p):  # `on`: the polytope whose box is used
        if args.exact_cells:
            return verify_identity_exact(lhs, rhs, name=name)
        return verify_identity(lhs, rhs, _parse_box(args.box, on), step,
                               args.samples, args.seed, name=name)
    return _report_exit([check(*pair) for pair in pairs], args.json, extra)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _corpus_entries(args):
    if args.input:
        data = _read_json(args.input)
        if not isinstance(data, list) or not data:
            raise InputError(f"{args.input}: corpus must be a nonempty list")
        entries = []
        for i, row in enumerate(data):
            try:
                name, expected = row["name"], row["expected_count"]
                pj = row["polytope"]
            except (KeyError, TypeError) as exc:
                raise InputError(f"{args.input}: bad corpus entry: {exc}")
            if type(name) is not str:
                raise InputError(f"{args.input}: corpus entry {i}: 'name' "
                                 f"must be a string, got {name!r}")
            if type(expected) is not int:  # a float or a bool would pass int()
                raise InputError(f"{args.input}: corpus entry {name!r}: "
                                 "'expected_count' must be an integer, got "
                                 f"{expected!r}")
            entries.append((name, expected, lambda pj=pj: polytope_from_json(pj)))
        return entries
    return [(e.name, e.expected_count, e.build) for e in corpus_mod.build_corpus()]


def _holds(ident: str, p: Polytope, seed: int) -> bool:
    """Whether `ident` holds on p's default grid (step 1/2, 50 samples)."""
    opts = argparse.Namespace(xi=None, heights=None, seed=seed)
    return all(verify_identity(lhs, rhs, default_box(p), Fraction(1, 2), 50,
                               seed, name).success
               for name, lhs, rhs in IDENTITIES[ident](p, opts)[0])


def cmd_corpus(args) -> int:
    entries = _corpus_entries(args)
    rows = []
    failures = 0
    for name, expected, build in entries:
        t0 = time.monotonic()
        try:
            p = build()
            brute = brute_force_count(p)
            brion = count_lattice_points(brion_gf(p))
            gram_ok = _holds("gram", p, args.seed)
            dec_ok = _holds("nonsimple", p, args.seed)
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

    def common(sp):
        sp.add_argument("--input", required=True, help="polytope JSON file")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")

    sp = sub.add_parser("count", help="count lattice points")
    common(sp)
    sp.add_argument("--method", choices=["brion", "brute"], default="brion")
    sp.add_argument("--check", action="store_true",
                    help="run both methods and compare")

    sp = sub.add_parser("decompose", help="emit a decomposition as JSON")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--method", required=True,
                    choices=["gram", "brion-gf", "lv", "weighted-lv",
                             "nonsimple"])
    sp.add_argument("--xi", help="functional, e.g. 4,2,0")
    sp.add_argument("--heights", action="append",
                    help="per-vertex lifting heights, e.g. v0=1,1,0,0 "
                         "(ray order = facet order)")

    sp = sub.add_parser("verify", help="machine-check an identity")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--identity", required=True,
                    choices=[*IDENTITIES, "brion", "positive-conic"])
    sp.add_argument("--xi")
    sp.add_argument("--heights", action="append")
    sp.add_argument("--dual-heights")
    sp.add_argument("--box", help="lo,hi applied to every coordinate")
    sp.add_argument("--step", default="1/2")
    sp.add_argument("--samples", type=int, default=200,
                    help="extra seeded random points")
    sp.add_argument("--exact-cells", action="store_true",
                    help="decide by arrangement cell enumeration (slow)")

    sp = sub.add_parser("corpus", help="run the bundled acceptance corpus")
    sp.add_argument("--input", help="optional corpus JSON overriding the "
                                    "bundled one")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    return ap


_parser = cache(build_parser)  # built on the first call of main, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a broken invariant or a resource failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
