import json
import os
import random
import re
import resource
import subprocess
import sys
import time

from fractions import Fraction
from itertools import product

import pytest

import conedec
from conedec import cli, corpus, indicators
from conedec.cli import main
from conedec.corpus import build_corpus, pyramid
from conedec.indicators import GRID_POINT_BUDGET
from conedec.polyhedra import DegenerateInput

from helpers import option_choices, polytope_to_json


@pytest.fixture()
def pyramid_file(tmp_path):
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(polytope_to_json(pyramid())))
    return str(path)


@pytest.fixture()
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({"dim": 1, "vertices": [["-3"], ["5"]]}))
    return str(path)


@pytest.fixture()
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    verts = [[str(x), str(y), str(z)] for x in (0, 1) for y in (0, 1)
             for z in (0, 1)]
    path.write_text(json.dumps({"dim": 3, "vertices": verts}))
    return str(path)


class TestCount:
    def test_pyramid_brion(self, pyramid_file, capsys):
        assert main(["count", "--input", pyramid_file, "--method", "brion"]) == 0
        assert "count = 10" in capsys.readouterr().out

    def test_segment_brute(self, segment_file, capsys):
        assert main(["count", "--input", segment_file, "--method", "brute"]) == 0
        assert "count = 9" in capsys.readouterr().out

    def test_cube_check_both(self, cube_file, capsys):
        assert main(["count", "--input", cube_file, "--check"]) == 0
        out = capsys.readouterr().out
        assert "count = 8" in out

    def test_method_both_is_usage_error(self, cube_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--input", cube_file, "--method", "both"])
        assert exc.value.code == 2
        assert "invalid choice: 'both'" in capsys.readouterr().err
        # Brion's cells need no seed, so count has no --seed
        with pytest.raises(SystemExit) as exc:
            main(["count", "--input", cube_file, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_check_reports_both_counts(self, cube_file, capsys):
        assert main(["count", "--input", cube_file, "--check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["methods"] == {"brion": 8, "brute": 8}
        assert payload["agree"] is True

    def test_handler_looked_up_at_call_time(self, cube_file, monkeypatch,
                                            capsys):
        # the parser is built once, but a patched handler still runs
        assert main(["count", "--input", cube_file]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_count",
                            lambda args: seen.append(args.input) or 0)
        assert main(["count", "--input", cube_file]) == 0
        assert seen == [cube_file]

    def test_brute_counts_thin_triangles(self, tmp_path, capsys):
        path = tmp_path / "thin.json"
        for k in range(1, 19):
            path.write_text(json.dumps({"dim": 2, "vertices": [
                ["0", "0"], [str(10 ** k), "0"], ["0", "1"]]}))
            assert main(["count", "--input", str(path), "--method", "brute",
                         "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["count"] == 10 ** k + 2

    def test_brute_refuses_too_many_lines(self, tmp_path, capsys):
        # [0, 10^4]^3 has 10^4 + 1 points on each axis: 10^8 lines to sweep
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"dim": 3, "vertices": [
            [str(x), str(y), str(z)] for x in (0, 10 ** 4)
            for y in (0, 10 ** 4) for z in (0, 10 ** 4)]}))
        t = time.perf_counter()
        assert main(["count", "--input", str(path), "--method", "brute"]) == 2
        assert time.perf_counter() - t < 1.0
        assert capsys.readouterr().err == (
            "error: grid of 100020001 lines (box [0, 10000] x [0, 10000] x "
            f"[0, 10000], step 1) exceeds the budget of {GRID_POINT_BUDGET}\n")

    def test_json_deterministic(self, pyramid_file, capsys):
        main(["count", "--input", pyramid_file, "--check", "--json"])
        first = capsys.readouterr().out
        main(["count", "--input", pyramid_file, "--check", "--json"])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["count"] == 10


class TestDecompose:
    def test_gram_segment_three_terms(self, segment_file, capsys):
        assert main(["decompose", "--input", segment_file,
                     "--method", "gram"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["decomposition"]) == 3

    def test_lv_square_four_signed_terms(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(json.dumps(
            {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"],
                                    ["1", "1"]]}))
        assert main(["decompose", "--input", str(path), "--method", "lv",
                     "--xi", "1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["decomposition"]) == 4
        coeffs = sorted(term["coeff"][0] for term in payload["decomposition"])
        assert coeffs == ["-1", "-1", "1", "1"]

    def test_nonsimple_pyramid_six_terms(self, pyramid_file, capsys):
        assert main(["decompose", "--input", pyramid_file, "--method",
                     "nonsimple", "--xi", "4,2,0",
                     "--heights", "v0=1,0,0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["decomposition"]) == 6

    def test_brion_gf_pretty(self, segment_file, capsys):
        assert main(["decompose", "--input", segment_file,
                     "--method", "brion-gf"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gf"]["pretty"] == "x^-3/(1-x) - x^6/(1-x)"

    def test_drawn_functional_is_the_one_verify_reports(self, pyramid_file,
                                                        capsys):
        # without --xi, decompose draws the functional from --seed as verify
        # does, so the same run with that --xi prints the same decomposition
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "nonsimple", "--seed", "1", "--json"]) == 0
        xi = json.loads(capsys.readouterr().out)["xi"]
        args = ["decompose", "--input", pyramid_file, "--method", "nonsimple",
                "--seed", "1"]
        assert main(args) == 0
        drawn = capsys.readouterr().out
        assert json.loads(drawn)["xi"] == xi
        assert main(args + [f"--xi={','.join(map(str, xi))}"]) == 0
        assert capsys.readouterr().out == drawn

    def test_byte_identical_reruns(self, pyramid_file, capsys):
        args = ["decompose", "--input", pyramid_file, "--method", "nonsimple",
                "--xi", "4,2,0", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert first == capsys.readouterr().out


class TestVerify:
    def test_delta_invariance_pyramid(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "delta-invariance", "--xi", "4,2,0"]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_gram(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file,
                     "--identity", "gram"]) == 0

    def test_lv_on_pyramid_suggests_nonsimple(self, pyramid_file, capsys):
        code = main(["verify", "--input", pyramid_file, "--identity", "lv",
                     "--xi", "4,2,0"])
        assert code == 2
        assert "nonsimple" in capsys.readouterr().err

    def test_exact_cells_small_identity(self, segment_file):
        assert main(["verify", "--input", segment_file, "--identity", "lv",
                     "--xi", "1", "--exact-cells"]) == 0

    @pytest.mark.parametrize("identity", [*cli.IDENTITIES, "positive-conic"])
    def test_exact_cells_honoured(self, identity, request, capsys):
        # eq6 needs a non-simple vertex; every other identity holds on the
        # cube; positive-conic is exact with or without the flag
        fixture = "pyramid_file" if identity == "eq6" else "cube_file"
        path = request.getfixturevalue(fixture)
        assert main(["verify", "--input", path, "--identity", identity,
                     "--exact-cells", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert reports
        for r in reports:
            assert r["parameters"] == {"mode": "exact-cells"}, r["identity"]

    def test_exact_reports_count_cells_and_grid_ones_points(self, segment_file,
                                                             capsys):
        # points_checked counts arrangement cells in an exact report
        runs = [(["lv", "--exact-cells"], "lv xi=1", "cells"),
                (["positive-conic"], "positive@v0", "cells"),
                (["lv"], "lv xi=1", "points")]
        for extra, identity, unit in runs:
            assert main(["verify", "--input", segment_file, "--xi", "1",
                         "--identity", *extra]) == 0
            first = capsys.readouterr().out.splitlines()[0]
            assert re.fullmatch(rf"\[ok\] {identity}: \d+ {unit} "
                                r"\(\d+\.\d{3}s\)", first), first

    def test_exact_cells_refused_without_indicator_sums(self, pyramid_file):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "brion", "--xi", "4,2,0", "--exact-cells"]) == 2

    def test_identity_choices_are_the_table(self):
        assert option_choices("verify", "--identity") == [
            *cli.IDENTITIES, "brion", "positive-conic"]
        methods = option_choices("decompose", "--method")
        assert "brion-gf" in methods
        assert all(m.removesuffix("-lv") in cli.IDENTITIES
                   for m in methods if m != "brion-gf")

    @pytest.mark.parametrize("identity", [
        "lv", "weighted", "rearrange", "nonsimple", "delta-invariance",
        "compatible", "positive-conic"])
    def test_drawn_functional_is_reported(self, identity, cube_file, capsys):
        # the JSON names the functional drawn from --seed, and passing it as
        # --xi reproduces the run
        args = ["verify", "--input", cube_file, "--identity", identity,
                "--seed", "2", "--samples", "8", "--json"]
        assert main(args) == 0
        drawn = capsys.readouterr().out
        cube = cli._load_polytope(cube_file)
        xi = json.loads(drawn)["xi"]
        assert tuple(xi) == cli._xi(None, cube, 2)
        assert main(args + [f"--xi={','.join(map(str, xi))}"]) == 0
        assert capsys.readouterr().out == drawn

    def test_zero_functional_is_input_error(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "nonsimple", "--xi=0,0,0"]) == 2
        assert capsys.readouterr().err == "error: --xi must be nonzero\n"

    def test_weighted_cube(self, cube_file):
        assert main(["verify", "--input", cube_file, "--identity", "weighted",
                     "--xi", "1,2,4", "--samples", "40"]) == 0

    def test_compatible_shifts_pyramid(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "compatible", "--xi", "4,2,1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shift"] == ["0", "0", "-4/5"]

    def test_positive_conic(self, pyramid_file, capsys):
        # one exact report per vertex, as JSON like every other identity's
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "positive-conic", "--xi", "4,2,0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] and payload["xi"] == [4, 2, 0]
        assert [r["identity"] for r in payload["reports"]] == [
            f"positive@v{v}" for v in range(5)]
        # the grid options do not apply: the output does not change
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "positive-conic", "--xi", "4,2,0", "--json",
                     "--samples", "8", "--box", "-1,1", "--step", "1",
                     "--exact-cells"]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_brion_identity(self, pyramid_file):
        assert main(["verify", "--input", pyramid_file,
                     "--identity", "brion"]) == 0

    def test_eq6(self, pyramid_file):
        assert main(["verify", "--input", pyramid_file, "--identity", "eq6",
                     "--xi", "4,2,0"]) == 0

    def test_bad_xi_dimension(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "nonsimple", "--xi", "1,2"]) == 2

    def test_report_json_deterministic(self, pyramid_file, capsys):
        args = ["verify", "--input", pyramid_file, "--identity", "nonsimple",
                "--xi", "4,2,0", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert first == capsys.readouterr().out

    def test_negative_values_as_separate_arguments(self, pyramid_file, capsys):
        args = ["verify", "--input", pyramid_file, "--identity", "compatible",
                "--samples", "0", "--json"]
        values = [("--xi", "-3,-5,7"), ("--dual-heights", "-1,2,-3,5,7"),
                  ("--box", "-2,2")]
        spaced = [x for pair in values for x in pair]
        joined = [f"{flag}={value}" for flag, value in values]
        assert main(args + spaced) == 0
        first = capsys.readouterr().out
        assert main(args + joined) == 0
        assert first == capsys.readouterr().out

    @pytest.mark.parametrize("entry, extra", [
        ("random01-4d", ["--xi=7,6,-4,-6", "--seed=1"]),
        ("random01-4d", ["--xi=7,6,-4,-6", "--seed=3"]),
        # heights 1, 0, 1, 1, 1 on the slice of w = e₃, times w·r
        ("pentagon-cone", ["--xi=1,2,5", "--heights", "v0=1,0,3,4,4"]),
    ], ids=["random01-4d-seed1", "random01-4d-seed3", "pentagon-cone"])
    def test_functional_constant_on_a_triangulation_ray(self, entry, extra,
                                                        tmp_path, capsys):
        # each functional is constant on a ray of a drawn cell; ties are
        # broken lexicographically instead of refused
        path = tmp_path / "p.json"
        p = next(e.build() for e in build_corpus() if e.name == entry)
        path.write_text(json.dumps(polytope_to_json(p)))
        assert main(["verify", "--input", str(path), "--identity",
                     "nonsimple", "--json"] + extra) == 0
        assert json.loads(capsys.readouterr().out)["success"]

    @pytest.mark.parametrize("identity",
                             ["nonsimple", "eq6", "delta-invariance"])
    def test_tied_heights_are_pulled(self, identity, pyramid_file, capsys):
        # the apex heights lift the square normal cone flat: one lower face,
        # refined by pulling instead of refused
        assert main(["verify", "--input", pyramid_file, "--identity",
                     identity, "--heights", "v0=1,1,1,1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["success"]

    def test_repeated_heights_refused(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "nonsimple", "--heights", "v0=1,1,0,0",
                     "--heights", "v0=0,0,1,1"]) == 2
        assert capsys.readouterr().err == \
            "error: --heights gives v0 twice\n"

    def test_tied_dual_heights_are_pulled(self, tmp_path, capsys):
        path = tmp_path / "octahedron.json"
        p = next(e.build() for e in build_corpus() if e.name == "octahedron")
        path.write_text(json.dumps(polytope_to_json(p)))
        assert main(["verify", "--input", str(path), "--identity",
                     "compatible", "--dual-heights", "0,0,0,0,0,0,0,0",
                     "--exact-cells", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["success"]

    def test_seeded_functional_without_an_edge_generic_draw(
            self, pyramid_file, monkeypatch, capsys):
        # any nonzero functional is valid, so with no edge-generic draw the
        # first nonzero draw is taken instead of refusing the input
        monkeypatch.setattr(cli, "is_generic", lambda xi, p: False)
        rng = random.Random(0)
        first = tuple(rng.randint(-9, 9) for _ in range(3))
        assert any(first)
        assert cli._xi(None, pyramid(), 0) == first
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "nonsimple", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["success"] and out["xi"] == list(first)

    def test_samples_stay_in_a_box_without_a_multiple_of_one_over_den(
            self, tmp_path, monkeypatch):
        path = tmp_path / "square.json"
        path.write_text(json.dumps(
            {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"],
                                    ["1", "1"]]}))
        drawn = []

        def recorded(*args, gen=indicators.random_rational_points):
            for nums, den in gen(*args):
                drawn.append([Fraction(n, den) for n in nums])
                yield nums, den
        monkeypatch.setattr(indicators, "random_rational_points", recorded)
        assert main(["verify", "--input", str(path), "--identity", "gram",
                     "--box", "1/3,2/5", "--json"]) == 0
        assert len(drawn) == 200
        assert all(Fraction(1, 3) <= x <= Fraction(2, 5)
                   for point in drawn for x in point)

    def test_error_prints_vertices_as_rationals(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "partition"]) == 2
        err = capsys.readouterr().err
        assert "vertex (0, 0, 0) is not simple" in err
        assert "Fraction(" not in err


class TestBadInput:
    def test_missing_file(self, capsys):
        assert main(["count", "--input", "/nonexistent.json"]) == 2

    def test_garbage_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["count", "--input", str(path)]) == 2

    @pytest.mark.parametrize("command", ["count", "corpus"])
    def test_unreadable_json_messages(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main([command, "--input", str(missing)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {missing}: ")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([command, "--input", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not valid JSON: ")

    def test_lower_dimensional_polytope(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(
            {"dim": 2, "vertices": [["0", "0"], ["1", "1"]]}))
        assert main(["count", "--input", str(path)]) == 2

    def test_unbounded_halfspaces(self, tmp_path, capsys):
        path = tmp_path / "open.json"
        path.write_text(json.dumps(
            {"dim": 2, "inequalities": [
                {"normal": ["1", "0"], "offset": "0"},
                {"normal": ["0", "1"], "offset": "0"}]}))
        assert main(["count", "--input", str(path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["count", "--input", "{bad}"],
        ["verify", "--input", "{pyramid}", "--identity", "gram",
         "--step", "1/0"],
        ["verify", "--input", "{pyramid}", "--identity", "gram",
         "--box", "0,1/0"],
    ], ids=["json-vertex", "step", "box"])
    def test_zero_denominator_is_input_error(self, argv, pyramid_file,
                                             tmp_path, capsys):
        bad = tmp_path / "zero-den.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": [
            ["0", "0"], ["1/0", "0"], ["0", "1"]]}))
        argv = [a.format(bad=bad, pyramid=pyramid_file) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("polytope, message", [
        ({"dim": 1, "inequalities": [{"normal": ["1"]}]},
         "inequalities[0] must be an object with 'normal' and 'offset'"),
        ({"dim": 1, "vertices": 5}, "'vertices' must be a list, got 5"),
        ({"dim": 2, "vertices": [["0", "0"], 5]},
         "vertices[1] must be a list of 2 rationals, got 5"),
        ({"dim": 2, "vertices": [["0", "0"], ["1"]]},
         "vertices[1] must be a list of 2 rationals, got ['1']"),
        ({"dim": 2, "vertices": [["0", "0"], ["x", "0"]]},
         "vertices[1]: Invalid literal for Fraction: 'x'"),
        ({"dim": 0, "vertices": [[]]},
         "'dim' must be a positive integer, got 0"),
        ({"dim": 1, "inequalities": {"normal": ["1"], "offset": "0"}},
         "'inequalities' must be a list, got {"),
        ({"dim": 1, "inequalities": [{"normal": ["0"], "offset": "1"}]},
         "inequalities[0].normal is zero"),
        ({"dim": 1, "inequalities": [{"normal": ["1"], "offset": 0.5}]},
         "inequalities[0].offset: expected exact rational, got float: 0.5"),
        ({"dim": 1, "vertices": [["0"], ["1"]],
          "inequalities": [{"normal": ["1"], "offset": "5"}]},
         "polytope JSON needs 'vertices' or 'inequalities', not both"),
    ], ids=["no-offset", "vertices-not-list", "vertex-not-list",
            "short-vertex", "bad-literal", "dim-0", "inequalities-not-list",
            "zero-normal", "float-offset", "both-forms"])
    def test_malformed_polytope_json_names_the_field(self, polytope, message,
                                                     tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(polytope))
        assert main(["count", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("polytope", [
        {"dim": 1, "vertices": [[True], [3]]},
        {"dim": 1, "inequalities": [{"normal": [True], "offset": "0"},
                                    {"normal": ["-1"], "offset": "-3"}]},
    ], ids=["vertex", "normal"])
    def test_json_boolean_is_input_error(self, polytope, tmp_path, capsys):
        # a JSON true is not the coordinate 1
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(polytope))
        assert main(["count", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected exact rational, got bool: True" in captured.err

    @pytest.mark.parametrize("identity, flag, value, message", [
        ("nonsimple", "--xi", "a,b,c",
         "--xi must be comma-separated integers, got 'a,b,c'"),
        ("nonsimple", "--heights", "v0",
         "--heights must look like v0=1,1,0,0, got 'v0'"),
        ("nonsimple", "--heights", "x0=1,2",
         "--heights key must be v<index>, got 'x0'"),
        ("nonsimple", "--heights", "v0=1,a",
         "cannot parse --heights item 'v0=1,a'"),
        ("nonsimple", "--heights", "v9=1,1,1,1", "--heights: no vertex 9"),
        ("nonsimple", "--heights", "v0=1,1",
         "--heights v0 needs 4 values (one per tight facet), got 2"),
        ("gram", "--box", "1,0",
         "--box lower bound must be below upper bound"),
        ("compatible", "--dual-heights", "1,x",
         "--dual-heights must be comma-separated rationals"),
        ("compatible", "--dual-heights", "1,2",
         "--dual-heights needs 5 values (one per facet)"),
    ], ids=["xi-letters", "heights-no-values", "heights-key",
            "heights-letter", "heights-no-vertex", "heights-count",
            "box-reversed", "dual-heights-letter", "dual-heights-count"])
    def test_malformed_option_is_input_error(self, identity, flag, value,
                                             message, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity",
                     identity, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_negative_samples_is_input_error(self, pyramid_file, capsys):
        assert main(["verify", "--input", pyramid_file, "--identity", "gram",
                     "--samples", "-3", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--samples" in captured.err

    @pytest.mark.parametrize("exact", [False, True], ids=["grid", "exact"])
    @pytest.mark.parametrize("step", ["0", "-1/2"])
    def test_nonpositive_step_is_input_error(self, step, exact, pyramid_file,
                                             capsys):
        argv = ["verify", "--input", pyramid_file, "--identity", "gram",
                "--step", step, "--json"]
        assert main(argv + ["--exact-cells"] * exact) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--step" in captured.err

    @classmethod
    def run_capped(cls, tmp_path, k: int, argv: list, limit: int):
        """run_capped_on the triangle (0,0), (k,0), (0,1), so that
        materializing k of anything fails fast with a MemoryError."""
        return cls.run_capped_on(tmp_path, f"thin{k}", {"dim": 2, "vertices": [
            ["0", "0"], [str(k), "0"], ["0", "1"]]}, argv, limit)

    @staticmethod
    def run_capped_on(tmp_path, name: str, doc: dict, argv: list, limit: int):
        """main(argv) on the polytope JSON `doc` in a subprocess under an
        address-space limit, so that a runaway step fails fast instead of
        exhausting the host; its stdout's last line is main's time in
        seconds."""
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        script = ("import sys, time; from conedec.cli import main; "
                  "t = time.perf_counter(); code = main(sys.argv[1:]); "
                  "print(time.perf_counter() - t); sys.exit(code)")
        src = os.path.dirname(os.path.dirname(conedec.__file__))

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run(
            [sys.executable, "-c", script, *argv, "--input", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src}, preexec_fn=cap_memory)

    def test_oversized_grid_is_input_error(self, tmp_path):
        # a thin triangle 10^9 long would need a grid of ~10^10 points
        run = self.run_capped(tmp_path, 10 ** 9,
                              ["verify", "--identity", "gram"],
                              2 * 1024 ** 3)
        assert run.returncode == 2
        assert run.stderr.startswith("error: grid of ")
        assert float(run.stdout) < 1.0

    def test_too_many_samples_is_input_error(self, tmp_path):
        # 2·10⁷ samples would run for minutes; with the default box's 49
        # grid points they exceed the budget and are refused before any point
        unit = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
        run = self.run_capped_on(tmp_path, "unit", unit,
                                 ["verify", "--identity", "gram",
                                  "--samples", "20000000"], 1500 * 10 ** 6)
        assert run.returncode == 2
        assert run.stderr == (
            "error: grid of 49 points and 20000000 samples (box [-1, 2] x "
            "[-1, 2], step 1/2) exceeds the budget of "
            f"{GRID_POINT_BUDGET}; use fewer --samples\n")
        assert float(run.stdout) < 1.0

    @pytest.mark.parametrize("k", [9, 18])
    def test_oversized_cell_is_input_error(self, tmp_path, k):
        # Brion's cone at (0, 1) has index 10^k: refused before its walk
        run = self.run_capped(tmp_path, 10 ** k, ["count", "--json"],
                              1500 * 10 ** 6)
        assert run.returncode == 2
        assert run.stderr.startswith(f"error: a cell of index {10 ** k} ")
        assert float(run.stdout) < 1.0

    def test_cell_too_big_to_list_is_input_error(self, tmp_path):
        # index 10^7 − 3: walking it would hold ~10^7 point tuples, past
        # the address-space limit, so it is refused before the walk
        run = self.run_capped(tmp_path, 10 ** 7 - 3, ["count", "--json"],
                              1500 * 10 ** 6)
        assert run.returncode == 2
        assert run.stderr.startswith("error: a cell of index 9999997 ")
        assert float(run.stdout) < 1.0

    def test_oversized_brion_plan_is_input_error(self, tmp_path):
        # cells of index 1, 1 and 2·10^6: each within the budget, not together
        run = self.run_capped(tmp_path, 2 * 10 ** 6, ["count", "--json"],
                              1500 * 10 ** 6)
        assert run.returncode == 2
        assert run.stderr.startswith(
            "error: Brion's cells hold 2000002 parallelepiped points, ")
        assert run.stderr.rstrip().endswith("the cone at vertex (0, 1)")
        assert float(run.stdout) < 1.0

    def test_six_cube_hull_is_refused_before_its_walk(self, tmp_path):
        # its V-to-H would walk C(64, 6) ≈ 7.5·10⁷ subsets, for hours
        cube = {"dim": 6, "vertices": [[str(x) for x in v]
                                       for v in product((0, 1), repeat=6)]}
        run = self.run_capped_on(tmp_path, "cube6", cube, ["count", "--json"],
                                 1500 * 10 ** 6)
        assert run.returncode == 2
        assert run.stderr.startswith("error: ")
        assert ("the hull of 64 generators in dimension 7 walks "
                "C(64, 6) = 74974368 subsets, over the budget of 1000000"
                in run.stderr)
        assert float(run.stdout) < 1.0

    def test_brion_identity_refuses_to_list_a_huge_polytope(self, tmp_path,
                                                           capsys):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [
            [str(x), str(y)] for x in (0, 10 ** 5) for y in (0, 10 ** 5)]}))
        t = time.perf_counter()
        assert main(["verify", "--input", str(path), "--identity", "brion",
                     "--json"]) == 2
        assert time.perf_counter() - t < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 10000200001 lattice points ")

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", "gram"])  # --input missing
        assert exc.value.code == 2

    @pytest.mark.parametrize("exc, code", [
        (AssertionError("broken invariant"), 3),
        (MemoryError(), 3),
        (RuntimeError("unexpected"), 3),
    ], ids=["assertion", "memory", "runtime"])
    def test_internal_errors(self, exc, code, pyramid_file, monkeypatch,
                             capsys):
        def fail(p):
            raise exc
        monkeypatch.setattr("conedec.cli.gram_decomposition", fail)
        assert main(["verify", "--input", pyramid_file,
                     "--identity", "gram"]) == code
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_broken_invariant_in_dual_heights_is_internal(
            self, pyramid_file, monkeypatch, capsys):
        # a failure while triangulating surfaces as an internal error
        def fail(*args, **kwargs):
            raise AssertionError("broken invariant")
        monkeypatch.setattr("conedec.deform.regular_triangulation", fail)
        assert main(["verify", "--input", pyramid_file, "--identity",
                     "compatible", "--xi", "4,2,0"]) == 3
        assert capsys.readouterr().err == (
            "internal error: AssertionError: broken invariant\n")


class TestCorpus:
    def test_bundled_passes(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "15/15" in out

    def test_injected_bad_count_fails_with_name(self, tmp_path, capsys):
        entries = [{
            "name": "square-lying",
            "expected_count": 5,  # actually 4
            "polytope": {"dim": 2, "vertices": [["0", "0"], ["1", "0"],
                                                ["0", "1"], ["1", "1"]]},
        }]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        assert main(["corpus", "--input", str(path)]) == 1
        assert "square-lying" in capsys.readouterr().out

    def test_broken_invariant_is_internal_error(self, tmp_path, monkeypatch,
                                                capsys):
        def fail(p):
            raise AssertionError("broken invariant")
        monkeypatch.setattr("conedec.cli.gram_decomposition", fail)
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{
            "name": "seg", "expected_count": 9,
            "polytope": {"dim": 1, "vertices": [["-3"], ["5"]]}}]))
        assert main(["corpus", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: AssertionError: broken invariant\n"
        assert "ERROR" not in captured.out

    @pytest.mark.parametrize("exc, draws", [
        (DegenerateInput("flat draw"), 2),  # redrawn
        (AssertionError("broken invariant"), 1),  # raised
    ], ids=["degenerate", "assertion"])
    def test_random_01_redraws_only_degenerate_input(self, exc, draws,
                                                      monkeypatch):
        real = corpus.polytope_from_vertices
        calls = []

        def fail_first(points):
            calls.append(points)
            if len(calls) == 1:
                raise exc
            return real(points)
        monkeypatch.setattr(corpus, "polytope_from_vertices", fail_first)
        if draws == 1:
            with pytest.raises(AssertionError, match="broken invariant"):
                corpus.random_01_polytope(3)
        else:
            assert corpus.random_01_polytope(3).dim == 3
        assert len(calls) == draws

    def test_empty_corpus_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["corpus", "--input", str(path)]) == 2

    @pytest.mark.parametrize("count", [4.9, "4", True])
    def test_non_integer_expected_count_is_input_error(self, count, tmp_path,
                                                       capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{
            "name": "seg", "expected_count": count,
            "polytope": {"dim": 1, "vertices": [["-3"], ["5"]]}}]))
        assert main(["corpus", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: corpus entry 'seg': 'expected_count' must be an "
            f"integer, got {count!r}\n")

    def test_missing_expected_count_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{
            "name": "seg",
            "polytope": {"dim": 1, "vertices": [["-3"], ["5"]]}}]))
        assert main(["corpus", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: corpus entry 0 has no 'expected_count'\n")

    @pytest.mark.parametrize("key", ["name", "polytope", None])
    def test_entry_without_a_key_or_not_an_object(self, key, tmp_path,
                                                  capsys):
        # the second entry is at fault; the test above drops 'expected_count'
        entry = {"name": "seg", "expected_count": 9,
                 "polytope": {"dim": 1, "vertices": [["-3"], ["5"]]}}
        row = "x" if key is None else {k: v for k, v in entry.items()
                                       if k != key}
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([entry, row]))
        assert main(["corpus", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: corpus entry 1 " + (
            "must be an object, got 'x'\n" if key is None
            else f"has no {key!r}\n")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_flat_entry_is_an_error_row(self, as_json, tmp_path, capsys):
        message = ("points do not affinely span the space; the polytope "
                   "would be lower-dimensional")
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{
            "name": "flat", "expected_count": 2,
            "polytope": {"dim": 2, "vertices": [["0", "0"], ["1", "1"]]}}]))
        assert main(["corpus", "--input", str(path)]
                    + ["--json"] * as_json) == 1
        out = capsys.readouterr().out
        if as_json:
            assert json.loads(out) == {"entries": [
                {"error": message, "name": "flat", "ok": False}],
                "failures": 1}
        else:
            assert re.search(rf"^flat +ERROR {message}$", out, re.M)
            assert "0/1 corpus entries pass" in out

    def test_non_string_name_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([{
            "name": ["seg"], "expected_count": 9,
            "polytope": {"dim": 1, "vertices": [["-3"], ["5"]]}}]))
        assert main(["corpus", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: corpus entry 0: 'name' must be a string, got "
            "['seg']\n")

    def test_json_summary(self, tmp_path, capsys):
        entries = [{
            "name": "seg",
            "expected_count": 9,
            "polytope": {"dim": 1, "vertices": [["-3"], ["5"]]},
        }]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        assert main(["corpus", "--input", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        assert payload["entries"][0]["brion"] == 9
