"""Golden CLI output: SHA-256 of every pinned command's stdout, stderr and
exit code on the corpus entries of dimension at most 3.

A refactor that claims byte-identical output must pass this unchanged.  To
re-pin after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py

which keeps each entry's pinned functional (a new entry gets the first
seeded generic one on which every command succeeds) and rewrites
``tests/golden_cli.json``.  The SEEDED commands run every ``verify
--identity`` choice and pass no ``--xi``, so they also pin the functional
the CLI draws from ``--seed``.  The ``--exact-cells`` commands pin the
arrangement-cell walk, including its cell count and, for ``lv`` on a
non-simple entry, the refusal.

``CORPUS_SHA256`` pins the stdout of ``conedec corpus --json`` over every
bundled entry, the 4-d ones too.  To re-pin it after an intended change,
run from the repository root:

    PYTHONPATH=src python -m conedec corpus --json | sha256sum

and paste the digest into ``CORPUS_SHA256``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from conedec import build_corpus, is_generic, is_simple_polytope
from conedec.cli import main

from helpers import option_choices, polytope_to_json

GOLDEN = Path(__file__).with_name("golden_cli.json")
CORPUS_SHA256 = \
    "6cfa2d8cb05f8e9fef44d2709b06b4ae508b1dab6e2aa73ad8d813e8f62e4ea7"
MAX_DIM = 3
SEEDED = [["verify", "--identity", i, "--json", "--seed", s]
          for i in option_choices("verify", "--identity")
          for s in ("0", "1")]


def commands(xi: str) -> list[list[str]]:
    """The pinned argv list for one entry with functional ``xi``."""
    out = [["decompose", "--method", m, f"--xi={xi}", "--seed", s]
           for m in ("gram", "nonsimple") for s in ("0", "1")]
    out += [["verify", "--identity", i, f"--xi={xi}", "--json"]
            for i in ("nonsimple", "compatible")]
    out += [["verify", "--identity", i, f"--xi={xi}", "--exact-cells",
             "--json"] for i in ("gram", "lv", "nonsimple")]
    out += [["count", "--json"]]
    out += [["decompose", "--method", "brion-gf", "--seed", s]
            for s in ("0", "1")]
    return out


def run(argv: list[str], path: str) -> str:
    """SHA-256 of stdout, stderr and exit code of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--input", path])
    blob = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(blob.encode()).hexdigest()


def entry_files(tmp_dir: Path) -> dict[str, str]:
    files = {}
    for e in build_corpus():
        if e.dim <= MAX_DIM:
            path = tmp_dir / f"{len(files)}.json"
            path.write_text(json.dumps(polytope_to_json(e.build())))
            files[e.name] = str(path)
    return files


def test_golden_cli_output(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    files = entry_files(tmp_path)
    assert sorted(files) == sorted({row["entry"] for row in golden})
    mismatched = [f"{row['entry']}: conedec {' '.join(row['argv'])}"
                  for row in golden
                  if run(row["argv"], files[row["entry"]]) != row["sha256"]]
    assert not mismatched, "output changed for:\n" + "\n".join(mismatched)


def test_corpus_json_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["corpus", "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        CORPUS_SHA256, "conedec corpus --json output changed"


def _first_clean_xi(p, path: str) -> str:
    """The first seeded generic functional on which every command exits 0,
    but `lv`, which a non-simple polytope refuses (exit 2) for every one."""
    refused = set() if is_simple_polytope(p) else {"lv"}
    rng = random.Random(0)
    while True:
        xi = tuple(rng.randint(-9, 9) for _ in range(p.dim))
        if not any(xi) or not is_generic(xi, p):
            continue
        text = ",".join(map(str, xi))
        bad = False
        for argv in commands(text):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--input", path])
            bad |= code != (2 if refused.intersection(argv) else 0)
        if not bad:
            return text


def _pin(tmp_dir: Path) -> list[dict]:
    rows = []
    polys = {e.name: e.build() for e in build_corpus() if e.dim <= MAX_DIM}
    pinned = {row["entry"]: arg.removeprefix("--xi=")
              for row in json.loads(GOLDEN.read_text())
              for arg in row["argv"] if arg.startswith("--xi=")}
    for name, path in entry_files(tmp_dir).items():
        xi = pinned.get(name) or _first_clean_xi(polys[name], path)
        rows += [{"entry": name, "argv": argv, "sha256": run(argv, path)}
                 for argv in commands(xi) + SEEDED]
    return rows


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        rows = [json.dumps(row) for row in _pin(Path(tmp))]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
