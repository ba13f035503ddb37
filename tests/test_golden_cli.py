"""Golden CLI output: SHA-256 of every pinned command's stdout, stderr and
exit code on the corpus entries of dimension at most 3.

A refactor that claims byte-identical output must pass this unchanged.  To
re-pin after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py

which picks a fixed generic functional per entry and rewrites
``tests/golden_cli.json``.  The SEEDED commands pass no ``--xi``, so they
also pin the functional the CLI draws from ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from conedec import build_corpus, is_generic
from conedec.cli import main
from conedec.jsonio import polytope_to_json

GOLDEN = Path(__file__).with_name("golden_cli.json")
MAX_DIM = 3
SEEDED = [["verify", "--identity", i, "--json", "--seed", s]
          for i in ("nonsimple", "delta-invariance", "compatible")
          for s in ("0", "1")]


def commands(xi: str) -> list[list[str]]:
    """The pinned argv list for one entry with functional ``xi``."""
    out = [["decompose", "--method", m, f"--xi={xi}", "--seed", s]
           for m in ("gram", "nonsimple") for s in ("0", "1")]
    out += [["verify", "--identity", i, f"--xi={xi}", "--json"]
            for i in ("nonsimple", "compatible")]
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


def _pin(tmp_dir: Path) -> list[dict]:
    rows = []
    polys = {e.name: e.build() for e in build_corpus() if e.dim <= MAX_DIM}
    for name, path in entry_files(tmp_dir).items():
        p, rng = polys[name], random.Random(0)
        while True:
            xi = tuple(rng.randint(-9, 9) for _ in range(p.dim))
            if not any(xi) or not is_generic(xi, p):
                continue
            argvs = commands(",".join(map(str, xi)))
            codes = []
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(main(argv + ["--input", path]))
            if not any(codes):
                break
        rows += [{"entry": name, "argv": argv, "sha256": run(argv, path)}
                 for argv in argvs + SEEDED]
    return rows


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        rows = [json.dumps(row) for row in _pin(Path(tmp))]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
