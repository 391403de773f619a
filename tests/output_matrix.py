"""Print the sha256 of every output of a fixed matrix of CLI runs, as a JSON manifest.

``tests/test_output_matrix.py`` compares ``manifest`` with the committed
``tests/data/output_digests.json``. A change that moves an output on purpose
regenerates it:

    python3 tests/output_matrix.py > tests/data/output_digests.json

The corpora are corpus12, ``every_code.csv`` (whose runs emit every
catalogued code, so the manifest pins each code's text) and the three
``perfbench/corpora.py`` shapes (low-sharing 400, high-sharing 3000 and dirty
4000 rows) at seeds 101 and 7.
Each corpus goes through ``generate``, ``generate --merge``, ``generate``
under ``tests/data/snake_policy.json`` (snake types and functions, lower-camel
fields), ``analyze --merge``, ``analyze --strict`` and ``analyze --merge
--strict``, and then ``dashboard`` in text and JSON over the ``analyzed.csv``
of ``analyze --merge``. Every run gets a fresh out dir. For each run the
manifest holds the exit code, the sha256 of stdout and of stderr (with the
scratch directory's path replaced by ``<work>``), and the sha256 of every
file the run wrote, by its path under the out dir. It also holds the sha256 of each
corpus, so a change in the generator shows apart from a change in apibind.

The program run is the ``src/apibind`` of this script's checkout, as
``python -m apibind.cli`` with ``PYTHONPATH=src``, each command in a fresh
interpreter, one at a time. Stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS12 = ROOT / "tests" / "data" / "corpus12.csv"
EVERY_CODE = ROOT / "tests" / "data" / "every_code.csv"
GENERATOR = ROOT / "perfbench" / "corpora.py"
#: A non-default identifier policy, so a change in casing shows in the manifest.
SNAKE_POLICY = ROOT / "tests" / "data" / "snake_policy.json"

#: (shape, rows) of each generated corpus; each is made at every seed in SEEDS.
SHAPES = (("low-sharing", 400), ("high-sharing", 3000), ("dirty", 4000))
SEEDS = (101, 7)

#: (run name, CLI arguments before ``--input``).
RUNS = (
    ("generate", ["generate"]),
    ("generate-merge", ["generate", "--merge"]),
    ("generate-snake-policy", ["generate", "--identifier-policy", str(SNAKE_POLICY)]),
    ("analyze-merge", ["analyze", "--merge"]),
    ("analyze-strict", ["analyze", "--strict"]),
    ("analyze-merge-strict", ["analyze", "--merge", "--strict"]),
)
#: The run whose ``analyzed.csv`` the dashboard runs read.
DASHBOARD_SOURCE = "analyze-merge"
DASHBOARD_FORMATS = ("text", "json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_corpora(work: Path) -> list[Path]:
    """The fixed corpora, then the generated ones, named ``<shape>-<seed>.csv`` under ``work``."""
    corpora = [CORPUS12, EVERY_CODE]
    for shape, rows in SHAPES:
        for seed in SEEDS:
            out = work / "corpora" / f"{shape}-{seed}.csv"
            subprocess.run(
                [sys.executable, str(GENERATOR), shape, str(rows), str(seed), str(out)],
                check=True,
                stdout=subprocess.DEVNULL,
            )
            corpora.append(out)
    return corpora


def run(argv: list[str], work: Path) -> dict:
    """Run one CLI command; its exit code and the digests of its normalized streams."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "apibind.cli", *argv], capture_output=True, env=env, check=False
    )
    placeholder = b"<work>"
    return {
        "exit": done.returncode,
        "stdout": sha256(done.stdout.replace(os.fsencode(work), placeholder)),
        "stderr": sha256(done.stderr.replace(os.fsencode(work), placeholder)),
    }


def file_digests(out_dir: Path) -> dict[str, str]:
    return {
        path.relative_to(out_dir).as_posix(): sha256(path.read_bytes())
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def manifest(work: Path) -> dict:
    corpora = make_corpora(work)
    result: dict = {"corpora": {}, "runs": {}}
    for corpus in corpora:
        stem = corpus.stem
        result["corpora"][stem] = sha256(corpus.read_bytes())
        for name, command in RUNS:
            out_dir = work / "out" / stem / name
            entry = run([*command, "--input", str(corpus), "--out-dir", str(out_dir)], work)
            entry["files"] = file_digests(out_dir) if out_dir.is_dir() else {}
            result["runs"][f"{stem}/{name}"] = entry
        stage = work / "out" / stem / DASHBOARD_SOURCE / "analyzed.csv"
        for form in DASHBOARD_FORMATS:
            argv = ["dashboard", "--input", str(stage), "--dashboard-format", form]
            result["runs"][f"{stem}/dashboard-{form}"] = run(argv, work)
    return result


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="output-matrix-") as scratch:
        work = Path(scratch).resolve()
        print(json.dumps(manifest(work), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
