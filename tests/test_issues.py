from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

from apibind.cli import main
from apibind.issues import CATALOG, Severity, severity_of

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_issue_table_lists_the_catalog():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Issue catalog\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([EW]_[A-Z_]+) \| (.*) \|$", section, re.MULTILINE)
    assert sorted(code for code, _ in rows) == sorted(CATALOG)
    assert dict(rows) == CATALOG


def test_every_code_is_prefixed_with_its_severity():
    for code in CATALOG:
        assert re.fullmatch(r"[EW]_[A-Z_]+", code), code
        assert severity_of(code) is (Severity.ERROR if code[0] == "E" else Severity.WARNING)
    with pytest.raises(KeyError):
        severity_of("E_NOT_IN_THE_CATALOG")


def test_runs_emit_exactly_the_catalog(data_dir, tmp_path, capsys):
    # every_code.csv has one row per error code and a few warning rows that
    # reach every warning, the build-time ones under generate --merge.
    corpus, out = data_dir / "every_code.csv", tmp_path / "out"
    for command in ("analyze", "generate"):
        assert main([command, "--merge", "--input", str(corpus), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    with (out / "analyzed.csv").open(encoding="utf-8", newline="") as fh:
        emitted = {
            entry["code"] for row in csv.DictReader(fh) for entry in json.loads(row["issues"])
        }
    report = json.loads((out / "build_report.json").read_text(encoding="utf-8"))
    emitted |= {entry["code"] for fn in report["functions"] for entry in fn.get("issues", ())}
    assert emitted == set(CATALOG)
