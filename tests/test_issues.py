from __future__ import annotations

import re
from pathlib import Path

import pytest

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
