from __future__ import annotations

import re
from pathlib import Path

from apibind.issues import CATALOG

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_issue_table_lists_the_catalog():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Issue catalog\n", 1)[1].split("\n## ", 1)[0]
    codes = re.findall(r"^\| ([EW]_[A-Z_]+) \|", section, re.MULTILINE)
    assert sorted(codes) == sorted(CATALOG)
