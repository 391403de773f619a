"""A failing Hypothesis property reports its example, with every warning an error."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PLANTED = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(n):
    assert n < 10
"""


def test_failing_property_reports_its_example(tmp_path):
    planted = tmp_path / "test_planted.py"
    planted.write_text(_PLANTED, encoding="utf-8")
    argv = ["-q", "-p", "no:cacheprovider", "-p", "tests.conftest", "-c", "pyproject.toml"]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "--rootdir", tmp_path, planted],
        cwd=ROOT,
        env={**os.environ, "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp_path / ".hypothesis")},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
