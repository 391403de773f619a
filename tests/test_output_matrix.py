"""Every output of ``output_matrix``'s CLI runs is the committed manifest's.

The golden package, stage CSV and dashboards stay byte-identical unless a
change means to move them; such a change commits the regenerated manifest:

    python3 tests/output_matrix.py > tests/data/output_digests.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from . import output_matrix

DIGESTS = Path(__file__).parent / "data" / "output_digests.json"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> dict:
    # Resolved, as ``output_matrix.main`` resolves its scratch directory, whose
    # path each run's stdout and stderr show as ``<work>``.
    return output_matrix.manifest(tmp_path_factory.mktemp("matrix").resolve())


def test_outputs_match_the_committed_manifest(fresh):
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = [
        f"{section}/{key}"
        for section in ("corpora", "runs")
        for key in sorted(committed[section].keys() | fresh[section].keys())
        if committed[section].get(key) != fresh[section].get(key)
    ]
    assert not moved, "moved: " + ", ".join(moved)
    assert fresh == committed


def test_dashboard_rereads_what_analyze_wrote(fresh):
    # The dashboard of the stage file equals the one analyze wrote beside it.
    for stem in fresh["corpora"]:
        written = fresh["runs"][f"{stem}/{output_matrix.DASHBOARD_SOURCE}"]["files"]
        for form, name in (("json", "dashboard.json"), ("text", "dashboard.txt")):
            assert fresh["runs"][f"{stem}/dashboard-{form}"]["stdout"] == written[name], (stem, form)
