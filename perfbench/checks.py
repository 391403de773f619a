"""Output checks for one CLI operation, judged against the generator's oracle.

Each check returns a list of failure messages; an empty list means the
operation's outputs are correct. Nothing here imports ``apibind``: outputs
are read as the files a user would read.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

#: Stage and rejects files carry issue lists in one cell; they may be large.
csv.field_size_limit(1 << 30)

_JSON_COLUMNS = ("parameters", "request_example", "response_example")


def _stage_rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _ids(rows: list[dict[str, str]]) -> list[str]:
    return [atom for row in rows for atom in row["record_id"].split("|")]


def tree_digest(root: Path) -> str:
    """Digest of every file under ``root``: relative paths and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _partition(label: str, found: list[str], expected: list[str]) -> list[str]:
    if Counter(found) == Counter(expected):
        return []
    extra = sorted((Counter(found) - Counter(expected)).elements())[:3]
    missing = sorted((Counter(expected) - Counter(found)).elements())[:3]
    return [
        f"{label}: {len(found)} ids, expected {len(expected)} (extra {extra}, missing {missing})"
    ]


def check_generate(out_dir: Path, oracle: dict) -> list[str]:
    """Census conserved, gate partition and function count as planted."""
    report = json.loads((out_dir / "build_report.json").read_text(encoding="utf-8"))
    function_ids = [atom for fn in report["functions"] for atom in fn["record_id"]]
    rejected_ids = [atom for ids in report["rejected_record_ids"] for atom in ids]
    everything = oracle["passed_ids"] + oracle["rejected_ids"]
    failures = _partition("census", function_ids + rejected_ids, everything)
    failures += _partition("gate: functions", function_ids, oracle["passed_ids"])
    failures += _partition("gate: build_report rejects", rejected_ids, oracle["rejected_ids"])
    failures += _partition(
        "gate: rejects.csv", _ids(_stage_rows(out_dir / "rejects.csv")), oracle["rejected_ids"]
    )
    if len(report["functions"]) != oracle["functions"]:
        failures.append(f"functions: {len(report['functions'])}, expected {oracle['functions']}")
    return failures


def check_analyze(out_dir: Path, oracle: dict) -> list[str]:
    """Census conserved in the stage file; gate partition and counts as planted."""
    stage = _stage_rows(out_dir / "analyzed.csv")
    everything = oracle["passed_ids"] + oracle["rejected_ids"]
    failures = _partition("census", _ids(stage), everything)
    failures += _partition(
        "gate: rejects.csv", _ids(_stage_rows(out_dir / "rejects.csv")), oracle["rejected_ids"]
    )
    board = json.loads((out_dir / "dashboard.json").read_text(encoding="utf-8"))
    if board["total_records"] != oracle["records_after_merge"]:
        failures.append(
            f"dashboard total {board['total_records']}, expected {oracle['records_after_merge']}"
        )
    if board["valid_records"] != oracle["functions"]:
        failures.append(f"dashboard valid {board['valid_records']}, expected {oracle['functions']}")
    return failures


def reread_ingest_tags(stage_path: Path) -> int:
    """Ingest tags a re-read of ``stage_path`` emits again for its JSON cells.

    Loading a stage file re-runs ingest's JSON-cell check and appends the
    resulting E_JSON_CELL tag next to the identical one already stored in
    the ``issues`` cell, so a dashboard recomputed from the stage file
    counts those Ingest tags twice. This counts them from the file alone.
    """
    count = 0
    for row in _stage_rows(stage_path):
        for column in _JSON_COLUMNS:
            if row[column]:
                try:
                    json.loads(row[column])
                except ValueError:
                    count += 1
    return count


def check_dashboard_reread(out_dir: Path, reread_text: str) -> tuple[list[str], int]:
    """The dashboard recomputed from analyzed.csv equals the one analyze wrote.

    Returns the failures and the number of doubled Ingest tags seen. The
    only tolerated difference is the known re-read defect described in
    ``reread_ingest_tags``: the Ingest stage count may exceed the written
    one by exactly that number. A fixed program (no excess) also passes.
    """
    written = json.loads((out_dir / "dashboard.json").read_text(encoding="utf-8"))
    try:
        reread = json.loads(reread_text)
    except ValueError as exc:
        return [f"dashboard output is not JSON: {exc}"], 0
    excess = reread["per_stage_counts"]["Ingest"] - written["per_stage_counts"]["Ingest"]
    doubled = reread_ingest_tags(out_dir / "analyzed.csv")
    if excess == doubled and excess:
        reread["per_stage_counts"]["Ingest"] -= excess
    if reread != written:
        return ["dashboard re-read from analyzed.csv differs from dashboard.json"], excess
    return [], excess
