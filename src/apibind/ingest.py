"""Load CSV corpora into records, merge parsed duplicates, and write stage files.

CSV is the universal interchange format here: every pipeline stage can be
materialized back to a CSV that carries the same columns as the input plus
an ``issues`` column, so intermediate data is always open for examination.
Only unreadable files or broken CSV framing abort a run; anything wrong
inside a row becomes an issue tag on that row's record.

Loading reads CSV only: the documentation cells are kept as raw text for
the parse stage, which decodes each of them once. Ingest decodes just the
``issues`` cell of a stage file, each distinct cell text once per file, and
checks the ``http_method`` cell.

Writing formats each stage row once: one ``csv.writer`` turns a row into its
line of text, which goes to every file that holds the record, and one
``JSONEncoder`` with a bounded memo encodes each distinct ``issues`` tuple
once per write. Rows of a corpus share few distinct issue tuples (the same
parse finding on the same cell text), so the memo hits on most rows.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

from .curl import HttpMethod
from .issues import Issue, Stage, make_issue
from .records import ID_SEPARATOR, ApiCallRecord, RecordId
from .typeinfer import fresh_name, parse_json

#: Input column order; stage outputs append ``issues``.
COLUMNS = (
    "record_id",
    "source_url",
    "http_method",
    "path",
    "curl_example",
    "parameters",
    "request_example",
    "response_example",
    "description",
    "group",
)
STAGE_COLUMNS = COLUMNS + ("issues",)

#: Distinct ``issues`` tuples whose cell text one write keeps, least recently
#: used out first. The bound keeps a write's memory flat; at 128 entries the
#: memo still serves 2,580 of the 2,739 repeats among 3,623 mostly defective rows.
ISSUES_MEMO = 128


class CorpusError(Exception):
    """Unreadable corpus or malformed CSV framing; a failed stage write raises its ``OSError``."""


def load_corpus(
    path: str | Path, *, taken_stems: dict[str, int] | None = None
) -> list[ApiCallRecord]:
    """Load one CSV corpus; one record per data row, rows never skipped.

    Accepts both raw input files and stage outputs (which carry the extra
    ``issues`` column). A bad ``http_method`` or ``issues`` cell tags the
    record; every other cell is kept as raw text for ``parse_record``. A row
    without a ``record_id`` is named ``<file stem>:<row number>``; a stem
    byte that is not UTF-8 is written as a ``\\xNN`` escape, so every id can
    be written to a UTF-8 output. A stem in ``taken_stems`` (the stems a run's
    earlier inputs took, kept by ``fresh_name``) becomes its next free form,
    ``a_2``, so no two inputs give rows one id. Text that is not UTF-8 is a
    ``CorpusError``.
    """
    path = Path(path)
    stem = os.fsencode(path.stem).decode("utf-8", "backslashreplace")
    if taken_stems is not None:
        stem = fresh_name(stem, taken_stems)
    csv.field_size_limit(1 << 30)  # a large example is data, not broken framing
    try:
        # newline="" leaves quoted line breaks to the csv module, which is
        # also why splitting the text ourselves would corrupt exotic cells.
        # utf-8-sig drops the byte-order mark spreadsheet exports write.
        with path.open(encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except csv.Error as exc:
        raise CorpusError(f"malformed CSV in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"cannot read corpus {path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise CorpusError(f"{path} has no header row")

    header = rows[0]
    missing = [c for c in COLUMNS if c not in header]
    if missing:
        raise CorpusError(f"{path} is missing columns: {', '.join(missing)}")
    index = {name: header.index(name) for name in header}

    records = []
    decoded: dict[str, tuple[tuple[Issue, ...], Issue | None]] = {}
    for row_number, row in enumerate(rows[1:], start=1):
        if len(row) > len(header):
            raise CorpusError(f"{path} row {row_number}: more cells than header columns")
        cells = {
            name: (row[i] if i < len(row) and row[i] != "" else None)
            for name, i in index.items()
        }
        records.append(_record_from_cells(cells, stem, row_number, decoded))
    return records


def _decode_issues(cell: str) -> tuple[tuple[Issue, ...], Issue | None]:
    """The issues a stage file's ``issues`` cell holds, and None; or ``()`` and the tag why not."""
    try:
        return tuple(Issue.from_json(obj) for obj in parse_json(cell)), None
    except (ValueError, KeyError, TypeError) as exc:
        return (), make_issue(
            "E_JSON_CELL",
            Stage.INGEST,
            f"issues cell is not a valid issue list: {exc}",
            field="issues",
        )


def _record_from_cells(
    cells: dict[str, str | None],
    stem: str,
    row_number: int,
    decoded: dict[str, tuple[tuple[Issue, ...], Issue | None]],
) -> ApiCallRecord:
    """One row's record; ``decoded`` memoizes ``_decode_issues`` for the rows of one file."""
    issues: list[Issue] = []

    raw_id = cells.get("record_id") or ""
    # An empty atom is dropped: written back, it would vanish from the cell.
    atoms = tuple(dict.fromkeys(filter(None, raw_id.split(ID_SEPARATOR))))
    record_id = RecordId(ids=atoms) if atoms else RecordId.single(f"{stem}:{row_number}")

    method_cell = cells.get("http_method")
    try:
        method = HttpMethod((method_cell or "").strip().upper())
    except ValueError:
        issues.append(
            make_issue(
                "E_METHOD_UNKNOWN",
                Stage.INGEST,
                f"http_method {method_cell!r} is not a supported method; assuming GET",
                field="http_method",
            )
        )
        method = HttpMethod.GET

    prior: tuple[Issue, ...] = ()
    issues_cell = cells.get("issues")
    if issues_cell is not None:
        try:
            prior, fault = decoded[issues_cell]
        except KeyError:
            prior, fault = decoded[issues_cell] = _decode_issues(issues_cell)
        if fault is not None:
            issues.append(fault)

    return ApiCallRecord(
        id=record_id,
        source_url=cells.get("source_url") or "",
        http_method=method,
        raw_path=cells.get("path") or "",
        raw_curl=cells.get("curl_example"),
        raw_parameters=cells.get("parameters"),
        request_example=cells.get("request_example"),
        response_example=cells.get("response_example"),
        description=cells.get("description"),
        group=cells.get("group"),
        issues=prior,
    ).with_issues(*issues)  # a re-read stage file already carries its ingest tags


def merge_key(record: ApiCallRecord) -> tuple[str, str]:
    """Method and rendered path template of a parsed record (the raw path if it did not parse)."""
    template = record.path
    return record.http_method.value, template.render() if template is not None else record.raw_path


def merge_records(a: ApiCallRecord, b: ApiCallRecord) -> ApiCallRecord:
    """Merge two parsed records describing the same call (equal merge keys).

    Identifiers are concatenated and deduped, and missing cells filled from
    ``b``. Conflicting present cells keep ``a``'s and tag W_MERGE_CONFLICT;
    the parsed ``curl`` and ``params`` come from the row whose cell is kept.
    ``b``'s tags are all kept, also those about cells the merge drops, so
    every row's findings reach the gate. If the records describe different
    calls the merge is refused: ``a`` comes back tagged E_MERGE_KEY_MISMATCH
    and both records survive separately.
    """
    if merge_key(a) != merge_key(b):
        return a.with_issues(
            make_issue(
                "E_MERGE_KEY_MISMATCH",
                Stage.INGEST,
                f"cannot merge {b.id} into {a.id}: method/path differ",
            )
        )

    conflicts: list[Issue] = []

    def pick(field_name: str, left, right):
        if left is None:
            return right
        if right is not None and left != right:
            conflicts.append(
                make_issue(
                    "W_MERGE_CONFLICT",
                    Stage.INGEST,
                    f"field {field_name} differs between {a.id} and {b.id}; keeping the first",
                    field=field_name,
                )
            )
        return left

    merged = replace(
        a,
        id=a.id.merge(b.id),
        source_url=pick("source_url", a.source_url or None, b.source_url or None) or "",
        raw_curl=pick("curl_example", a.raw_curl, b.raw_curl),
        raw_parameters=pick("parameters", a.raw_parameters, b.raw_parameters),
        request_example=pick("request_example", a.request_example, b.request_example),
        response_example=pick("response_example", a.response_example, b.response_example),
        description=pick("description", a.description, b.description),
        group=pick("group", a.group, b.group),
        curl=(a if a.raw_curl is not None else b).curl,
        params=(a if a.raw_parameters is not None else b).params,
    )
    return merged.with_issues(*b.issues, *conflicts)


def merge_corpus(records: list[ApiCallRecord]) -> list[ApiCallRecord]:
    """Fold together all parsed records sharing a merge key, in input order."""
    # Reassigning a key keeps its place, so the dict holds the first-seen order.
    merged: dict[tuple[str, str], ApiCallRecord] = {}
    for record in records:
        key = merge_key(record)
        merged[key] = merge_records(merged[key], record) if key in merged else record
    return list(merged.values())


class _Echo:
    """A ``csv.writer`` target whose ``write`` returns the line, so ``writerow`` returns it."""

    @staticmethod
    def write(line: str) -> str:
        return line


def write_stage_rows(
    records: list[ApiCallRecord], out, subset: tuple[list[ApiCallRecord], object] | None = None
) -> None:
    """Write the canonical stage CSV, header first, one ``out.write`` call per row.

    ``out`` is anything with a ``write(str)`` method: an open text file, a
    ``StringIO`` or a digest sink. No more than one row is ever held as text.
    ``subset``, a pair ``(members, subset_out)``, also writes ``members`` to
    ``subset_out`` as a stage CSV of their own; each row is formatted once
    and written to both. ``members`` must be a subsequence of ``records``,
    the same objects in the same order (as ``route`` returns its sides), or
    the write ends in a ``ValueError``.
    """
    members, subset_out = subset if subset is not None else ((), None)
    line = csv.writer(_Echo()).writerow
    encoder = json.JSONEncoder(ensure_ascii=False)  # the bytes of json.dumps(..., ensure_ascii=False)

    @lru_cache(maxsize=ISSUES_MEMO)
    def issues_cell(issues: tuple[Issue, ...]) -> str:
        return encoder.encode([issue.to_json() for issue in issues])

    header = line(STAGE_COLUMNS)
    out.write(header)
    if subset_out is not None:
        subset_out.write(header)
    pending = iter(members)
    member = next(pending, None)
    for record in records:
        text = line(_record_to_row(record, issues_cell))
        out.write(text)
        if record is member:
            subset_out.write(text)
            member = next(pending, None)
    if member is not None:
        raise ValueError(f"record {member.id} of the subset is not in order among the records")


def write_stage(
    records: list[ApiCallRecord],
    path: str | Path,
    subset: tuple[list[ApiCallRecord], str | Path] | None = None,
) -> None:
    """Materialize records as a stage CSV (input schema plus ``issues``), row by row.

    ``load_corpus(write_stage(rs))`` reproduces every CSV-carried field and
    all issues. The parser outputs are not serialized; ``parse_record``
    derives them again from the raw cells. ``subset``, a pair ``(members,
    subset_path)``, also writes ``members`` to ``subset_path`` in the same
    pass, the bytes ``write_stage(members, subset_path)`` writes; see
    ``write_stage_rows``.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        if subset is None:
            write_stage_rows(records, fh)
            return
        members, subset_path = subset
        with Path(subset_path).open("w", encoding="utf-8", newline="") as subset_fh:
            write_stage_rows(records, fh, (members, subset_fh))


def _record_to_row(record: ApiCallRecord, issues_cell) -> list[str]:
    return [
        str(record.id),
        record.source_url,
        record.http_method.value,
        record.raw_path,
        record.raw_curl or "",
        record.raw_parameters or "",
        record.request_example or "",
        record.response_example or "",
        record.description or "",
        record.group or "",
        issues_cell(record.issues),
    ]


def record_id_census(records: list[ApiCallRecord]) -> Counter:
    """Multiset of id atoms; equal censuses certify record conservation."""
    census: Counter = Counter()
    for record in records:
        census.update(record.id.ids)
    return census
