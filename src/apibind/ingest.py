"""Load CSV corpora into records, merge parsed duplicates, and write stage files.

CSV is the universal interchange format here: every pipeline stage can be
materialized back to a CSV that carries the same columns as the input plus
an ``issues`` column, so intermediate data is always open for examination.
Only unreadable files or broken CSV framing abort a run; anything wrong
inside a row becomes an issue tag on that row's record.

The stage row is one table: a record's leading fields (``STAGE_FIELDS``) are
the ``STAGE_COLUMNS`` in order, a text cell being ``None`` exactly when it is
empty. Loading reads CSV only: the documentation cells are kept as raw text for
the parse stage, which decodes each of them once. Ingest decodes just the
``issues`` cell of a stage file, each distinct cell text once per file, and
checks the ``http_method`` cell.

Writing formats each stage row once (``stage_lines``) into its line of text,
which goes to every file that holds the record and to the corpus digest. The
line is the one ``csv.writer`` writes in its default dialect, built with
``str`` methods instead: ``csv.writer`` checks every character against the
line terminator, and on Python 3.11.7 it took 33 ms for a 2.2 MB stage text
that these methods format in 12 ms. One ``JSONEncoder`` with a bounded memo
encodes each distinct ``issues`` tuple once per write. Rows of a corpus share
few distinct issue tuples (the same parse finding on the same cell text), so
the memo hits on most rows.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

from .issues import Issue, Stage, make_issue
from .records import ID_SEPARATOR, STAGE_FIELDS, ApiCallRecord, RecordId
from .text import fresh_name, parse_json
from .vocabulary import METHODS, HttpMethod

#: The column of each stage field named otherwise; every other column is named as its field.
_COLUMN_OF = {
    "id": "record_id", "raw_path": "path", "raw_curl": "curl_example", "raw_parameters": "parameters"
}
#: One column per field of ``STAGE_FIELDS``, in order; input columns omit ``issues``.
STAGE_COLUMNS = tuple(_COLUMN_OF.get(name, name) for name in STAGE_FIELDS)
COLUMNS = STAGE_COLUMNS[:-1]

#: Positions in a stage row of the three cells that are not text.
_ID, _METHOD, _ISSUES = map(STAGE_COLUMNS.index, ("record_id", "http_method", "issues"))

#: (column, field) of each text cell a merge fills or checks, in table order;
#: the records of one merge key share their path.
_MERGED_CELLS = [
    (column, name) for column, name in zip(STAGE_COLUMNS, STAGE_FIELDS)
    if column not in ("record_id", "http_method", "path", "issues")
]

#: Distinct ``issues`` tuples whose cell text one write keeps, least recently
#: used out first. The bound keeps a write's memory flat; at 128 entries the
#: memo still serves 2,580 of the 2,739 repeats among 3,623 mostly defective rows.
ISSUES_MEMO = 128

#: What a JSON value that is not an array is, if not its own text (true, false, null).
_JSON_KINDS = {dict: "an object", str: "a string", int: "a number", float: "a number"}


class CorpusError(Exception):
    """Unreadable corpus or malformed CSV framing; a failed stage write raises its ``OSError``."""


def load_corpus(
    path: str | Path, *, taken_stems: dict[str, int] | None = None
) -> list[ApiCallRecord]:
    """Load one CSV corpus; one record per data row, rows never skipped.

    Accepts both raw input files and stage outputs (which carry the extra
    ``issues`` column), picking each row's cells by header position; an
    absent or empty cell reads as ``None``, and a stage column named twice is
    a ``CorpusError``. A bad ``http_method`` or
    ``issues`` cell tags the record; every other cell is kept as raw text for
    ``parse_record``. A row without a ``record_id`` is named ``<file
    stem>:<row number>``; a stem byte that is not UTF-8 is written as a
    ``\\xNN`` escape, so every id can be written to a UTF-8 output, and so is
    a ``|``, the id separator (``\\x7c``), so the id stays one atom. A stem in
    ``taken_stems`` (the stems a run's earlier inputs took, kept by
    ``fresh_name``) becomes its next free form, ``a_2``, so no two inputs give
    rows one id. Text that is not UTF-8 is a ``CorpusError``.
    """
    path = Path(path)
    stem = os.fsencode(path.stem).decode("utf-8", "backslashreplace")
    stem = stem.replace(ID_SEPARATOR, f"\\x{ord(ID_SEPARATOR):02x}")
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
    duplicated = [c for c in STAGE_COLUMNS if header.count(c) > 1]
    if duplicated:
        raise CorpusError(f"{path} has duplicate columns: {', '.join(duplicated)}")
    # Short rows are padded to ``width``; a raw input's rows get one more
    # empty cell, which stands in for the ``issues`` column it lacks.
    width = len(header) + ("issues" not in header)
    pick = itemgetter(*(header.index(c) if c in header else width - 1 for c in STAGE_COLUMNS))

    records = []
    # What each distinct issues cell decodes to; an empty cell, None, holds no issues.
    decoded: dict[str | None, tuple[tuple[Issue, ...], Issue | None]] = {None: ((), None)}
    for row_number, row in enumerate(rows[1:], start=1):
        if len(row) < width:
            row += [""] * (width - len(row))
        elif len(row) > len(header):
            raise CorpusError(f"{path} row {row_number}: more cells than header columns")
        cells = [cell or None for cell in pick(row)]
        records.append(_record_from_cells(cells, stem, row_number, decoded))
    return records


def _decode_issues(cell: str) -> tuple[tuple[Issue, ...], Issue | None]:
    """The issues a stage file's ``issues`` cell holds, and None; or ``()`` and the tag why not."""
    try:
        entries = parse_json(cell)
        if not isinstance(entries, list):
            kind = _JSON_KINDS.get(type(entries)) or json.dumps(entries)
            raise TypeError(f"expected a JSON array, found {kind}")
        return tuple(Issue.from_json(entry) for entry in entries), None
    except (ValueError, KeyError, TypeError) as exc:
        return (), make_issue(
            "E_JSON_CELL",
            Stage.INGEST,
            f"issues cell is not a valid issue list: {exc}",
            field="issues",
        )


def _record_from_cells(
    cells: list[str | None],
    stem: str,
    row_number: int,
    decoded: dict[str | None, tuple[tuple[Issue, ...], Issue | None]],
) -> ApiCallRecord:
    """One row's record from its stage cells; ``decoded`` memoizes ``_decode_issues`` per file."""
    issues: list[Issue] = []

    # An empty atom is dropped: written back, it would vanish from the cell.
    atoms = tuple(filter(None, (cells[_ID] or "").split(ID_SEPARATOR)))
    cells[_ID] = RecordId(atoms) if atoms else RecordId.single(f"{stem}:{row_number}")

    method = METHODS.get((cells[_METHOD] or "").strip().upper())
    if method is None:
        issues.append(
            make_issue(
                "E_METHOD_UNKNOWN",
                Stage.INGEST,
                f"http_method {cells[_METHOD]!r} is not a supported method; assuming GET",
                field="http_method",
            )
        )
        method = HttpMethod.GET
    cells[_METHOD] = method

    entry = decoded.get(cells[_ISSUES])
    if entry is None:
        entry = decoded[cells[_ISSUES]] = _decode_issues(cells[_ISSUES])
    cells[_ISSUES], fault = entry
    if fault is not None:
        issues.append(fault)

    # A re-read stage file already carries its ingest tags, which with_issues skips.
    return ApiCallRecord(*cells).with_issues(*issues)


def _merge_key(record: ApiCallRecord) -> tuple[HttpMethod, str | None]:
    """Method and canonical path text of a parsed record (the raw path if it did not parse)."""
    template = record.path
    return record.http_method, template.text if template is not None else record.raw_path


def _merge_pair(a: ApiCallRecord, b: ApiCallRecord) -> ApiCallRecord:
    """Merge two parsed records of one merge key, as ``merge_corpus`` pairs them.

    Identifiers are concatenated, repeats kept, and missing cells filled from
    ``b``. Conflicting present cells keep ``a``'s and tag W_MERGE_CONFLICT,
    one per cell in column order; the parsed ``curl`` and ``params`` come
    from the row whose cell is kept. ``b``'s tags are all kept, also those
    about cells the merge drops, so every row's findings reach the gate.
    """
    changes = {
        "id": RecordId(a.id + b.id),
        "curl": (a if a.raw_curl is not None else b).curl,
        "params": (a if a.raw_parameters is not None else b).params,
    }
    conflicts: list[Issue] = []
    for column, name in _MERGED_CELLS:
        left, right = getattr(a, name), getattr(b, name)
        if left is None:
            changes[name] = right
        elif right is not None and left != right:
            conflicts.append(
                make_issue(
                    "W_MERGE_CONFLICT",
                    Stage.INGEST,
                    f"field {column} differs between {a.id} and {b.id}; keeping the first",
                    field=column,
                )
            )
    return a._replace(**changes).with_issues(*b.issues, *conflicts)


def merge_corpus(records: list[ApiCallRecord]) -> list[ApiCallRecord]:
    """Fold together all parsed records sharing a merge key, in input order."""
    # Reassigning a key keeps its place, so the dict holds the first-seen order.
    merged: dict[tuple[HttpMethod, str | None], ApiCallRecord] = {}
    for record in records:
        key = _merge_key(record)
        merged[key] = _merge_pair(merged[key], record) if key in merged else record
    return list(merged.values())


def _cell(text: str | None) -> str:
    """``text`` as ``csv.writer`` writes a cell of a stage row: quoted only when it must be."""
    if text is None:
        return ""
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _line(row: Iterable[str | None]) -> str:
    """The line ``csv.writer(fh).writerow(row)`` writes, for a row of two or more cells."""
    return ",".join(map(_cell, row)) + "\r\n"


def stage_lines(records: Iterable[ApiCallRecord]) -> Iterator[str]:
    """The stage CSV of ``records`` as lines of text: the header, then one line per record.

    ``None`` cells are written empty, and each distinct ``issues`` tuple is
    encoded once per call (an LRU of ``ISSUES_MEMO`` cells).
    """
    encoder = json.JSONEncoder(ensure_ascii=False)  # the bytes of json.dumps(..., ensure_ascii=False)

    @lru_cache(maxsize=ISSUES_MEMO)
    def issues_cell(issues: tuple[Issue, ...]) -> str:
        return encoder.encode([issue.to_json() for issue in issues])

    yield _line(STAGE_COLUMNS)
    for record in records:
        row = list(record[: len(STAGE_FIELDS)])  # the stage cells lead the record
        row[_ID] = str(row[_ID])
        row[_ISSUES] = issues_cell(row[_ISSUES])
        yield _line(row)


def write_stage(
    records: list[ApiCallRecord],
    path: str | Path,
    subset: tuple[list[ApiCallRecord], str | Path] | None = None,
) -> None:
    """Write the lines of ``stage_lines(records)`` to ``path``, one at a time.

    ``load_corpus(write_stage(rs))`` reproduces every CSV-carried field and
    all issues. The parser outputs are not serialized; ``parse_record``
    derives them again from the raw cells. ``subset``, a pair ``(members,
    subset_path)``, also writes ``members`` to ``subset_path`` in the same
    pass, the bytes ``write_stage(members, subset_path)`` writes. ``members``
    must be a subsequence of ``records``, the same objects in the same order
    (as ``route`` returns its sides), or the write ends in a ``ValueError``.
    """
    lines = stage_lines(records)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        if subset is None:
            for text in lines:
                fh.write(text)
            return
        members, subset_path = subset
        with Path(subset_path).open("w", encoding="utf-8", newline="") as subset_fh:
            header = next(lines)
            fh.write(header)
            subset_fh.write(header)
            pending = iter(members)
            member = next(pending, None)
            for record, text in zip(records, lines):
                fh.write(text)
                if record is member:
                    subset_fh.write(text)
                    member = next(pending, None)
    if member is not None:
        raise ValueError(f"record {member.id} of the subset is not in order among the records")


def record_id_census(records: list[ApiCallRecord]) -> Counter:
    """Multiset of id atoms; equal censuses certify record conservation."""
    census: Counter = Counter()
    for record in records:
        census.update(record.id)
    return census
