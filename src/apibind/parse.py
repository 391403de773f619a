"""Run the documentation parsers over the records of a run (the parse stage).

Every input row goes through ``parse_record`` after loading and before any
merge, so each row's findings are its own. Each sub-parser runs
independently on whichever raw cell is present; a failure in one never
stops the others, and every finding lands on the record as an issue.
Parsing never aborts a record. The request and response examples are only
checked here: their decoded documents are dropped, and ``build_reference``
decodes those of gate-passing records again.

Every sub-parser is a pure function of its cell text (and, for parameter
tables, the record's method) and returns immutable values: a ``(result,
issues)`` pair of a ``NamedTuple`` or a tuple of them, and a tuple of
``Issue`` NamedTuples (most are ``()``, which costs nothing to keep). The
stage therefore runs in two passes. The column pass, ``parse_columns``, runs
each sub-parser over the distinct cells of its own column and keeps one dict
per column, keyed by cell: each distinct cell is parsed once per run, and one
parser runs over a whole column before the next starts. The row pass,
``parse_record``, builds each row's record from those dicts, so rows with
equal cells share one result and each row still gets its own tags. The dicts
hold every distinct cell text and parse product of the run; a JSON check
keeps only its message. The parsers are looked up in this module's globals
at each call, so a wrapper put in their place after import sees every parse.
"""

from __future__ import annotations

from collections.abc import Collection
from typing import NamedTuple

from .curl import CurlRequest, parse_curl
from .issues import Issue, Stage, make_issue
from .params import Parameter, parse_parameter_table
from .pathtemplate import PathTemplate, parse_path_template
from .records import ApiCallRecord
from .text import parse_json
from .vocabulary import HttpMethod


class Columns(NamedTuple):
    """What each distinct cell of a set of records parses to, one dict per column."""

    paths: dict[str, tuple[PathTemplate | None, tuple[Issue, ...]]]
    curls: dict[str, tuple[CurlRequest | None, tuple[Issue, ...]]]
    #: Keyed by ``(raw_parameters, http_method)``: a table's reading depends on the method.
    tables: dict[tuple[str, HttpMethod], tuple[tuple[Parameter, ...] | None, tuple[Issue, ...]]]
    #: The request and response examples share one dict of E_JSON_CELL messages (None: JSON).
    json_faults: dict[str, str | None]


def _json_fault(text: str) -> str | None:
    """The E_JSON_CELL message for a cell that is not JSON, or None."""
    try:
        parse_json(text)
    except ValueError as exc:
        return f"cell is not JSON: {exc}"
    return None


def parse_columns(records: Collection[ApiCallRecord]) -> Columns:
    """Run each sub-parser once over every distinct present cell of its column in ``records``."""
    paths = {record.raw_path for record in records}
    curls = {record.raw_curl for record in records}
    tables = {(record.raw_parameters, record.http_method) for record in records}
    examples = {record.request_example for record in records}
    examples.update(record.response_example for record in records)
    return Columns(
        {text: parse_path_template(text) for text in paths if text},
        {text: parse_curl(text) for text in curls if text is not None},
        {key: parse_parameter_table(*key) for key in tables if key[0] is not None},
        {text: _json_fault(text) for text in examples if text is not None},
    )


def parse_record(record: ApiCallRecord, columns: Columns | None = None) -> ApiCallRecord:
    """Set the record's parser outputs and tag every parser finding.

    ``columns`` is ``parse_columns(rows)`` for rows that hold this record:
    build it once per run, and drop it when parsing ends. Without it, the
    record is parsed on its own, through ``parse_columns([record])``.
    """
    paths, curls, tables, json_faults = parse_columns((record,)) if columns is None else columns
    issues: list[Issue] = []

    path_template = None
    if record.raw_path:
        path_template, path_issues = paths[record.raw_path]
        issues.extend(path_issues)
    else:
        issues.append(make_issue("E_PATH_SYNTAX", Stage.PARSE, "record has no path", field="path"))

    curl_request = None
    if record.raw_curl is not None:
        curl_request, curl_issues = curls[record.raw_curl]
        issues.extend(curl_issues)

    parameters = None
    if record.raw_parameters is not None:
        parameters, param_issues = tables[record.raw_parameters, record.http_method]
        issues.extend(param_issues)

    for column, text in (
        ("request_example", record.request_example),
        ("response_example", record.response_example),
    ):
        if text is None:
            continue
        fault = json_faults[text]
        if fault is not None:
            issues.append(make_issue("E_JSON_CELL", Stage.PARSE, fault, field=column))

    return record.with_issues(*issues, path=path_template, curl=curl_request, params=parameters)
