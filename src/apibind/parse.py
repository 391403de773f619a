"""Run the documentation parsers over a record (the parse stage).

Every input row goes through ``parse_record`` straight after loading and
before any merge, so each row's findings are its own. Each sub-parser runs
independently on whichever raw cell is present; a failure in one never
stops the others, and every finding lands on the record as an issue.
Parsing never aborts a record. The request and response examples are only
checked here: their decoded documents are dropped, and ``build_reference``
decodes those of gate-passing records again.

Every sub-parser is a pure function of its cell text (and, for parameter
tables, the record's method) and returns immutable values: a ``(result,
issues)`` pair of a frozen dataclass or a tuple of them, and a tuple of
``Issue`` NamedTuples (most are ``()``, which costs nothing to keep). One
memo dict shared by the rows of one run, keyed on the parser and its
arguments, therefore parses each distinct cell once: rows with equal cells
share one result, and each row still gets its own tags. The memo holds
every distinct cell text and parse product of the run; a JSON check keeps
only its message. The parsers are looked up in this module's globals at
each call, so a wrapper put in their place after import sees every parse.
"""

from __future__ import annotations

from .curl import parse_curl
from .issues import Issue, Stage, make_issue
from .params import parse_parameter_table
from .pathtemplate import parse_path_template
from .records import ApiCallRecord
from .typeinfer import parse_json


def _json_fault(text: str) -> str | None:
    """The E_JSON_CELL message for a cell that is not JSON, or None."""
    try:
        parse_json(text)
    except ValueError as exc:
        return f"cell is not JSON: {exc}"
    return None


def _once(memo: dict, compute, *args):
    """``compute(*args)``, run only the first time ``memo`` sees these arguments for ``compute``."""
    key = (compute, *args)
    try:
        return memo[key]
    except KeyError:
        result = memo[key] = compute(*args)
        return result


def parse_record(record: ApiCallRecord, memo: dict | None = None) -> ApiCallRecord:
    """Set the record's parser outputs and tag every parser finding.

    ``memo`` carries parse results between the rows of one run: pass the
    same ``{}`` for every row, and drop it when parsing ends. Without one,
    the record is parsed on its own.
    """
    if memo is None:
        memo = {}
    issues: list[Issue] = []

    path_template = None
    if record.raw_path:
        path_template, path_issues = _once(memo, parse_path_template, record.raw_path)
        issues.extend(path_issues)
    else:
        issues.append(make_issue("E_PATH_SYNTAX", Stage.PARSE, "record has no path", field="path"))

    curl_request = None
    if record.raw_curl is not None:
        curl_request, curl_issues = _once(memo, parse_curl, record.raw_curl)
        issues.extend(curl_issues)

    parameters = None
    if record.raw_parameters is not None:
        parameters, param_issues = _once(
            memo, parse_parameter_table, record.raw_parameters, record.http_method
        )
        issues.extend(param_issues)

    for column, text in (
        ("request_example", record.request_example),
        ("response_example", record.response_example),
    ):
        if text is None:
            continue
        fault = _once(memo, _json_fault, text)
        if fault is not None:
            issues.append(make_issue("E_JSON_CELL", Stage.PARSE, fault, field=column))

    return record.with_issues(*issues, path=path_template, curl=curl_request, params=parameters)
