"""Run the documentation parsers over a record (the parse stage).

Every input row goes through ``parse_record`` straight after loading and
before any merge, so each row's findings are its own. Each sub-parser runs
independently on whichever raw cell is present; a failure in one never
stops the others, and every finding lands on the record as an issue.
Parsing never aborts a record. The request and response examples are only
checked here: their decoded documents are dropped, and ``build_reference``
decodes those of gate-passing records again.

Every sub-parser is a pure function of its cell text (and, for parameter
tables, the record's method) and returns frozen values. A memo dict
shared by the rows of one run therefore parses each distinct cell once:
rows with equal cells share one result, and each row still gets its own
tags. The memo holds every distinct cell text and parse product of the
run; findings are kept as tuples (most are ``()``, which costs nothing to
keep), and a JSON check keeps only its message.
"""

from __future__ import annotations

from .curl import CurlRequest, HttpMethod, parse_curl
from .issues import Issue, Stage, make_issue
from .params import Parameter, parse_parameter_table
from .pathtemplate import PathTemplate, parse_path_template
from .records import ApiCallRecord
from .typeinfer import parse_json


def _path(raw: str) -> tuple[PathTemplate | None, tuple[Issue, ...]]:
    template, issues = parse_path_template(raw)
    return template, tuple(issues)


def _curl(raw: str) -> tuple[CurlRequest | None, tuple[Issue, ...]]:
    request, issues = parse_curl(raw)
    return request, tuple(issues)


def _table(key: tuple[str, HttpMethod]) -> tuple[tuple[Parameter, ...], tuple[Issue, ...]]:
    parsed, issues = parse_parameter_table(*key)
    return tuple(parsed), tuple(issues)


def _json_fault(text: str) -> str | None:
    """The E_JSON_CELL message for a cell that is not JSON, or None."""
    try:
        parse_json(text)
    except ValueError as exc:
        return f"cell is not JSON: {exc}"
    return None


def _once(memo: dict, compute, key):
    """``compute(key)``, run only the first time ``memo`` sees it for ``compute``.

    ``memo`` holds one inner dict per sub-parser, keyed on that parser's input.
    """
    results = memo.setdefault(compute, {})
    try:
        return results[key]
    except KeyError:
        result = results[key] = compute(key)
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
        path_template, path_issues = _once(memo, _path, record.raw_path)
        issues.extend(path_issues)
    else:
        issues.append(make_issue("E_PATH_SYNTAX", Stage.PARSE, "record has no path", field="path"))

    curl_request = None
    if record.raw_curl is not None:
        curl_request, curl_issues = _once(memo, _curl, record.raw_curl)
        issues.extend(curl_issues)

    parameters = None
    if record.raw_parameters is not None:
        parameters, param_issues = _once(memo, _table, (record.raw_parameters, record.http_method))
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
