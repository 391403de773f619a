"""Run the documentation parsers over a record (the parse stage).

Every input row goes through ``parse_record`` once, straight after loading
and before any merge, so each row's findings are its own. Each sub-parser
runs independently on whichever raw cell is present; a failure in one never
stops the others, and every finding lands on the record as an issue.
Parsing never aborts a record. The request and response examples are only
checked here: their decoded documents are dropped, and ``build_reference``
decodes those of gate-passing records again.
"""

from __future__ import annotations

from .curl import parse_curl
from .issues import Issue, Stage, make_issue
from .params import parse_parameter_table
from .pathtemplate import parse_path_template
from .records import ApiCallRecord
from .typeinfer import parse_json


def parse_record(record: ApiCallRecord) -> ApiCallRecord:
    """Set the record's parser outputs and tag every parser finding."""
    issues: list[Issue] = []

    path_template = None
    if record.raw_path:
        path_template, path_issues = parse_path_template(record.raw_path)
        issues.extend(path_issues)
    else:
        issues.append(make_issue("E_PATH_SYNTAX", Stage.PARSE, "record has no path", field="path"))

    curl_request = None
    if record.raw_curl is not None:
        curl_request, curl_issues = parse_curl(record.raw_curl)
        issues.extend(curl_issues)

    params = None
    if record.raw_parameters is not None:
        parsed, param_issues = parse_parameter_table(record.raw_parameters, record.http_method)
        params = tuple(parsed)
        issues.extend(param_issues)

    for column, text in (
        ("request_example", record.request_example),
        ("response_example", record.response_example),
    ):
        if text is None:
            continue
        try:
            parse_json(text)
        except ValueError as exc:
            issues.append(
                make_issue("E_JSON_CELL", Stage.PARSE, f"cell is not JSON: {exc}", field=column)
            )

    return record.with_issues(*issues, path=path_template, curl=curl_request, params=params)
