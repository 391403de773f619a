"""Cross-checks, the generation gate, and the validation dashboard.

``cross_validate`` checks each parsed record for consistency: path
variables against declared path parameters, in both directions; duplicate
parameters per convention; the declared method against the curl
example's; a body on GET or HEAD; and a call with no example. Every check
runs on every record regardless of what already failed (late filtering):
a check reads the parser outputs and the raw cells, never the tags, so a
record gets the same findings whatever it already carries, and issue
co-occurrence stays observable. Partitioning happens only afterwards:
records with any error go to the alternate output, and nothing is ever
silently dropped. The dashboard is a plain dict: the JSON document
``dashboard.json`` holds. It is a function of the multiset of the records'
issue tuples (``dashboard_of_tally``), so the dashboard of a corpus split
in parts is that of the sum of the parts' tallies, and a stage file's
dashboard needs only its tally (``ingest.issue_tally``), not its records.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Mapping

from .issues import Issue, Severity, Stage, make_issue, severity_of
from .records import ApiCallRecord
from .vocabulary import Convention, HttpMethod


def cross_validate(record: ApiCallRecord) -> ApiCallRecord:
    """Run the consistency checks and append their findings.

    Expects ``parse_record`` to have run; checks whose inputs are absent are
    vacuously satisfied.
    """
    template, curl, params = record.path, record.curl, record.params
    path_params = [p.name for p in params or () if p.convention is Convention.PATH]

    issues: list[Issue] = []

    if template is not None:
        path_vars = template.variables
        for name in path_vars:
            if name not in path_params:
                issues.append(
                    make_issue(
                        "E_PATHVAR_UNDECLARED",
                        Stage.VALIDATE,
                        f"path variable {name!r} has no declared path parameter",
                        field=name,
                    )
                )
        for name in path_params:
            if name not in path_vars:
                issues.append(
                    make_issue(
                        "E_PARAM_PATH_UNUSED",
                        Stage.VALIDATE,
                        f"path parameter {name!r} does not appear in the path template",
                        field=name,
                    )
                )

    if params:
        seen: dict[tuple[Convention, str], int] = {}
        for p in params:
            seen[(p.convention, p.name)] = seen.get((p.convention, p.name), 0) + 1
        for (convention, name), count in seen.items():
            if count > 1:
                issues.append(
                    make_issue(
                        "E_DUP_PARAM",
                        Stage.VALIDATE,
                        f"parameter {name!r} appears {count} times as {convention}",
                        field=name,
                    )
                )

    if curl is not None and curl.method != record.http_method:
        issues.append(
            make_issue(
                "E_METHOD_MISMATCH",
                Stage.VALIDATE,
                f"declared {record.http_method} but the curl example sends {curl.method}",
            )
        )

    if record.http_method in (HttpMethod.GET, HttpMethod.HEAD):
        if (curl is not None and curl.body is not None) or record.request_example is not None:
            issues.append(
                make_issue(
                    "W_BODY_ON_GET",
                    Stage.VALIDATE,
                    f"{record.http_method} call documents a request body",
                )
            )

    if record.request_example is None and record.response_example is None:
        issues.append(
            make_issue(
                "W_NO_EXAMPLE",
                Stage.VALIDATE,
                "record has neither a request nor a response example",
            )
        )

    return record.with_issues(*issues)


def route(
    records: list[ApiCallRecord], *, strict: bool = False
) -> tuple[list[ApiCallRecord], list[ApiCallRecord]]:
    """Partition into (valid, rejected); order within each side is preserved.

    Only error-severity issues reject a record; with ``strict`` any issue
    does. The two sides together are a permutation of the input.
    """
    valid: list[ApiCallRecord] = []
    rejected: list[ApiCallRecord] = []
    for record in records:
        blocking = len(record.issues) if strict else record.error_count()
        (rejected if blocking else valid).append(record)
    return valid, rejected


def dashboard(records: list[ApiCallRecord]) -> dict:
    """``dashboard_of_tally`` of the records' issue tuples."""
    return dashboard_of_tally(Counter(record.issues for record in records))


def dashboard_of_tally(tally: Mapping[tuple[Issue, ...], int]) -> dict:
    """Summary of corpus health: percent-correct plus issues ranked by impact.

    ``tally`` counts the records that carry each issue tuple; each distinct
    tuple is looked at once and weighted by its count. The report is the
    JSON document ``dashboard.json`` holds: ``total_records``,
    ``valid_records``, ``percent_valid`` (absent for an empty corpus),
    ``issue_frequency`` and ``per_stage_counts``. Impact is the number of
    records a code affects, which also breaks down the percentages; ties are
    ordered alphabetically by code.
    """
    affected: Counter = Counter()
    stage_counts: Counter = Counter()
    total = valid = 0
    for issues, count in tally.items():
        total += count
        if not any(issue.severity is Severity.ERROR for issue in issues):
            valid += count
        for code in {issue.code for issue in issues}:
            affected[code] += count
        for issue in issues:
            stage_counts[issue.stage] += count
    report: dict = {"total_records": total, "valid_records": valid}
    if total:
        report["percent_valid"] = valid / total * 100.0
    entries = [
        {"code": code, "count": count, "percent": count / total * 100.0}
        for code, count in affected.items()
    ]
    entries.sort(key=lambda e: (-e["count"], e["code"]))
    report["issue_frequency"] = entries
    report["per_stage_counts"] = {stage: stage_counts[stage] for stage in Stage}
    return report


def dashboard_to_json(report: dict) -> str:
    """The text of ``dashboard.json``."""
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def render_dashboard_text(report: dict) -> str:
    """Aligned plain-text table for terminals and stage directories."""
    lines = []
    percent = f"{report['percent_valid']:.1f}%" if "percent_valid" in report else "n/a"
    lines.append(f"records      {report['total_records']}")
    lines.append(f"valid        {report['valid_records']} ({percent})")
    lines.append("")
    entries = report["issue_frequency"]
    if entries:
        code_width = max(len(e["code"]) for e in entries)
        code_width = max(code_width, len("issue"))
        lines.append(f"{'issue':<{code_width}}  {'severity':<8}  {'records':>7}  {'pct':>6}")
        for e in entries:
            severity = severity_of(e["code"])
            lines.append(
                f"{e['code']:<{code_width}}  {severity:<8}  {e['count']:>7}  {e['percent']:>5.1f}%"
            )
    else:
        lines.append("no issues")
    lines.append("")
    stages = "  ".join(f"{name}:{count}" for name, count in report["per_stage_counts"].items())
    lines.append(f"issues by stage  {stages}")
    return "\n".join(lines) + "\n"
