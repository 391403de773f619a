"""Parse extracted parameter-description tables.

Tables arrive as JSON arrays of objects with loosely standardized keys;
this module normalizes key spellings and maps the documented location to
one of the passing conventions: request path, URL-encoded query, request
body (JSON or plain text), or HTTP header/cookie. ``Convention`` lives in
``vocabulary``. A ``Parameter`` is a ``NamedTuple``, so it equals the plain
tuple of its fields.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from .issues import Issue, Stage, make_issue
from .text import parse_json
from .vocabulary import Convention, HttpMethod  # Convention is re-exported here


class _Missing:
    """Absent-example marker; JSON null is a real example value."""

    def __repr__(self) -> str:
        return "<no example>"

    def __reduce__(self):
        # copy, deepcopy and pickle hand back the one marker, so ``has_example`` holds on a copy.
        return "_MISSING"


_MISSING = _Missing()


class Parameter(NamedTuple):
    name: str
    convention: Convention
    declared_type: str | None = None
    required: bool | None = None
    description: str | None = None
    example: Any = _MISSING

    @property
    def has_example(self) -> bool:
        return self.example is not _MISSING


# Alias spellings seen in scraped tables, in priority order per target key.
_KEY_ALIASES: dict[str, tuple[str, ...]] = {
    "name": ("name", "parameter"),
    "convention": ("in", "location", "passed_in"),
    "declared_type": ("type",),
    "required": ("required", "mandatory"),
    "description": ("description", "notes"),
    "example": ("example",),
}

_CONVENTIONS: dict[str, Convention] = {
    "path": Convention.PATH,
    "query": Convention.QUERY,
    "url": Convention.QUERY,
    "body": Convention.BODY_JSON,
    "json": Convention.BODY_JSON,
    "text": Convention.BODY_TEXT,
    "header": Convention.HEADER,
    "cookie": Convention.COOKIE,
}

_TRUE_WORDS = {"yes", "true", "required", "1"}
_FALSE_WORDS = {"no", "false", "optional", "0"}


def default_convention(method: HttpMethod | None) -> Convention:
    """Fallback convention when documentation names an unknown one.

    Calls without a body (GET/DELETE) most plausibly pass extra parameters
    in the query; everything else defaults to the JSON body.
    """
    if method in (HttpMethod.GET, HttpMethod.DELETE):
        return Convention.QUERY
    return Convention.BODY_JSON


def parse_parameter_table(
    raw: str, method: HttpMethod | None = None
) -> tuple[tuple[Parameter, ...], tuple[Issue, ...]]:
    """Parse a JSON-array parameter table into Parameters.

    Entries without a usable name are dropped to an E_PARAM_NO_NAME issue;
    every other entry is kept. ``method`` steers the fallback convention
    for entries whose documented location is missing or unrecognized.
    """
    issues: list[Issue] = []
    try:
        doc = parse_json(raw)
    except ValueError as exc:
        issue = make_issue(
            "E_JSON_CELL", Stage.PARSE, f"parameter table is not JSON: {exc}", field="parameters"
        )
        return (), (issue,)
    if not isinstance(doc, list):
        issue = make_issue(
            "E_JSON_CELL", Stage.PARSE, "parameter table is not a JSON array", field="parameters"
        )
        return (), (issue,)

    params: list[Parameter] = []
    for index, entry in enumerate(doc):
        if not isinstance(entry, dict):
            issues.append(
                make_issue(
                    "E_PARAM_NO_NAME",
                    Stage.PARSE,
                    f"entry {index} is not an object and names no parameter",
                    field="parameters",
                )
            )
            continue
        fields = _normalize_keys(entry)

        name = fields.get("name")
        if not isinstance(name, str) or not name:
            issues.append(
                make_issue(
                    "E_PARAM_NO_NAME",
                    Stage.PARSE,
                    f"entry {index} has no name; entry dropped",
                    field="parameters",
                )
            )
            continue

        convention = _parse_convention(fields, name, method, issues)
        declared_type = _as_type_string(fields.get("declared_type"))
        required = _parse_required(fields.get("required", _MISSING))
        description = fields.get("description")
        if description is not None and not isinstance(description, str):
            description = json.dumps(description)

        params.append(
            Parameter(
                name=name,
                convention=convention,
                declared_type=declared_type,
                required=required,
                description=description,
                example=fields.get("example", _MISSING),
            )
        )
    return tuple(params), tuple(issues)


def _normalize_keys(entry: dict) -> dict[str, Any]:
    lowered = {str(k).lower(): v for k, v in entry.items()}
    out: dict[str, Any] = {}
    for target, aliases in _KEY_ALIASES.items():
        for alias in aliases:
            if alias in lowered:
                out[target] = lowered[alias]
                break
    return out


def _parse_convention(
    fields: dict[str, Any],
    name: str,
    method: HttpMethod | None,
    issues: list[Issue],
) -> Convention:
    value = fields.get("convention")
    if isinstance(value, str) and value.strip().lower() in _CONVENTIONS:
        return _CONVENTIONS[value.strip().lower()]
    fallback = default_convention(method)
    detail = "missing" if value is None else repr(value)
    issues.append(
        make_issue(
            "W_PARAM_CONV_UNKNOWN",
            Stage.PARSE,
            f"parameter {name!r}: passing convention {detail} unrecognized, defaulted to {fallback}",
            field=name,
        )
    )
    return fallback


def _parse_required(value: Any) -> bool | None:
    if value is _MISSING or value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        word = value.strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
    return None


def _as_type_string(value: Any) -> str | None:
    if value is None:
        return None
    if isinstance(value, str):
        return value
    return json.dumps(value)
