"""The record that flows through the pipeline, from raw cells to parser outputs.

A record is never dropped and never loses information: issues are
append-only through ``with_issues``, the one dedup rule of the pipeline,
and the parser outputs (``path``, ``curl``, ``params``) are set in the same
copy as the parse tags. A merge of two parsed records carries both rows'
issues. All types here are immutable; stages return new records.
``with_issues`` runs for every record in ingest, parse and validate, so its
copy reads the fields with one ``attrgetter`` call and passes them to
``__init__`` by position; ``dataclasses.replace`` cost twice as much per row.
Records have ``__slots__``, which keeps both the copy and the record small.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

from .curl import CurlRequest, HttpMethod
from .issues import Issue, Severity
from .params import Parameter
from .pathtemplate import PathTemplate

#: Separator for multiple id atoms in the record_id cell of stage files.
ID_SEPARATOR = "|"


@dataclass(frozen=True)
class RecordId:
    """Non-empty sequence of opaque id atoms, one run per row; a merge keeps repeats."""

    ids: tuple[str, ...]

    def __post_init__(self):
        if not self.ids:
            raise ValueError("RecordId must hold at least one id")

    @classmethod
    def single(cls, atom: str) -> RecordId:
        return cls(ids=(atom,))

    def __str__(self) -> str:
        return ID_SEPARATOR.join(self.ids)


@dataclass(frozen=True, slots=True)
class ApiCallRecord:
    # The stage row's cells, in column order (STAGE_FIELDS); a text cell is None when empty.
    id: RecordId
    source_url: str | None
    http_method: HttpMethod
    raw_path: str | None
    raw_curl: str | None = None
    raw_parameters: str | None = None
    request_example: str | None = None
    response_example: str | None = None
    description: str | None = None
    group: str | None = None
    issues: tuple[Issue, ...] = ()
    # Parser outputs: None until ``parse_record`` sets them, and None after
    # it where the raw cell is absent or did not parse.
    path: PathTemplate | None = None
    curl: CurlRequest | None = None
    params: tuple[Parameter, ...] | None = None

    def with_issues(self, *new_issues: Issue, **parsed) -> ApiCallRecord:
        """Append issues, and set the parser outputs named in ``parsed``, in one copy.

        An exact duplicate of an existing tag is skipped: skipping identical
        re-emissions keeps reruns over already-analyzed stage files
        idempotent without ever removing another stage's tags. Returns
        ``self`` when there is nothing to add or set; a name in ``parsed``
        outside ``PARSER_OUTPUTS`` is a ``TypeError``. The copy is a frozen
        record like ``self``.
        """
        if not PARSER_OUTPUTS.issuperset(parsed):
            unknown = ", ".join(sorted(parsed.keys() - PARSER_OUTPUTS))
            raise TypeError(f"with_issues() cannot set {unknown}; only {sorted(PARSER_OUTPUTS)}")
        added = tuple(issue for issue in new_issues if issue not in self.issues)
        if not added and not parsed:
            return self
        values = dict(zip(_FIELDS, _field_values(self)))
        values.update(parsed)  # replacing a key keeps its place: the values stay in field order
        values["issues"] = self.issues + added
        return ApiCallRecord(*values.values())

    def error_count(self) -> int:
        return sum(1 for issue in self.issues if issue.severity is Severity.ERROR)


#: A record's field names in ``__init__``'s order, and one call that reads their values.
_FIELDS = tuple(field.name for field in fields(ApiCallRecord))
_field_values = attrgetter(*_FIELDS)

#: The fields of a stage row, ``id`` through ``issues``, one per ``ingest.STAGE_COLUMNS`` column.
STAGE_FIELDS = _FIELDS[: _FIELDS.index("issues") + 1]

#: The fields ``with_issues`` may set besides ``issues``: the parser outputs.
PARSER_OUTPUTS = frozenset(_FIELDS[len(STAGE_FIELDS) :])
