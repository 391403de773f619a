"""The record that flows through the pipeline, from raw cells to parser outputs.

A record is never dropped and never loses information: issues are
append-only through ``with_issues``, the one dedup rule of the pipeline,
and the parser outputs (``path``, ``curl``, ``params``) are set in the same
copy as the parse tags. A merge of two parsed records carries both rows'
issues. All types here are immutable; stages return new records.
``ApiCallRecord`` is a ``typing.NamedTuple``, as are ``issues.Issue`` and
the three parse products (``PathTemplate``, ``CurlRequest``, ``Parameter``):
a record is built several times per row (``with_issues`` runs for every
record in ingest, parse and validate). A tuple is built, hashed and compared
in C and has no instance ``__dict__``, where a frozen dataclass sets each
field through ``object.__setattr__``, hashes and compares in Python, and
needs the ``dataclasses`` module, which no command but ``generate`` loads. So
``with_issues`` builds its copy as one tuple, not through namedtuple's
``_replace``, which fills a keyword dict and pops every field from it in
Python: a copy with one new tag takes about half the time. A
``RecordId`` is itself the tuple of its atoms: it equals and hashes as that
tuple, and its text is the atoms joined with ``ID_SEPARATOR``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .issues import Issue, Severity

if TYPE_CHECKING:  # annotations only: loading or re-reading records imports no parser
    from .curl import CurlRequest
    from .params import Parameter
    from .pathtemplate import PathTemplate
    from .vocabulary import HttpMethod

#: Separator for multiple id atoms in the record_id cell of stage files.
ID_SEPARATOR = "|"


class RecordId(tuple[str, ...]):
    """Non-empty tuple of opaque id atoms, one per row; a merge keeps repeats."""

    __slots__ = ()

    def __new__(cls, atoms: tuple[str, ...]) -> RecordId:
        if not atoms:
            raise ValueError("RecordId must hold at least one id")
        return super().__new__(cls, atoms)

    @classmethod
    def single(cls, atom: str) -> RecordId:
        return cls((atom,))

    def __str__(self) -> str:
        return ID_SEPARATOR.join(self)


class ApiCallRecord(NamedTuple):
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
        outside ``PARSER_OUTPUTS`` is a ``TypeError``.
        """
        if not PARSER_OUTPUTS.issuperset(parsed):
            unknown = ", ".join(sorted(parsed.keys() - PARSER_OUTPUTS))
            raise TypeError(f"with_issues() cannot set {unknown}; only {sorted(PARSER_OUTPUTS)}")
        issues = self.issues
        added = tuple(issue for issue in new_issues if issue not in issues) if issues else new_issues
        if not added and not parsed:
            return self
        return tuple.__new__(
            ApiCallRecord,
            (*self[:_ISSUES], issues + added, *map(parsed.get, _OUTPUTS, self[_ISSUES + 1 :])),
        )

    def error_count(self) -> int:
        return sum(1 for issue in self.issues if issue.severity is Severity.ERROR)


#: The fields of a stage row, ``id`` through ``issues``, one per ``ingest.STAGE_COLUMNS`` column.
STAGE_FIELDS = ApiCallRecord._fields[: ApiCallRecord._fields.index("issues") + 1]

#: The position of ``issues``, the last stage field; the parser outputs follow it.
_ISSUES = len(STAGE_FIELDS) - 1
_OUTPUTS = ApiCallRecord._fields[_ISSUES + 1 :]

#: The fields ``with_issues`` may set besides ``issues``: the parser outputs.
PARSER_OUTPUTS = frozenset(_OUTPUTS)
