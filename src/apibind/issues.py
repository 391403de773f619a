"""Issue tags attached to records as they flow through the pipeline.

Every data-quality finding is a tag on a record, never an exception: records
keep flowing and carry their full issue history. The catalog below is the
single source of truth for which codes exist; a code's prefix is its severity.
``Severity`` and ``Stage`` are ``StrEnum``s: a member is the text every output
writes, and ``Stage(text)`` refuses any other text.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class Severity(enum.StrEnum):
    ERROR = "Error"
    WARNING = "Warning"


class Stage(enum.StrEnum):
    INGEST = "Ingest"
    PARSE = "Parse"
    INFER = "Infer"
    VALIDATE = "Validate"
    GENERATE = "Generate"


#: code -> meaning. The prefix is the severity: E_* codes are errors and reject
#: a record at the generation gate; W_* codes are warnings and pass the default gate.
CATALOG: dict[str, str] = {
    "E_JSON_CELL": "CSV cell expected to hold JSON does not parse",
    "E_PATH_SYNTAX": "path template violates the template grammar",
    "E_CURL_TOKENIZE": "curl command line cannot be tokenized",
    "E_CURL_NO_URL": "curl command has no URL",
    "E_CURL_UNSUPPORTED": "curl command uses an unsupported feature (e.g. `-F`)",
    "E_PARAM_NO_NAME": "parameter table entry has no name",
    "E_PATHVAR_UNDECLARED": "path variable has no declared path parameter",
    "E_PARAM_PATH_UNUSED": "path parameter does not appear in the path template",
    "E_DUP_PARAM": "duplicate parameter name within one passing convention",
    "E_METHOD_MISMATCH": "curl example method differs from the declared method",
    "E_METHOD_UNKNOWN": "http_method cell is not a supported HTTP method",
    "W_CURL_OPT_IGNORED": "curl option not understood and skipped",
    "W_PARAM_CONV_UNKNOWN": "parameter passing convention defaulted",
    "W_PARAM_TYPE_DEFAULTED": "parameter type defaulted to string",
    "W_PARAM_TYPE_CONFLICT": "parameter example conflicts with declared type",
    "W_PARAM_TYPE_OPAQUE": "parameter declared as object with unknown fields",
    "W_NO_EXAMPLE": "no example available",
    "W_BODY_ON_GET": "request body present on a GET/HEAD call",
    "W_MERGE_CONFLICT": "conflicting field values; first record's kept",
    "W_PATH_SUSPECT": "path segment looks like an unrecognized variable syntax",
    "W_EMPTY_ARRAY": "array no example populates; tagged once, at its type path",
    "W_DECL_SHARED": "structurally identical type declarations were shared",
}

#: code -> severity, read from each code's prefix once, when the module loads.
_SEVERITY = {code: Severity.ERROR if code.startswith("E_") else Severity.WARNING for code in CATALOG}


class Issue(NamedTuple):
    """One error/warning tag. Severity is not stored: it is read from the code's prefix.

    A NamedTuple, not a dataclass: a run builds and compares one per finding.
    """

    code: str
    stage: Stage
    message: str
    field: str | None = None

    @property
    def severity(self) -> Severity:
        return severity_of(self.code)

    def to_json(self) -> dict:
        out = {
            "code": self.code,
            "severity": self.severity,
            "stage": self.stage,
            "message": self.message,
        }
        if self.field is not None:
            out["field"] = self.field
        return out

    @classmethod
    def from_json(cls, obj: dict) -> Issue:
        """Inverse of ``to_json``; a stored ``severity`` is ignored.

        Raises KeyError for a code outside the catalog, and TypeError for an
        entry that is not an object or whose message or field is not a string.
        """
        if not isinstance(obj, dict):
            raise TypeError("an issue entry is not an object")
        if not isinstance(obj["message"], str) or not isinstance(obj.get("field", ""), str):
            raise TypeError("an issue's message and field must be strings")
        return make_issue(obj["code"], Stage(obj["stage"]), obj["message"], obj.get("field"))


def make_issue(code: str, stage: Stage, message: str, field: str | None = None) -> Issue:
    """Build an Issue for a catalogued code.

    Raises KeyError for codes outside the catalog: emitting an uncatalogued
    issue is a programming error, not a data-quality finding.
    """
    if code not in CATALOG:
        raise KeyError(code)
    return Issue(code=code, stage=stage, message=message, field=field)


def severity_of(code: str) -> Severity:
    """The severity a catalogued code's prefix names; KeyError for a code outside the catalog."""
    return _SEVERITY[code]
