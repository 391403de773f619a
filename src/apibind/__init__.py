"""apibind: scraped cloud-API documentation CSVs in, typed binding packages out.

The pipeline is parse -> infer -> validate -> generate, with per-record
traceability throughout: records are never dropped, every finding is a tag,
and any stage can be materialized back to CSV for examination.

Importing the package imports none of its modules. Each public name below
is imported from its module on first use (PEP 562), so a program that only
validates records never loads the code generator, and ``apibind.<module>``
reads import that module the same way.
"""

import sys

#: Each public name, by the module that defines it.
_HOMES = {
    "BindingFunction": "codegen",
    "BindingIr": "codegen",
    "IdentifierPolicy": "codegen",
    "apply_identifier_policy": "codegen",
    "build_reference": "codegen",
    "render_package": "codegen",
    "BodyKind": "vocabulary",
    "CurlRequest": "curl",
    "HttpMethod": "vocabulary",
    "parse_curl": "curl",
    "tokenize_shell": "curl",
    "CorpusError": "ingest",
    "load_corpus": "ingest",
    "merge_corpus": "ingest",
    "record_id_census": "ingest",
    "write_stage": "ingest",
    "CATALOG": "issues",
    "Issue": "issues",
    "Severity": "issues",
    "Stage": "issues",
    "make_issue": "issues",
    "Convention": "vocabulary",
    "Parameter": "params",
    "parse_parameter_table": "params",
    "parse_columns": "parse",
    "parse_record": "parse",
    "PathTemplate": "pathtemplate",
    "parse_path_template": "pathtemplate",
    "ApiCallRecord": "records",
    "RecordId": "records",
    "TemplateSet": "templates",
    "DeclRegistry": "typeinfer",
    "TypeDecl": "typeinfer",
    "inhabits": "typeinfer",
    "lift_declarations": "typeinfer",
    "parse_json": "text",
    "type_of_parameter": "typeinfer",
    "unify": "typeinfer",
    "cross_validate": "validate",
    "dashboard": "validate",
    "route": "validate",
}

#: The package's modules, which ``apibind.<module>`` imports on first read.
_MODULES = frozenset({*_HOMES.values(), "cli"})

__version__ = "0.1.0"

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = name if name in _MODULES else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__``, not ``importlib.import_module``: ``-X importtime`` lists only the former.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    if name == home:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
