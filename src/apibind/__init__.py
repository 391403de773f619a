"""apibind: scraped cloud-API documentation CSVs in, typed binding packages out.

The pipeline is parse -> infer -> validate -> generate, with per-record
traceability throughout: records are never dropped, every finding is a tag,
and any stage can be materialized back to CSV for examination.
"""

from .codegen import (
    BindingFunction,
    BindingIr,
    IdentifierPolicy,
    apply_identifier_policy,
    build_reference,
    render_package,
)
from .curl import BodyKind, CurlRequest, HttpMethod, parse_curl, tokenize_shell
from .ingest import (
    CorpusError,
    load_corpus,
    merge_corpus,
    record_id_census,
    write_stage,
)
from .issues import CATALOG, Issue, Severity, Stage, make_issue
from .params import Convention, Parameter, parse_parameter_table
from .parse import parse_columns, parse_record
from .pathtemplate import PathTemplate, parse_path_template
from .records import ApiCallRecord, RecordId
from .templates import TemplateSet
from .typeinfer import (
    DeclRegistry,
    TypeDecl,
    inhabits,
    lift_declarations,
    parse_json,
    type_of_parameter,
    unify,
)
from .validate import cross_validate, dashboard, route

__version__ = "0.1.0"
