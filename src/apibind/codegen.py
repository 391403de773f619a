"""From validated records to a rendered binding package.

Three steps, cleanly separated: ``build_reference`` folds valid records
into a language-independent inventory of call functions and type
declarations, lifting every example straight into one corpus-wide
declaration registry; ``apply_identifier_policy`` maps every raw name to a
legal target identifier, listing only changed names; ``render_package`` renders
the package's files to text from the ``BindingIr``, the name map and a
template set, one ``module.tpl`` render per module and then ``manifest.tpl``,
and hands each text to the caller's ``write`` sink as soon as it is rendered,
so the package is never held whole. The IR also carries the package's name
and corpus digest, from which its version follows. The identifier policy and
the templates hold the target language's names and layout, but not its type
expressions: ``typeinfer.format_type`` writes every type in one neutral
grammar (``[string]``, ``int | null``), whatever the target. Nothing in this
module touches the file system except ``IdentifierPolicy.from_json_file``;
where the rendered texts go is the sink's business.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import NamedTuple

from .ingest import stage_lines
from .issues import Issue, Stage, make_issue
from .params import Parameter
from .pathtemplate import PathTemplate
from .records import ApiCallRecord
from .templates import TemplateSet
from .text import IDENTIFIER, fresh_name, parse_json, wire_text
from .typeinfer import (
    DeclRegistry,
    InferredType,
    TObject,
    TypeDecl,
    T_ANY,
    fold_examples,
    format_type,
    lift_declarations,
    replay,
    type_of_parameter,
)
from .vocabulary import Convention, HttpMethod

_CONVENTION_RANK = {conv: i for i, conv in enumerate(Convention)}


class BindingFunction(NamedTuple):
    """One call function; its method, path, id and documentation live on ``record``.

    ``issues`` holds the build's findings about the record, in build order:
    W_MERGE_CONFLICT, the parameters' typing issues, per example (request,
    then response) W_EMPTY_ARRAY then W_DECL_SHARED, and W_NO_EXAMPLE.
    A NamedTuple, like the record it wraps: one is built per valid record.
    """

    raw_name: str
    params: tuple[tuple[Parameter, InferredType], ...]
    request_type: InferredType | None
    response_type: InferredType
    record: ApiCallRecord
    group: str  # the module that renders it
    issues: tuple[Issue, ...]


@dataclass(frozen=True)
class BindingIr:
    """The package's functions and declarations; build findings live on the functions."""

    functions: tuple[BindingFunction, ...]
    decls: tuple[TypeDecl, ...]
    package_name: str
    corpus_digest: str

    @property
    def version(self) -> str:
        """The corpus digest's prefix: reproducible without external state."""
        return self.corpus_digest[:12]

    @property
    def report(self) -> tuple[tuple[str, Issue], ...]:
        """Every build finding as a (record id, issue) pair, function by function."""
        return tuple((str(fn.record.id), issue) for fn in self.functions for issue in fn.issues)


def function_raw_name(method: HttpMethod, template: PathTemplate) -> str:
    """Deterministic raw name: lowercased method plus path words, '_'-joined.

    The path's words are ``split_words`` of its text, the words an identifier
    policy reads: punctuation ('/', '{', '}' among it) and camel-case bounds
    separate them, so ``/v1/siviLini7`` gives ``v1``, ``sivi``, ``lini7``, and
    a variable contributes its name's words.
    """
    return "_".join([method.lower(), *split_words(template.text)])


def ordered_params(params: tuple[Parameter, ...]) -> list[Parameter]:
    """Group by passing convention, preserving documentation order within each."""
    return sorted(params, key=lambda p: _CONVENTION_RANK[p.convention])


def corpus_digest(records: list[ApiCallRecord]) -> str:
    """SHA-256 hex digest of the bytes ``write_stage`` writes for ``records``.

    Each line of ``stage_lines`` goes straight into the hash, so the text is
    never held whole. The hash is the interpreter's built-in SHA-256
    (``_sha2`` on 3.12+, ``_sha256`` on 3.11), not ``hashlib``'s: ``hashlib``
    maps libcrypto, about 3.3 MB resident, for this one hash of at most about
    a megabyte, so no command maps it. ``hashlib`` is the fallback for an
    interpreter built without either module; the digest is the same.
    """
    # Imported here, not at the top: analyze and dashboard never hash.
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    digest = sha256()
    for line in stage_lines(records):
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def build_reference(
    valid_records: list[ApiCallRecord], package_name: str = "api"
) -> BindingIr:
    """Fold gate-passing records into the reference structure.

    One function per record; request/response types are inferred from the
    examples and lifted into declarations through one registry created here,
    so structurally identical bodies share one declaration across the whole
    corpus. Each function and each declaration carries the group whose
    module renders it.

    The build pays once per distinct example text and parameter table, not
    once per row. Each distinct example text is decoded, folded and lifted
    once: its lifted type, unpopulated arrays and declaration trail are kept,
    and each later row replays the trail (one W_DECL_SHARED per declaration,
    named from the row's own function, and a rehome when the row's group is
    less) instead of walking again. A parameter table is typed once per
    (table text, method), the key its parse is memoized under. Records must
    have been loaded, parsed and routed: a record without a parsed path, or
    with an example that is not standard JSON (parse tags those E_JSON_CELL
    and the gate rejects them), is a caller error here, not a data issue.
    """
    functions: list[BindingFunction] = []
    taken_fn: dict[str, int] = {}
    registry = DeclRegistry()
    # Example text -> (lifted type, unpopulated paths, declaration trail).
    lifts: dict[str, tuple[InferredType, list[str], list[tuple[str, TObject]]]] = {}
    # (parameter table, method) -> (typed signature in convention order, its issues).
    signatures: dict[tuple, tuple[tuple[tuple[Parameter, InferredType], ...], list[Issue]]] = {}

    for record in valid_records:
        template = record.path
        if template is None:
            raise ValueError(
                f"record {record.id} has no parsed path template; run parse and route first"
            )
        group = record.group or "misc"

        base = function_raw_name(record.http_method, template)
        raw_name = fresh_name(base, taken_fn)
        findings: list[Issue] = []
        if raw_name != base:
            message = f"function name {base!r} already taken; this record renders as {raw_name!r}"
            findings.append(make_issue("W_MERGE_CONFLICT", Stage.GENERATE, message))

        key = (record.raw_parameters, record.http_method)
        if key not in signatures:
            typed: list[tuple[Parameter, InferredType]] = []
            issues: list[Issue] = []
            for param in ordered_params(record.params or ()):
                param_type, param_issues = type_of_parameter(param)
                typed.append((param, param_type))
                issues.extend(param_issues)
            signatures[key] = (tuple(typed), issues)
        typed_params, param_issues = signatures[key]
        findings += param_issues

        words = tuple(raw_name.split("_"))
        types: dict[str, InferredType | None] = {}
        for column, kind in (("request_example", "Request"), ("response_example", "Response")):
            text = getattr(record, column)
            if text is None:
                types[column] = None
                continue
            kept = lifts.get(text)
            if kept is None:
                trail: list[tuple[str, TObject]] = []
                lifted, unpopulated, lift_issues = lift_declarations(
                    fold_examples([parse_json(text)]), (*words, kind), registry, group=group, trail=trail
                )
                lifts[text] = (lifted, unpopulated, trail)
            else:
                lifted, unpopulated, trail = kept
                lift_issues = replay(registry, trail, (*words, kind), group)
            for path in unpopulated:
                message = f"{column} has an empty array at {path}; element type unknown"
                findings.append(make_issue("W_EMPTY_ARRAY", Stage.INFER, message, field=column))
            findings += lift_issues
            types[column] = lifted

        response_type = types["response_example"]
        if response_type is None:
            message = "no response example; response type is unconstrained"
            findings.append(make_issue("W_NO_EXAMPLE", Stage.INFER, message, field="response_example"))
            response_type = T_ANY

        functions.append(
            BindingFunction(
                raw_name=raw_name,
                params=typed_params,
                request_type=types["request_example"],
                response_type=response_type,
                record=record,
                group=group,
                issues=tuple(findings),
            )
        )

    return BindingIr(
        functions=tuple(functions),
        decls=tuple(registry.by_body.values()),
        package_name=package_name,
        corpus_digest=corpus_digest(valid_records),
    )


# --- identifier policy ------------------------------------------------------

#: Each casing, and how it joins a name's lower-case words.
_JOINS = {
    "lower-camel": lambda words: words[0] + "".join(w.capitalize() for w in words[1:]),
    "upper-camel": lambda words: "".join(w.capitalize() for w in words),
    "snake": "_".join,
}
CASINGS = tuple(_JOINS)

_DEFAULT_RESERVED = frozenset(
    {"type", "class", "function", "return", "import", "if", "else", "for", "while", "package"}
)


@dataclass(frozen=True)
class IdentifierPolicy:
    """Target-language naming rules: casing, reserved words, collisions."""

    casing_function: str = "lower-camel"
    casing_type: str = "upper-camel"
    casing_field: str = "snake"
    reserved_words: frozenset[str] = _DEFAULT_RESERVED

    def __post_init__(self):
        for casing in (self.casing_function, self.casing_type, self.casing_field):
            if casing not in CASINGS:
                raise ValueError(f"unknown casing {casing!r}; expected one of {CASINGS}")

    @classmethod
    def from_json_file(cls, path: str | Path) -> IdentifierPolicy:
        """The policy a JSON file describes; every fault is a ``ValueError`` naming the file.

        The file is decoded by ``parse_json``, as every JSON cell is.
        """
        try:
            doc = parse_json(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"identifier policy {path}: not UTF-8 text: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"identifier policy {path}: not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"identifier policy {path} is not a JSON object")
        keys = [field.name for field in dataclass_fields(cls)]
        unknown = sorted(set(doc) - set(keys))
        if unknown:
            raise ValueError(
                f"identifier policy {path}: unknown key {unknown[0]!r}; expected {', '.join(keys)}"
            )
        reserved = doc.get("reserved_words", sorted(_DEFAULT_RESERVED))
        if not isinstance(reserved, list) or not all(isinstance(w, str) for w in reserved):
            raise ValueError(f"identifier policy {path}: reserved_words is not a list of strings")
        try:
            return cls(**{**doc, "reserved_words": frozenset(reserved)})
        except ValueError as exc:
            raise ValueError(f"identifier policy {path}: {exc}") from exc


#: One word: an acronym before a non-lowercase character, a capitalised
#: word, or a run of lowercase letters and digits. No alternative matches a
#: separator ('-', '.', '/', '_', whitespace), so words never span one.
_WORD = re.compile(r"[A-Z]+(?![a-z0-9])|[A-Z][a-z0-9]*|[a-z0-9]+")

_LEADING = re.compile(r"[A-Za-z_]")


def split_words(raw: str) -> list[str]:
    """Split a raw name on separators ('-', '.', '/', '_') and camel bounds."""
    return [w.lower() for w in _WORD.findall(raw)]


def _legal_name(words: list[str], casing: str, reserved: frozenset[str]) -> str:
    """``words`` cased, ``_``-led unless a letter leads, and ``_``-suffixed while reserved.

    Any ``fresh_name`` of the result is legal too: a suffix is ``_`` and digits.
    """
    name = _JOINS[casing](words or ["x"])
    if not _LEADING.match(name):
        name = "_" + name
    while name in reserved:
        name += "_"
    assert IDENTIFIER.match(name), name
    return name


def _identifier(raw: str, casing: str, reserved: frozenset[str], taken: dict[str, int]) -> str:
    """A fresh legal identifier for ``raw`` in the namespace ``taken``."""
    return fresh_name(_legal_name(split_words(raw), casing, reserved), taken)


def signature_wires(fn: BindingFunction) -> list[str]:
    """``fn``'s signature's wire names in order: its parameters', then ``body`` if it has one."""
    wires = [param.name for param, _ in fn.params]
    if fn.request_type is not None:
        wires.append("body")
    return wires


def apply_identifier_policy(ir: BindingIr, policy: IdentifierPolicy) -> dict:
    """The name map: every raw name of ``ir`` that the policy changes, mapped to its identifier.

    A name absent from the map maps to itself, so the map lists only renamed
    names. ``functions`` and ``types`` map raw names to identifiers, each in
    one corpus-wide namespace. ``fields`` maps a final type name to its
    renamed fields' wire -> identifier map, and ``params`` a function raw name
    to all of its signature's identifiers in ``signature_wires`` order, when
    one of them differs from its wire; each declaration and each function is a
    namespace of its own.

    A type's identifier joins its pieces' words; each distinct piece is split
    once per call. Fields and parameters share one casing cache, also scoped
    to this call: wire names repeat across declarations far more than they vary.
    """
    reserved = policy.reserved_words
    cased: dict[str, str] = {}  # wire name -> legal field identifier before suffixing

    def field_identifier(wire: str, taken: dict[str, int]) -> str:
        name = cased.get(wire)
        if name is None:
            name = cased[wire] = _legal_name(split_words(wire), policy.casing_field, reserved)
        return fresh_name(name, taken)

    piece_words: dict[str | None, list[str]] = {}
    type_taken: dict[str, int] = {}
    types = {}
    fields = {}
    for decl in ir.decls:
        words: list[str] = []
        for piece in decl.pieces:
            if piece not in piece_words:
                piece_words[piece] = split_words("Item" if piece is None else piece)
            words += piece_words[piece]
        type_name = fresh_name(_legal_name(words, policy.casing_type, reserved), type_taken)
        if type_name != decl.name:
            types[decl.name] = type_name
        taken: dict[str, int] = {}
        renamed = {
            wire: name
            for wire, _, _ in decl.body.fields
            if (name := field_identifier(wire, taken)) != wire
        }
        if renamed:
            fields[type_name] = renamed
    fn_taken: dict[str, int] = {}
    functions = {}
    params = {}
    for fn in ir.functions:
        name = _identifier(fn.raw_name, policy.casing_function, reserved, fn_taken)
        if name != fn.raw_name:
            functions[fn.raw_name] = name
        wires = signature_wires(fn)
        taken = {}
        identifiers = [field_identifier(wire, taken) for wire in wires]
        if identifiers != wires:
            params[fn.raw_name] = identifiers
    return {"functions": functions, "types": types, "fields": fields, "params": params}


# --- rendering --------------------------------------------------------------

#: Longest module identifier before its ``fresh_name`` suffix: a module is
#: written as ``<module>.txt`` and staged as ``.<module>.txt.<8 chars>.tmp``,
#: which must fit a 255-byte file name whatever the ``group`` cell holds.
_MODULE_NAME_MAX = 200


def render_package(
    ir: BindingIr, names: dict, templates: TemplateSet, write: Callable[[str, str], object]
) -> list[str]:
    """Render the package's files, handing each to ``write(file_name, text)``; returns their names.

    One ``.txt`` module per group, in sorted order, rendered once by
    ``module.tpl``: its ``types`` are the group's declarations in registry
    order, its ``functions`` the group's functions in input order. A module is
    named by its group's snake-case identifier, cut to ``_MODULE_NAME_MAX``
    characters and made fresh, never ``manifest``. ``manifest.txt`` comes
    last and lists the modules. ``names`` is ``apply_identifier_policy``'s map
    for ``ir``; a name absent from it renders as itself. Each text goes to
    ``write`` as soon as it is rendered, so the package is never held whole;
    the same inputs give the same calls.
    """
    base_ctx = {
        "package_name": ir.package_name,
        "package_version": ir.version,
        "corpus_digest": ir.corpus_digest,
    }

    group_fns: dict[str, list[BindingFunction]] = {}
    for fn in ir.functions:
        group_fns.setdefault(fn.group, []).append(fn)
    group_decls: dict[str, list[TypeDecl]] = {}
    for decl in ir.decls:
        group_decls.setdefault(decl.group, []).append(decl)

    module_reserved = frozenset({"manifest"})  # manifest.txt is not a module
    module_taken: dict[str, int] = {}
    file_names: list[str] = []
    for group in sorted(group_fns):
        legal = _legal_name(split_words(group), "snake", module_reserved)
        module_name = fresh_name(legal[:_MODULE_NAME_MAX], module_taken)
        file_name = f"{module_name}.txt"
        # Neither the context nor the text outlives this call to ``write``.
        write(file_name, templates.module.render({
            **base_ctx,
            "module_name": module_name,
            "types": [_type_ctx(decl, names) for decl in group_decls.get(group, ())],
            "functions": [_fn_ctx(fn, names) for fn in group_fns[group]],
        }))
        file_names.append(file_name)

    write("manifest.txt", templates.manifest.render({
        **base_ctx,
        "function_count": len(ir.functions),
        "type_count": len(ir.decls),
        "modules": [{"module_file": file_name} for file_name in file_names],
    }))
    file_names.append("manifest.txt")
    return file_names


def _type_ctx(decl: TypeDecl, names: dict) -> dict:
    type_name = names["types"].get(decl.name, decl.name)
    field_names = names["fields"].get(type_name, {})
    return {
        "type_name": type_name,
        "fields": [
            {
                "field_name": field_names.get(wire, wire),
                "optional_mark": "" if required else "?",
                "field_type": format_type(field_type, names["types"]),
                "wire_note": f"  (wire {wire_text(wire)})" if wire in field_names else "",
            }
            for wire, field_type, required in decl.body.fields
        ],
    }


#: Every line break ``str.splitlines`` knows: a doc comment must keep its lines.
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _fn_ctx(fn: BindingFunction, names: dict) -> dict:
    type_names = names["types"]
    param_names = names["params"].get(fn.raw_name, signature_wires(fn))
    types = [t for _, t in fn.params]
    if fn.request_type is not None:
        types.append(fn.request_type)
    signature = [
        {"param_name": name, "param_type": format_type(t, type_names)}
        for name, t in zip(param_names, types)
    ]
    for i, entry in enumerate(signature):
        entry["sep"] = ", " if i < len(signature) - 1 else ""

    param_lines = []
    for (param, _), name in zip(fn.params, param_names):
        required_mark = ""
        if param.required is True:
            required_mark = " required"
        elif param.required is False:
            required_mark = " optional"
        param_lines.append(
            {
                "param_name": name,
                "convention": param.convention,
                "required_mark": required_mark,
                "wire_note": f" (wire {wire_text(param.name)})" if name != param.name else "",
            }
        )

    record = fn.record
    summary = record.description or f"{record.http_method} {record.path.text}"
    return {
        "summary": _LINE_BREAK.sub(" ", summary),
        "doc_url": _LINE_BREAK.sub(" ", record.source_url or ""),
        "function_name": names["functions"].get(fn.raw_name, fn.raw_name),
        "signature_params": signature,
        "response_type": format_type(fn.response_type, type_names),
        "http_method": record.http_method,
        "path_template": record.path.text,
        "param_lines": param_lines,
    }
