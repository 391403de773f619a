from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import apibind.codegen
from apibind.codegen import (
    CASINGS,
    BindingFunction,
    IdentifierPolicy,
    _legal_name,
    apply_identifier_policy,
    build_reference,
    format_type,
    function_raw_name,
    ordered_params,
    render_package,
    split_words,
)
from apibind.curl import HttpMethod
from apibind.ingest import load_corpus
from apibind.issues import Stage, make_issue
from apibind.parse import parse_record
from apibind.pathtemplate import parse_path_template
from apibind.records import ApiCallRecord, RecordId
from apibind.templates import TemplateSet, NEUTRAL_TEMPLATES
from apibind.typeinfer import (
    IDENTIFIER,
    DeclRegistry,
    TArray,
    TObject,
    TRef,
    TUnion,
    T_ANY,
    T_INT,
    T_NULL,
    T_STRING,
    finalize,
    fold_examples,
    fresh_name,
    inhabits,
    lift_declarations,
    parse_json,
    type_of_parameter,
)
from apibind.validate import cross_validate, route

from .gen import gen_json_doc
from .universe import expand, identity_entries, resolve


def rendered(ir, names: dict, templates: TemplateSet) -> dict[str, str]:
    """``render_package``'s files, each file name mapped to its text, in write order."""
    files: dict[str, str] = {}
    assert render_package(ir, names, templates, files.__setitem__) == list(files)
    return files


def _cased(raw: str, casing: str) -> str:
    """``raw``'s words in ``casing``, as a legal identifier with no reserved words."""
    return _legal_name(split_words(raw), casing, frozenset())


def template_of(raw: str):
    template, issues = parse_path_template(raw)
    assert template is not None, issues
    return template


def valid_records(corpus12_path):
    records = [cross_validate(parse_record(r)) for r in load_corpus(corpus12_path)]
    valid, _ = route(records)
    return valid


def make_valid(atom: str, path: str = "/v1/ping", method=HttpMethod.GET, **kwargs):
    rec = ApiCallRecord(
        id=RecordId.single(atom),
        source_url=f"https://docs.example.com/{atom}",
        http_method=method,
        raw_path=path,
        **kwargs,
    )
    return cross_validate(parse_record(rec))


class TestRawNames:
    def test_simple(self):
        assert function_raw_name(HttpMethod.GET, template_of("/v1/ping")) == "get_v1_ping"

    def test_variables_and_dashes(self):
        raw = function_raw_name(HttpMethod.GET, template_of("/users/{user-id}/messages"))
        assert raw == "get_users_user_id_messages"

    def test_root(self):
        assert function_raw_name(HttpMethod.GET, template_of("/")) == "get"

    def test_camel_case_bounds_separate_words(self):
        # Lowercasing the path's alphanumeric runs once read "siviLini7" as one word.
        raw = function_raw_name(HttpMethod.DELETE, template_of("/v1/siviLini7/{userID}"))
        assert raw == "delete_v1_sivi_lini7_user_id"


class TestBuildReference:
    def test_ping_example(self):
        ir = build_reference([make_valid("p", response_example='{"ok":true}')])
        (fn,) = ir.functions
        assert fn.raw_name == "get_v1_ping"
        assert fn.response_type == TRef("GetV1PingResponse")
        (decl,) = ir.decls
        assert decl.name == "GetV1PingResponse"
        assert format_type(decl.body) == "{ok: bool}"

    def test_one_function_per_record(self, corpus12_path):
        valid = valid_records(corpus12_path)
        ir = build_reference(valid)
        assert len(ir.functions) == len(valid) == 10
        assert len({fn.raw_name for fn in ir.functions}) == 10

    def test_each_function_keeps_its_record_itself(self, corpus12_path):
        valid = valid_records(corpus12_path)
        ir = build_reference(valid)
        assert all(fn.record is record for fn, record in zip(ir.functions, valid, strict=True))

    def test_groups_from_column(self, corpus12_path):
        ir = build_reference(valid_records(corpus12_path))
        groups = {fn.raw_name: fn.group for fn in ir.functions}
        assert set(groups.values()) == {"users", "messages", "misc"}
        assert groups["get_v1_ping"] == "misc"

    def test_empty_valid_list(self):
        ir = build_reference([])
        assert ir.functions == () and ir.decls == ()

    def test_missing_response_example_is_any(self):
        ir = build_reference([make_valid("q")])
        (fn,) = ir.functions
        assert fn.response_type == T_ANY
        assert [i.code for _, i in ir.report] == ["W_NO_EXAMPLE"]

    def test_cross_record_structural_sharing(self, corpus12_path):
        ir = build_reference(valid_records(corpus12_path))
        names = [d.name for d in ir.decls]
        assert len(names) == len(set(names))
        shared = [issue for _, issue in ir.report if issue.code == "W_DECL_SHARED"]
        assert shared, "fixture corpus contains structurally equal types"
        # one address declaration serves every record that embeds an address
        address_decls = [n for n in names if "Address" in n]
        assert len(address_decls) == 1

    def test_duplicate_raw_names_suffixed(self):
        a = make_valid("a", response_example='{"ok":true}')
        b = make_valid("b")
        ir = build_reference([a, b])
        assert [fn.raw_name for fn in ir.functions] == ["get_v1_ping", "get_v1_ping_2"]
        assert any(issue.code == "W_MERGE_CONFLICT" for _, issue in ir.report)

    def test_params_ordered_by_convention(self):
        rec = make_valid(
            "o",
            path="/v1/things/{tid}",
            raw_parameters=json.dumps(
                [
                    {"name": "h", "in": "header"},
                    {"name": "q", "in": "query"},
                    {"name": "tid", "in": "path"},
                ]
            ),
        )
        ir = build_reference([rec])
        (fn,) = ir.functions
        assert [p.name for p, _ in fn.params] == ["tid", "q", "h"]

    def test_unparsed_record_is_callers_error(self):
        bare = ApiCallRecord(
            id=RecordId.single("x"),
            source_url="https://d/x",
            http_method=HttpMethod.GET,
            raw_path="/x",
        )
        with pytest.raises(ValueError):
            build_reference([bare])

    def test_version_is_digest_prefix(self, corpus12_path):
        ir = build_reference(valid_records(corpus12_path))
        assert ir.version == ir.corpus_digest[:12]
        again = build_reference(valid_records(corpus12_path))
        assert again.corpus_digest == ir.corpus_digest

    def test_structurally_equal_siblings_share(self):
        rec = make_valid("u", response_example='{"home":{"city":"a"},"work":{"city":"b"}}')
        ir = build_reference([rec])
        assert [d.name for d in ir.decls] == ["GetV1PingResponseHome", "GetV1PingResponse"]
        assert [i.code for _, i in ir.report] == ["W_DECL_SHARED"]
        home = TRef("GetV1PingResponseHome")
        assert ir.decls[-1].body == TObject((("home", home, True), ("work", home, True)))

    def test_shared_messages_name_published_declarations(self):
        a = make_valid("a", path="/v1/a", response_example='{"home":{"city":"a"}}')
        b = make_valid("b", path="/v1/b", response_example='{"x":{"city":"b"},"y":{"city":"c"}}')
        ir = build_reference([a, b])
        names = {d.name for d in ir.decls}
        kept = [shared_with(issue) for _, issue in ir.report if issue.code == "W_DECL_SHARED"]
        assert kept == ["GetV1AResponseHome", "GetV1AResponseHome"]
        assert set(kept) <= names

    def test_colliding_names_suffix_against_the_corpus(self):
        # /v1/a and /v/1/a both camel to GetV1A; fields "B" and "b" both path to ...B
        a = make_valid("a", path="/v1/a", response_example='{"b":{"x":1}}')
        b = make_valid("b", path="/v/1/a", response_example='{"B":{"y":1},"b":{"z":1}}')
        ir = build_reference([a, b])
        assert [d.name for d in ir.decls] == [
            "GetV1AResponseB",
            "GetV1AResponse",
            "GetV1AResponseB_2",
            "GetV1AResponseB_3",
            "GetV1AResponse_2",
        ]


    def test_array_populated_by_a_sibling_not_tagged(self):
        ir = build_reference([make_valid("a", response_example='{"a": [[], [1]]}')])
        assert ir.decls[0].body == TObject((("a", TArray(TArray(T_INT)), True),))
        assert [i.code for _, i in ir.report] == []

    def test_empty_array_tagged_once_per_type_position(self):
        rec = make_valid("i", response_example='{"items": [{"tags": []}, {"tags": []}]}')
        ir = build_reference([rec])
        tagged = [i.message for _, i in ir.report if i.code == "W_EMPTY_ARRAY"]
        assert tagged == [
            "response_example has an empty array at $.items[].tags; element type unknown"
        ]


def shared_with(issue) -> str:
    """The declaration a W_DECL_SHARED message says the type was shared with."""
    return re.search(r"identical to '([^']+)'", issue.message).group(1)


def refs_in(t) -> list[str]:
    if isinstance(t, TRef):
        return [t.name]
    if isinstance(t, TArray):
        return refs_in(t.elem)
    if isinstance(t, TObject):
        return [name for _, field_type, _ in t.fields for name in refs_in(field_type)]
    if isinstance(t, TUnion):
        return [name for branch in t.branches for name in refs_in(branch)]
    return []


def array_at(t, path: str):
    """The array branch of the type position a W_EMPTY_ARRAY path names."""
    steps = re.findall(r"\.[^.\[]+|\[\]", path[1:])
    assert path == "$" + "".join(steps), path
    for step in steps:
        if step == "[]":
            t = branch_of(t, TArray).elem
        else:
            (t,) = [ft for n, ft, _ in branch_of(t, TObject).fields if n == step[1:]]
    return branch_of(t, TArray)


def branch_of(t, kind):
    (found,) = [b for b in (t.branches if isinstance(t, TUnion) else (t,)) if isinstance(b, kind)]
    return found


#: Paths whose raw names collide (get_v1_a twice) or whose camel names do
#: (/v1/a, /v/1/a, and /v1/a2 against the suffixed duplicate get_v1_a_2).
_PROPERTY_PATHS = ("/v1/a", "/v/1/a", "/v1/a2", "/v1/b")
#: Field names whose path names collide within one tree: a/A, and aItem
#: against the array hop under a.
_PROPERTY_FIELDS = ("a", "A", "aItem", "b")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=6))
def test_build_reference_registry_properties(seeds):
    # Examples nest documents drawn from one small pool, so bodies repeat
    # both within a tree and across records.
    pool_rng = random.Random(seeds[0])
    pool = [gen_json_doc(pool_rng, 2, True, _PROPERTY_FIELDS) for _ in range(3)]

    def example(rng: random.Random):
        if rng.random() < 0.3:
            return gen_json_doc(rng, 3, True, _PROPERTY_FIELDS)
        return {name: rng.choice(pool) for name in _PROPERTY_FIELDS if rng.random() < 0.6}

    records = []
    for i, seed in enumerate(seeds):
        rng = random.Random(seed)
        examples = {
            column: json.dumps(example(rng))
            for column in ("request_example", "response_example")
            if rng.random() < 0.8
        }
        records.append(make_valid(f"r{i}", path=rng.choice(_PROPERTY_PATHS), **examples))
    ir = build_reference(records)

    names = [d.name for d in ir.decls]
    assert len(names) == len(set(names))
    assert len({d.body for d in ir.decls}) == len(ir.decls)
    for i, decl in enumerate(ir.decls):
        assert set(refs_in(decl.body)) <= set(names[:i]), decl.name
    for _, issue in ir.report:
        if issue.code == "W_DECL_SHARED":
            assert shared_with(issue) in names
    bodies = {d.name: d.body for d in ir.decls}
    for record, fn in zip(records, ir.functions):
        published = [fn.response_type, *(t for _, t in fn.params)]
        if fn.request_type is not None:
            published.append(fn.request_type)
        for t in published:
            assert set(refs_in(t)) <= set(names)
        for text, t in (
            (record.request_example, fn.request_type),
            (record.response_example, fn.response_type),
        ):
            if text is not None:
                doc = parse_json(text)
                assert inhabits(doc, expand(t, bodies)), (text, t)
                assert expand(t, bodies) == finalize(fold_examples([doc]))[0], (text, t)
    fn_by_record = {str(fn.record.id): fn for fn in ir.functions}
    for rid, issue in ir.report:
        if issue.code == "W_EMPTY_ARRAY":
            fn = fn_by_record[rid]
            t = fn.request_type if issue.field == "request_example" else fn.response_type
            path = re.search(r"empty array at (\S+);", issue.message).group(1)
            assert array_at(expand(t, bodies), path) == TArray(T_ANY), (rid, issue.message)


_PLACEMENT_GROUPS = ("beta", "alpha", "gamma", None)  # None renders in "misc"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=8))
def test_each_declaration_renders_once_in_the_first_module_reaching_it(seeds):
    # Examples nest documents drawn from one small pool, so one body is often
    # reached from several groups.
    pool_rng = random.Random(seeds[0])
    pool = [gen_json_doc(pool_rng, 2, names=("a", "b")) for _ in range(3)]
    records = []
    for i, seed in enumerate(seeds):
        rng = random.Random(seed)
        examples = {
            column: json.dumps({key: rng.choice(pool) for key in ("x", "y") if rng.random() < 0.7})
            for column in ("request_example", "response_example")
            if rng.random() < 0.8
        }
        group = rng.choice(_PLACEMENT_GROUPS)
        records.append(make_valid(f"r{i}", path=f"/v1/r{i}", group=group, **examples))
    ir = build_reference(records)
    names = apply_identifier_policy(ir, IdentifierPolicy())
    files = rendered(ir, names, TemplateSet.neutral())
    modules = {name.removesuffix(".txt"): text for name, text in files.items()}
    names = resolve(names, ir)

    bodies = {d.name: d.body for d in ir.decls}
    reached: dict[str, set[str]] = {}
    for fn, record in zip(ir.functions, records):
        todo = refs_in(fn.response_type)
        if fn.request_type is not None:
            todo += refs_in(fn.request_type)
        seen = reached.setdefault(record.group or "misc", set())
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += refs_in(bodies[name])
    for decl in ir.decls:
        home = min(group for group, names in reached.items() if decl.name in names)
        final = names["types"][decl.name]
        counts = {stem: text.count(f"type {final} = ") for stem, text in modules.items()}
        assert counts[home] == 1 and sum(counts.values()) == 1, (decl.name, home, counts)


#: Name fragments that mangle alike, hit reserved words, the body
#: parameter's name, leading digits, separators, and line breaks.
_HOSTILE_FRAGMENTS = (
    "type", "Type", "function", "package", "body", "Body", "id", "2fa", "-", ".",
    "\n", "\r\n", "\u2028", "a", "\nfunction evil() -> any",
)
_hostile_names = st.lists(st.sampled_from(_HOSTILE_FRAGMENTS), min_size=1, max_size=3).map("".join)
_hostile_records = st.tuples(
    st.sampled_from((HttpMethod.GET, HttpMethod.POST)),
    st.sampled_from(("/v1/a", "/v1/b")),
    st.sampled_from((None, "manifest", "Type", "a\nb")),
    st.lists(
        st.tuples(_hostile_names, st.sampled_from(("query", "header", "cookie"))),
        max_size=4,
        unique=True,  # the same name may repeat under another convention
    ),
    st.none() | st.lists(_hostile_names, max_size=4),
    st.none() | st.lists(_hostile_names, max_size=4),
)


def _example(keys):
    """An object example over ``keys``; the last one nests an object of the same keys."""
    if keys is None:
        return None
    doc = {key: 1 for key in keys}
    if keys:
        doc[keys[-1]] = {key: "s" for key in keys}
    return json.dumps(doc)


def rendered_names(module: str):
    """Field names per type and parameter names per function, from module lines.

    Every line must fit the neutral template's line grammar; field lines only
    inside a type block.
    """
    fields: dict[str, list[str]] = {}
    signatures: dict[str, list[str]] = {}
    param_lines: dict[str, list[str]] = {}
    block = fn = None
    for line in module.splitlines():
        if block is not None:
            if line == "}":
                block = None
            else:
                m = re.fullmatch(r"  (\w+)\??: \S+(  \(wire .+\))?", line)
                assert m, line
                fields[block].append(m.group(1))
        elif m := re.fullmatch(r"type (\w+) = \{", line):
            block = m.group(1)
            assert block not in fields, block
            fields[block] = []
        elif m := re.fullmatch(r"function (\w+)\((.*)\) -> \S+", line):
            fn = m.group(1)
            assert fn not in signatures, fn
            signatures[fn] = re.findall(r"(\w+): ", m.group(2))
            param_lines[fn] = []
        elif m := re.fullmatch(r"  param (\w+) via \w+( required| optional)?( \(wire .+\))?", line):
            param_lines[fn].append(m.group(1))
        else:
            assert line == "" or line.startswith(
                ("module ", "package ", "-- ", "  method ", "  path ")
            ), line
    assert block is None
    return fields, signatures, param_lines


@settings(max_examples=150, deadline=None)
@given(st.lists(_hostile_records, min_size=1, max_size=4))
def test_identifiers_are_distinct_legal_and_rendered_as_mapped(drawn):
    records = [
        make_valid(
            f"r{i}",
            path=path,
            method=method,
            group=group,
            raw_parameters=json.dumps([{"name": n, "in": conv} for n, conv in table]),
            request_example=_example(request_keys),
            response_example=_example(response_keys),
        )
        for i, (method, path, group, table, request_keys, response_keys) in enumerate(drawn)
    ]
    ir = build_reference(records)
    names = apply_identifier_policy(ir, IdentifierPolicy())
    files = rendered(ir, names, TemplateSet.neutral())
    modules = [text for name, text in files.items() if name != "manifest.txt"]
    names = resolve(names, ir)
    fields, signatures, param_lines = {}, {}, {}
    for module in modules:
        module_fields, module_signatures, module_params = rendered_names(module)
        assert not module_fields.keys() & fields.keys()
        assert not module_signatures.keys() & signatures.keys()
        fields.update(module_fields)
        signatures.update(module_signatures)
        param_lines.update(module_params)

    identifiers = [*names["functions"].values(), *names["types"].values()]
    for field_names in names["fields"].values():
        assert len(set(field_names.values())) == len(field_names), field_names
        identifiers += field_names.values()
    for param_names in names["params"].values():
        assert len(set(param_names)) == len(param_names), param_names
        identifiers += param_names
    for identifier in identifiers:
        assert IDENTIFIER.match(identifier), identifier

    assert fields == {name: list(wires.values()) for name, wires in names["fields"].items()}
    assert signatures.keys() == set(names["functions"].values())
    for fn in ir.functions:
        final = names["functions"][fn.raw_name]
        assert signatures[final] == names["params"][fn.raw_name], final
        assert param_lines[final] == names["params"][fn.raw_name][: len(fn.params)], final


def _chunked_split_words(raw: str) -> list[str]:
    """Reference split in two passes: cut on separators, then find words per chunk."""
    words: list[str] = []
    for chunk in re.split(r"[-._/\s]+", raw):
        if chunk:
            words.extend(
                m.group(0)
                for m in re.finditer(r"[A-Z]+(?![a-z0-9])|[A-Z][a-z0-9]*|[a-z0-9]+", chunk)
            )
    return [w.lower() for w in words]


#: ASCII letters and digits, the separators, ASCII and Unicode whitespace,
#: and letters outside ASCII (cased and uncased).
_NAME_CHARS = st.one_of(
    st.sampled_from("abcxyzABCXYZ0189-._/ \t\n\r\x0b\x0c"),
    st.characters(whitelist_categories=("Zs", "Zl", "Zp"), min_codepoint=0x80),
    st.sampled_from("\x1c\x1d\x1e\x1f\x85"),
    st.characters(whitelist_categories=("Lu", "Ll", "Lt", "Lo"), min_codepoint=0x80),
)


class TestIdentifierPolicy:
    def test_casing_examples(self):
        assert _cased("get_users_user_id", "lower-camel") == "getUsersUserId"
        assert _cased("get_users_user_id", "upper-camel") == "GetUsersUserId"
        assert _cased("GetUsersUserId", "snake") == "get_users_user_id"

    def test_split_words(self):
        assert split_words("GetV1PingResponseUser-id") == ["get", "v1", "ping", "response", "user", "id"]
        assert split_words("a.b/c_d") == ["a", "b", "c", "d"]
        assert split_words("getHTTPUrl") == ["get", "http", "url"]

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=_NAME_CHARS, max_size=40))
    @example("HTTPServer2Go")  # an acronym before a capital, a digit run after one
    @example("A0 b\u00a0C\u2028Dé-ÉX")  # word bounds at every kind of separator
    def test_split_words_matches_the_chunked_split(self, raw):
        assert split_words(raw) == _chunked_split_words(raw)

    def test_casing_cache_is_scoped_to_one_call(self):
        rec = make_valid(
            "c",
            path="/v1/{user-id}",
            raw_parameters=json.dumps(
                [{"name": "user-id", "in": "path"}, {"name": "pageSize", "in": "query"}]
            ),
            response_example='{"userId": 1, "display-name": "x"}',
        )
        ir = build_reference([rec])
        (decl,) = ir.decls
        (fn,) = ir.functions
        snake = resolve(apply_identifier_policy(ir, IdentifierPolicy(casing_field="snake")), ir)
        camel = resolve(apply_identifier_policy(ir, IdentifierPolicy(casing_field="lower-camel")), ir)
        type_name = snake["types"][decl.name]
        assert snake["fields"][type_name] == {"display-name": "display_name", "userId": "user_id"}
        assert snake["params"][fn.raw_name] == ["user_id", "page_size"]
        assert camel["fields"][type_name] == {"display-name": "displayName", "userId": "userId"}
        assert camel["params"][fn.raw_name] == ["userId", "pageSize"]

    def test_type_names_keep_their_function_words(self):
        # "AB" before "Response" once read as one acronym word, so the three
        # types were split three ways: GetAbResponse, get_a_b2_response.
        records = [
            make_valid(f"r{i}", path=path, response_example=json.dumps({key: 1}))
            for i, (path, key) in enumerate((("/a/b", "x"), ("/a-b", "y"), ("/a//b", "z")))
        ]
        ir = build_reference(records)
        default = resolve(apply_identifier_policy(ir, IdentifierPolicy()), ir)
        assert list(default["functions"].values()) == ["getAB", "getAB2", "getAB3"]
        assert list(default["types"].values()) == [
            "GetABResponse",
            "GetAB2Response",
            "GetAB3Response",
        ]
        snake = resolve(apply_identifier_policy(ir, IdentifierPolicy(casing_type="snake")), ir)
        assert list(snake["types"].values()) == [
            "get_a_b_response",
            "get_a_b_2_response",
            "get_a_b_3_response",
        ]

    def test_function_and_type_names_keep_camel_path_words(self):
        # One type name once cased its two kinds of word differently:
        # DeleteV1Sivilini7ResponseButereBikafo.
        rec = make_valid(
            "d",
            path="/v1/siviLini7",
            method=HttpMethod.DELETE,
            response_example='{"butereBikafo": {"a": 1}}',
        )
        ir = build_reference([rec])
        names = resolve(apply_identifier_policy(ir, IdentifierPolicy()), ir)
        assert list(names["functions"].values()) == ["deleteV1SiviLini7"]
        assert list(names["types"].values()) == [
            "DeleteV1SiviLini7ResponseButereBikafo",
            "DeleteV1SiviLini7Response",
        ]

    def test_each_piece_is_split_once_per_call(self, monkeypatch):
        calls = []

        def counted(raw):
            calls.append(raw)
            return split_words(raw)

        monkeypatch.setattr(apibind.codegen, "split_words", counted)
        # "user" is a hop of every response's nested declaration, and "tags"
        # with its array hop of every other one.
        records = [
            make_valid(
                f"r{i}",
                path=f"/v1/r{i}",
                response_example=json.dumps({"user": {"id": i}, "tags": [{"k": i}] * (i % 2)}),
            )
            for i in range(6)
        ]
        ir = build_reference(records)
        assert calls == [record.path.text for record in records]  # each function's path words
        pieces = {"Item" if p is None else p for decl in ir.decls for p in decl.pieces}
        wires = {wire for decl in ir.decls for wire, _, _ in decl.body.fields}
        raw_names = [fn.raw_name for fn in ir.functions]
        for _ in range(2):  # the caches are scoped to one call
            calls.clear()
            apply_identifier_policy(ir, IdentifierPolicy())
            assert sorted(calls) == sorted([*pieces, *wires, *raw_names])
            assert not {decl.name for decl in ir.decls} & set(calls)

    def test_reserved_word_suffixed(self):
        ir = build_reference([make_valid("r", path="/type")])
        names = apply_identifier_policy(
            ir, IdentifierPolicy(casing_function="snake", reserved_words=frozenset({"get_type"}))
        )
        assert names["functions"]["get_type"] == "get_type_"

    def test_collision_suffixed_first_seen(self):
        # raws differing only in '-' vs '_' mangle identically; the second
        # one seen takes the numeric suffix
        from apibind.codegen import BindingIr

        a = make_valid("a", path="/x")
        ir = build_reference([a])
        (fn,) = ir.functions
        doctored = BindingIr(
            functions=(fn._replace(raw_name="get_user-id"), fn._replace(raw_name="get_user_id")),
            decls=ir.decls,
            package_name=ir.package_name,
            corpus_digest=ir.corpus_digest,
        )
        names = apply_identifier_policy(doctored, IdentifierPolicy())
        assert list(names["functions"].values()) == ["getUserId", "getUserId_2"]

    def test_identifier_grammar(self):
        assert _cased("2fa_enable", "lower-camel") == "_2faEnable"
        assert _cased("2fa", "upper-camel") == "_2fa"
        ir = build_reference([make_valid("n", path="/2fa/enable")])
        names = apply_identifier_policy(ir, IdentifierPolicy(casing_function="lower-camel"))
        assert names["functions"]["get_2fa_enable"] == "get2faEnable"

    def test_policy_from_json(self, tmp_path):
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(
            json.dumps(
                {
                    "casing_function": "snake",
                    "casing_type": "upper-camel",
                    "casing_field": "lower-camel",
                    "reserved_words": ["def"],
                }
            ),
            encoding="utf-8",
        )
        policy = IdentifierPolicy.from_json_file(policy_file)
        assert policy.casing_function == "snake"
        assert "def" in policy.reserved_words

    def test_unknown_casing_rejected(self):
        with pytest.raises(ValueError):
            IdentifierPolicy(casing_function="kebab")

    def test_name_maps_recorded(self, corpus12_path):
        ir = build_reference(valid_records(corpus12_path))
        names = resolve(apply_identifier_policy(ir, IdentifierPolicy()), ir)
        assert names["functions"]["get_v1_ping"] == "getV1Ping"
        assert all(raw in names["types"] for raw in (d.name for d in ir.decls))

    def test_name_map_lists_only_renamed_names(self, corpus12_path, data_dir):
        ir = build_reference(valid_records(corpus12_path))
        default = apply_identifier_policy(ir, IdentifierPolicy())
        snake = apply_identifier_policy(
            ir, IdentifierPolicy.from_json_file(data_dir / "snake_policy.json")
        )
        assert not identity_entries(default, ir) and not identity_entries(snake, ir)
        assert default["functions"]
        assert snake["functions"] == {}  # a raw function name is already snake case


class TestFormatType:
    def test_expressions(self):
        assert format_type(TArray(T_INT)) == "[int]"
        assert format_type(TUnion((T_NULL, T_STRING))) == "null | string"
        assert format_type(TArray(TUnion((T_INT, T_STRING)))) == "[int | string]"
        assert format_type(T_ANY) == "any"

    def test_refs_use_final_names(self):
        assert format_type(TRef("RawName"), {"RawName": "Final"}) == "Final"


class TestRenderPackage:
    def test_single_function_package(self):
        ir = build_reference([make_valid("p", response_example='{"ok":true}')])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        files = rendered(ir, names, TemplateSet.neutral())
        assert list(files) == ["misc.txt", "manifest.txt"]
        module = files["misc.txt"]
        assert "https://docs.example.com/p" in module
        assert "function getV1Ping() -> GetV1PingResponse" in module
        assert "type GetV1PingResponse = {" in module

    def test_deterministic(self, corpus12_path):
        ir = build_reference(valid_records(corpus12_path))
        names = apply_identifier_policy(ir, IdentifierPolicy())
        first = rendered(ir, names, TemplateSet.neutral())
        second = rendered(ir, names, TemplateSet.neutral())
        assert list(first.items()) == list(second.items())

    def test_unknown_placeholder_names_template(self):
        sources = dict(NEUTRAL_TEMPLATES)
        sources["module.tpl"] = "{{#functions}}function {{not_a_thing}}\n{{/functions}}"
        broken = TemplateSet.from_sources(sources)
        ir = build_reference([make_valid("p")])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        with pytest.raises(Exception) as exc:
            rendered(ir, names, broken)
        assert "module.tpl" in str(exc.value)
        assert "not_a_thing" in str(exc.value)

    def test_module_template_walks_its_functions_twice(self):
        """A module template may list a module's functions, then render them:
        both passes see the functions in input order."""
        records = [
            make_valid("z", path="/v1/zeta", response_example='{"ok":true}'),
            make_valid("a", path="/v1/alpha"),
            make_valid("m", path="/v1/mid", method=HttpMethod.POST),
        ]
        sources = dict(NEUTRAL_TEMPLATES)
        sources["module.tpl"] = (
            "# {{module_name}}\n"
            "__all__ = [{{#functions}}{{function_name}}, {{/functions}}]\n"
            "{{#types}}class {{type_name}}\n{{/types}}"
            "{{#functions}}def {{function_name}}() -> {{response_type}}:  # {{summary}}\n{{/functions}}"
        )
        ir = build_reference(records)
        names = apply_identifier_policy(ir, IdentifierPolicy())
        files = rendered(ir, names, TemplateSet.from_sources(sources))
        assert files["misc.txt"] == (
            "# misc\n"
            "__all__ = [getV1Zeta, getV1Alpha, postV1Mid, ]\n"
            "class GetV1ZetaResponse\n"
            "def getV1Zeta() -> GetV1ZetaResponse:  # GET /v1/zeta\n"
            "def getV1Alpha() -> any:  # GET /v1/alpha\n"
            "def postV1Mid() -> any:  # POST /v1/mid\n"
        )

    def test_empty_ir_renders_manifest_only(self):
        ir = build_reference([])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        files = rendered(ir, names, TemplateSet.neutral())
        assert list(files) == ["manifest.txt"]
        manifest = files["manifest.txt"]
        assert "functions 0" in manifest

    def test_group_named_manifest_keeps_its_functions(self):
        records = [
            make_valid("m", path="/v1/m", group="manifest", response_example='{"ok":true}'),
            make_valid("u", path="/v1/u", group="users"),
        ]
        ir = build_reference(records)
        names = apply_identifier_policy(ir, IdentifierPolicy())
        files = rendered(ir, names, TemplateSet.neutral())
        assert list(files) == ["manifest_.txt", "users.txt", "manifest.txt"]
        modules = files["manifest_.txt"] + files["users.txt"]
        for name in names["functions"].values():
            assert f"function {name}(" in modules, name
        assert "manifest_.txt" in files["manifest.txt"]

    def test_a_long_group_names_a_module_of_at_most_200_characters(self):
        """Groups that share their first 200 characters take ``_2``, ``_3``, ..."""
        groups = ["g" * 300, "g" * 250, "g" * 200 + "h", "g" * 199]
        records = [
            make_valid(f"r{i}", path=f"/v1/p{i}", group=group) for i, group in enumerate(groups)
        ]
        ir = build_reference(records)
        names = apply_identifier_policy(ir, IdentifierPolicy())
        files = rendered(ir, names, TemplateSet.neutral())
        assert list(files) == [
            f"{'g' * 199}.txt",
            f"{'g' * 200}.txt",
            f"{'g' * 200}_2.txt",
            f"{'g' * 200}_3.txt",
            "manifest.txt",
        ]

    def test_line_breaks_stay_inside_the_doc_comment(self):
        rec = make_valid("d", description="List things.\nfunction evil() -> any")
        rec = rec._replace(source_url="https://d/x\r\nfunction url() -> any")
        ir = build_reference([rec])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        lines = rendered(ir, names, TemplateSet.neutral())["misc.txt"].splitlines()
        assert [line for line in lines if line.startswith("function ")] == [
            "function getV1Ping() -> any"
        ]
        assert "-- List things. function evil() -> any" in lines
        assert "-- docs: https://d/x function url() -> any" in lines

    def test_wire_names_with_line_breaks_stay_on_their_line(self):
        table = [
            {"name": "q\nfunction p() -> any", "in": "query"},
            {"name": "o", "in": "query", "example": {"k\u2028function obj() -> any": 1}},
        ]
        response = {"a\nfunction evil() -> any": 1, "plain-name": 2}
        rec = make_valid("w", raw_parameters=json.dumps(table), response_example=json.dumps(response))
        ir = build_reference([rec])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        lines = rendered(ir, names, TemplateSet.neutral())["misc.txt"].splitlines()
        assert [line for line in lines if line.startswith("function ")] == [
            'function getV1Ping(q_function_p_any: string, o: {"k\\u2028function obj() -> any": int})'
            " -> GetV1PingResponse"
        ]
        assert '  a_function_evil_any: int  (wire "a\\nfunction evil() -> any")' in lines
        assert "  plain_name: int  (wire plain-name)" in lines
        assert '  param q_function_p_any via Query (wire "q\\nfunction p() -> any")' in lines
        note = next(line for line in lines if line.startswith("  a_function_evil_any"))
        assert json.loads(note[note.index('"') : -1]) == "a\nfunction evil() -> any"

    def test_an_empty_wire_name_is_quoted(self):
        # Written bare, the empty name would leave "(wire )" and "{: int}".
        table = [{"name": "o", "in": "query", "example": {"": 1}}]
        rec = make_valid("e", raw_parameters=json.dumps(table), response_example='{"": 1, "a": 2}')
        ir = build_reference([rec])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        lines = rendered(ir, names, TemplateSet.neutral())["misc.txt"].splitlines()
        assert 'function getV1Ping(o: {"": int}) -> GetV1PingResponse' in lines
        assert '  x: int  (wire "")' in lines
        assert "  a: int" in lines

    def test_inline_object_keys_that_are_not_identifiers_are_quoted(self):
        # Written bare, the one key "a: int, b" would read as the two fields of /v1/two.
        def row(atom, example):
            table = [{"name": "f", "in": "query", "example": example}]
            return make_valid(atom, path=f"/v1/{atom}", raw_parameters=json.dumps(table))

        ir = build_reference([row("one", {"a: int, b": "x", "café": 1}), row("two", {"a": 1, "b": "x"})])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        lines = rendered(ir, names, TemplateSet.neutral())["misc.txt"].splitlines()
        assert 'function getV1One(f: {"a: int, b": string, "caf\\u00e9": int}) -> any' in lines
        assert "function getV1Two(f: {a: int, b: string}) -> any" in lines

    def test_optional_and_empty_object_params(self):
        table = [
            {"name": "limit", "in": "query", "type": "integer", "required": False},
            {"name": "filter", "in": "query", "example": {}},
        ]
        rec = make_valid(
            "x", path="/v1/x", raw_parameters=json.dumps(table), response_example='{"ok":true}'
        )
        ir = build_reference([rec])
        names = apply_identifier_policy(ir, IdentifierPolicy())
        lines = rendered(ir, names, TemplateSet.neutral())["misc.txt"].splitlines()
        assert "function getV1X(limit: int, filter: {}) -> GetV1XResponse" in lines
        assert "  param limit via Query optional" in lines

    def test_shared_decl_emitted_once(self, corpus12_path):
        ir = build_reference(valid_records(corpus12_path))
        names = apply_identifier_policy(ir, IdentifierPolicy())
        text = "".join(rendered(ir, names, TemplateSet.neutral()).values())
        for name in names["types"].values():
            assert text.count(f"type {name} = ") == 1


#: Path segments and wire names whose words a split of the concatenated type
#: name would read otherwise: single letters and digit-led words beside
#: others, capitals, separators, and the empty name; and camel-case path
#: segments, whose bounds the function's own words must keep.
_NAME_SEGMENTS = st.sampled_from(
    ("a", "b", "B", "v1", "2", "2fa", "{id}", "x-y", "", "a.b", "siviLini7", "aB", "{userID}")
)
_NAME_FIELDS = st.sampled_from(("a", "b", "B", "ID", "2", "x-y", "", "item", "aItem"))
_NAME_DOCS = st.recursive(
    st.integers(0, 1),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(_NAME_FIELDS, inner, max_size=3),
    max_leaves=5,
)
_NAME_PATHS = st.lists(_NAME_SEGMENTS, min_size=1, max_size=3).map(lambda p: "/" + "/".join(p))
_NAME_OBJECTS = st.dictionaries(_NAME_FIELDS, _NAME_DOCS, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(_NAME_PATHS, st.none() | _NAME_OBJECTS, _NAME_OBJECTS), min_size=1, max_size=4
    ),
    st.sampled_from(CASINGS),
)
def test_type_identifiers_begin_with_their_function_words(rows, casing):
    """Every declaration's identifier begins with the words of the function
    that first reached it, cased in the type casing; a function's words are
    its method's and its path's, camel-case bounds included."""
    records = [
        make_valid(
            f"r{i}",
            path=path,
            request_example=None if request is None else json.dumps(request),
            response_example=json.dumps(response),
        )
        for i, (path, request, response) in enumerate(rows)
    ]
    ir = build_reference(route(records)[0])
    names = resolve(apply_identifier_policy(ir, IdentifierPolicy(casing_type=casing)), ir)
    bodies = {decl.name: decl.body for decl in ir.decls}
    creator = {}
    for fn in ir.functions:
        reached = refs_in(fn.response_type) + refs_in(fn.request_type)
        while reached:
            name = reached.pop()
            if name not in creator:
                creator[name] = fn
                reached.extend(refs_in(bodies[name]))
    assert creator.keys() == bodies.keys()
    for raw, fn in creator.items():
        prefix = _cased(fn.raw_name, casing)
        assert names["types"][raw].startswith(prefix), (fn.raw_name, raw, names["types"][raw])
        words = [fn.record.http_method.value, *split_words(fn.record.path.text)]
        assert prefix.startswith(_cased("_".join(words), casing)), (fn.raw_name, words)


def build_without_memos(records):
    """``build_reference``'s functions, declarations and report, every row typed afresh.

    Each example is decoded, folded and lifted straight into one registry, and
    each parameter typed on its own, however often its text or table recurs.
    Each function carries the findings its row added to the report.
    """
    registry = DeclRegistry()
    taken: dict[str, int] = {}
    functions, report = [], []
    for record in records:
        rid, group, first = str(record.id), record.group or "misc", len(report)
        base = function_raw_name(record.http_method, record.path)
        raw_name = fresh_name(base, taken)
        if raw_name != base:
            message = f"function name {base!r} already taken; this record renders as {raw_name!r}"
            report.append((rid, make_issue("W_MERGE_CONFLICT", Stage.GENERATE, message)))
        params = []
        for param in ordered_params(record.params or ()):
            param_type, issues = type_of_parameter(param)
            params.append((param, param_type))
            report.extend((rid, issue) for issue in issues)
        types = {}
        for column, suffix in (("request_example", "Request"), ("response_example", "Response")):
            text = getattr(record, column)
            if text is None:
                types[column] = None
                continue
            raw = fold_examples([parse_json(text)])
            types[column], unpopulated, issues = lift_declarations(
                raw, (*raw_name.split("_"), suffix), registry, group=group
            )
            for path in unpopulated:
                message = f"{column} has an empty array at {path}; element type unknown"
                issue = make_issue("W_EMPTY_ARRAY", Stage.INFER, message, field=column)
                report.append((rid, issue))
            report.extend((rid, issue) for issue in issues)
        response_type = types["response_example"]
        if response_type is None:
            message = "no response example; response type is unconstrained"
            issue = make_issue("W_NO_EXAMPLE", Stage.INFER, message, field="response_example")
            report.append((rid, issue))
            response_type = T_ANY
        issues = tuple(issue for _, issue in report[first:])
        functions.append(
            BindingFunction(
                raw_name, tuple(params), types["request_example"], response_type, record, group,
                issues,
            )
        )
    return functions, list(registry.by_body.values()), report


_memo_docs = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(("s", "")),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(_PROPERTY_FIELDS), inner, max_size=3),
    max_leaves=6,
)
_memo_params = st.fixed_dictionaries(
    {"name": st.sampled_from(("id", "q", "body"))},
    optional={
        "in": st.sampled_from(("path", "query", "header", "body", "nowhere")),
        "type": st.sampled_from(("string", "integer", "object", "array")),
        "example": _memo_docs,
    },
)
#: (path, method, group, request, response, table): the last three index
#: into pools of example texts and parameter tables, or are None.
_memo_rows = st.tuples(
    st.sampled_from(_PROPERTY_PATHS),
    st.sampled_from((HttpMethod.GET, HttpMethod.POST)),
    st.sampled_from(("b", "a", "c", None)),
    st.none() | st.integers(0, 2),
    st.none() | st.integers(0, 2),
    st.none() | st.integers(0, 1),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_memo_docs.map(json.dumps), min_size=3, max_size=3),
    st.lists(st.lists(_memo_params, max_size=3).map(json.dumps), min_size=2, max_size=2),
    st.lists(_memo_rows, min_size=1, max_size=10),
)
@example(
    # One nested text four times, its group falling after it first rises.
    ['{"a": {"b": [{"a": 1}]}, "A": []}', '{"a": 1}', "[]"],
    ['[{"name": "id", "type": "object", "example": {"a": 1}}]', '[{"name": "q"}]'],
    [
        ("/v1/a", HttpMethod.GET, "b", 0, 0, 0),
        ("/v1/b", HttpMethod.POST, "c", 1, 0, 0),
        ("/v1/a", HttpMethod.GET, "a", None, 0, 1),
        ("/v/1/a", HttpMethod.POST, None, 0, 2, 0),
    ],
)
def test_build_reference_equals_a_build_without_memos(texts, tables, rows):
    records = [
        make_valid(
            f"r{i}",
            path=path,
            method=method,
            group=group,
            request_example=None if request is None else texts[request],
            response_example=None if response is None else texts[response],
            raw_parameters=None if table is None else tables[table],
        )
        for i, (path, method, group, request, response, table) in enumerate(rows)
    ]
    ir = build_reference(records)
    functions, decls, report = build_without_memos(records)
    assert list(ir.functions) == functions
    assert [(d.name, d.group) for d in ir.decls] == [(d.name, d.group) for d in decls]
    assert list(ir.decls) == decls
    assert list(ir.report) == report


def test_build_lifts_each_text_once_and_types_each_table_once(monkeypatch):
    counts = {"lift": 0, "param": 0}

    def counted(key, function):
        def call(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(apibind.codegen, "lift_declarations", counted("lift", lift_declarations))
    monkeypatch.setattr(apibind.codegen, "type_of_parameter", counted("param", type_of_parameter))
    texts = ['{"a": {"b": 1}}', '{"a": []}', '{"b": [{"a": 1}]}', '{"c": {"b": 1}}']
    tables = [json.dumps([{"name": "id"}, {"name": "q", "in": "query"}]), '[{"name": "x"}]']
    records = [
        make_valid(
            f"r{i}",
            path=f"/v1/r{i}",
            method=(HttpMethod.GET, HttpMethod.POST)[i % 2],
            group=("b", "a")[i % 2],
            request_example=texts[0] if i % 3 == 0 else None,
            response_example=texts[0 if i < 10 else 1 if i < 12 else 2 if i < 19 else 3],
            raw_parameters=tables[0] if i % 2 == 0 or i % 5 == 0 else tables[1],
        )
        for i in range(20)
    ]
    ir = build_reference(records)
    # Three texts recur (17, 2 and 7 times) and one occurs once: one lift each.
    assert counts["lift"] == 4
    # (tables[0], GET), (tables[0], POST) and (tables[1], POST): 2 + 2 + 1 parameters.
    assert counts["param"] == 5
    assert build_without_memos(records) == (list(ir.functions), list(ir.decls), list(ir.report))
