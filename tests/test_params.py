from __future__ import annotations

import json

from apibind.curl import HttpMethod
from apibind.params import Convention, Parameter, parse_parameter_table


def codes(issues):
    return [i.code for i in issues]


def test_alias_table():
    params, issues = parse_parameter_table('[{"name":"user-id","in":"path","required":"yes"}]')
    assert issues == ()
    assert params == (Parameter(name="user-id", convention=Convention.PATH, required=True),)


def test_too_deep_table_is_json_cell():
    params, issues = parse_parameter_table("[" * 3000 + "]" * 3000)
    assert params == ()
    assert codes(issues) == ["E_JSON_CELL"]


def test_missing_name_drops_entry_keeps_rest():
    params, issues = parse_parameter_table('[{"in":"query"},{"name":"ok","in":"query"}]')
    assert [p.name for p in params] == ["ok"]
    assert codes(issues) == ["E_PARAM_NO_NAME"]


def test_unknown_convention_defaults_with_warning():
    params, issues = parse_parameter_table('[{"name":"limit","in":"querystring"}]', HttpMethod.GET)
    assert params[0].convention is Convention.QUERY
    assert codes(issues) == ["W_PARAM_CONV_UNKNOWN"]


def test_default_convention_depends_on_method():
    for method, expected in (
        (HttpMethod.GET, Convention.QUERY),
        (HttpMethod.DELETE, Convention.QUERY),
        (HttpMethod.POST, Convention.BODY_JSON),
        (None, Convention.BODY_JSON),
    ):
        params, _ = parse_parameter_table('[{"name":"x"}]', method)
        assert params[0].convention is expected, method


def test_alias_spellings():
    raw = json.dumps(
        [
            {"Parameter": "a", "Location": "header", "Type": "string", "Mandatory": True,
             "Notes": "note text", "Example": "x"},
            # A type or description that is not a string is kept as its JSON text.
            {"name": "b", "in": "query", "type": {"enum": [1, 2]}, "description": ["see", 1]},
        ]
    )
    params, issues = parse_parameter_table(raw)
    assert issues == ()
    p = params[0]
    assert p.name == "a"
    assert p.convention is Convention.HEADER
    assert p.declared_type == "string"
    assert p.required is True
    assert p.description == "note text"
    assert p.example == "x" and p.has_example
    assert params[1] == Parameter(
        name="b", convention=Convention.QUERY, declared_type='{"enum": [1, 2]}', description='["see", 1]'
    )


def test_convention_spellings():
    table = {
        "path": Convention.PATH,
        "query": Convention.QUERY,
        "url": Convention.QUERY,
        "body": Convention.BODY_JSON,
        "json": Convention.BODY_JSON,
        "text": Convention.BODY_TEXT,
        "header": Convention.HEADER,
        "cookie": Convention.COOKIE,
    }
    for spelling, expected in table.items():
        params, issues = parse_parameter_table(json.dumps([{"name": "x", "in": spelling.upper()}]))
        assert params[0].convention is expected
        assert issues == ()


def test_required_spellings():
    for value, expected in (
        ("yes", True), ("TRUE", True), ("required", True), ("1", True),
        ("no", False), ("false", False), ("optional", False), ("0", False),
        (True, True), (False, False), ("maybe", None), (1, None), (0, None),
    ):
        params, _ = parse_parameter_table(json.dumps([{"name": "x", "in": "query", "required": value}]))
        assert params[0].required is expected, value


def test_required_absent_is_none():
    params, _ = parse_parameter_table('[{"name":"x","in":"query"}]')
    assert params[0].required is None


def test_null_example_is_still_an_example():
    params, _ = parse_parameter_table('[{"name":"x","in":"query","example":null}]')
    assert params[0].has_example
    assert params[0].example is None


def test_no_example_key():
    params, _ = parse_parameter_table('[{"name":"x","in":"query"}]')
    assert not params[0].has_example


def test_not_json_is_cell_error():
    params, issues = parse_parameter_table("not-json")
    assert params == ()
    assert codes(issues) == ["E_JSON_CELL"]


def test_non_array_is_cell_error():
    params, issues = parse_parameter_table('{"name":"x"}')
    assert params == ()
    assert codes(issues) == ["E_JSON_CELL"]


def test_non_object_entry_dropped():
    params, issues = parse_parameter_table('[42, {"name":"ok","in":"query"}]')
    assert [p.name for p in params] == ["ok"]
    assert codes(issues) == ["E_PARAM_NO_NAME"]
