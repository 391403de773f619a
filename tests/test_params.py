from __future__ import annotations

import csv
import json

import pytest

from apibind.cli import main
from apibind.curl import HttpMethod
from apibind.ingest import STAGE_COLUMNS
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


NON_STRING_NAMES = ["5", "[]", "{}", "true", '""']


@pytest.mark.parametrize("name", NON_STRING_NAMES)
def test_a_name_that_is_not_a_non_empty_string_drops_the_entry(name):
    table = f'[{{"name":{name},"in":"query"}},{{"name":"ok","in":"query"}}]'
    params, issues = parse_parameter_table(table)
    assert [p.name for p in params] == ["ok"]
    assert codes(issues) == ["E_PARAM_NO_NAME"]
    assert issues[0].message == "entry 0 has no name; entry dropped"


def test_unnamed_entries_reach_generate_as_rejects(tmp_path, capsys):
    """Each table with an unnamed entry rejects its row; the run ends normally."""
    corpus = tmp_path / "unnamed.csv"
    with corpus.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STAGE_COLUMNS[:-1])
        for index, name in enumerate([*NON_STRING_NAMES, '"ok"']):
            cells = {
                "record_id": f"r{index}",
                "http_method": "GET",
                "path": f"/v1/r{index}",
                "parameters": f'[{{"name":{name},"in":"query"}}]',
                "response_example": "{}",
            }
            writer.writerow([cells.get(column, "") for column in STAGE_COLUMNS[:-1]])
    out = tmp_path / "out"
    assert main(["generate", "--input", str(corpus), "--out-dir", str(out)]) == 0
    rejected = [
        line for line in capsys.readouterr().out.splitlines() if line.startswith("rejected ")
    ]
    assert rejected == [f"rejected r{index}: E_PARAM_NO_NAME" for index in range(5)]
    assert (out / "package" / "misc.txt").read_text(encoding="utf-8").count("function ") == 1


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
