from __future__ import annotations

from apibind.curl import HttpMethod
from apibind.issues import Stage
from apibind.parse import parse_record
from apibind.records import ApiCallRecord, RecordId


def record(**kwargs) -> ApiCallRecord:
    defaults = dict(
        id=RecordId.single("t1"),
        source_url="https://docs.example.com/x",
        http_method=HttpMethod.GET,
        raw_path="/v1/things",
    )
    defaults.update(kwargs)
    return ApiCallRecord(**defaults)


def codes(rec):
    return sorted(i.code for i in rec.issues)


def test_path_only_record():
    out = parse_record(record())
    assert out.path is not None
    assert out.curl is None
    assert out.params is None
    assert codes(out) == []  # absence of examples is judged after merge, by cross_validate


def test_curl_failure_leaves_other_parsers_alone():
    out = parse_record(
        record(
            raw_curl="curl 'https://h/unterminated",
            raw_parameters='[{"name":"a","in":"query"}]',
        )
    )
    assert out.curl is None
    assert out.path is not None
    assert out.params is not None and out.params[0].name == "a"
    assert "E_CURL_TOKENIZE" in codes(out)


def test_fully_populated_record_no_new_issues():
    out = parse_record(
        record(
            raw_path="/v1/users/{user-id}",
            raw_curl="curl https://api.example.com/v1/users/u1",
            raw_parameters='[{"name":"user-id","in":"path","required":"yes"}]',
            request_example='{"a":1}',
            response_example='{"ok":true}',
        )
    )
    assert out.path is not None
    assert out.curl is not None
    assert out.params is not None
    assert out.issues == ()


def test_bad_json_cell_tagged_not_skipped():
    for column, attribute in (
        ("parameters", "raw_parameters"),
        ("request_example", "request_example"),
        ("response_example", "response_example"),
    ):
        out = parse_record(record(**{attribute: "not-json"}))
        assert [(i.code, i.stage, i.field) for i in out.issues] == [
            ("E_JSON_CELL", Stage.PARSE, column)
        ], column
        assert getattr(out, attribute) == "not-json"  # raw text preserved


def test_empty_path_tagged():
    out = parse_record(record(raw_path=""))
    assert "E_PATH_SYNTAX" in codes(out)
    assert out.path is None


def test_no_example_with_examples_present():
    out = parse_record(record(response_example='{"ok":true}'))
    assert "W_NO_EXAMPLE" not in codes(out)
    out = parse_record(record(raw_curl="curl https://h/x"))
    assert "W_NO_EXAMPLE" not in codes(out)


def test_parse_is_idempotent():
    once = parse_record(record(raw_curl="curl -s https://h/x"))
    assert parse_record(once) == once
