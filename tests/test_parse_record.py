from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from apibind.curl import HttpMethod, parse_curl
from apibind.issues import Stage
from apibind.params import parse_parameter_table
from apibind.parse import parse_columns, parse_record
from apibind.pathtemplate import parse_path_template
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


@pytest.mark.parametrize(
    "parse, raw, codes_out",
    [
        (parse_path_template, "/v1/{id}", []),
        (parse_path_template, "/v1/<id>", ["W_PATH_SUSPECT"]),
        (parse_path_template, "/v1/{}", ["E_PATH_SYNTAX"]),
        (parse_curl, "curl https://h/x", []),
        (parse_curl, "curl -s https://h/x", ["W_CURL_OPT_IGNORED"]),
        (parse_curl, "curl 'oops", ["E_CURL_TOKENIZE"]),
        (parse_curl, "curl -s", ["W_CURL_OPT_IGNORED", "E_CURL_NO_URL"]),
        (parse_curl, "curl -F a=b https://h/x", ["E_CURL_UNSUPPORTED"]),
        (parse_parameter_table, '[{"name": "a", "in": "query"}]', []),
        (parse_parameter_table, '[{"in": "query"}]', ["E_PARAM_NO_NAME"]),
        (parse_parameter_table, "not-json", ["E_JSON_CELL"]),
        (parse_parameter_table, "{}", ["E_JSON_CELL"]),
    ],
)
def test_parsers_return_tuples(parse, raw, codes_out):
    """Every parser hands back frozen values, so a memoized result can be shared."""
    result, issues = parse(raw)
    assert type(issues) is tuple and [i.code for i in issues] == codes_out
    if parse is parse_parameter_table:
        assert type(result) is tuple
    elif codes_out and codes_out[-1].startswith("E_"):
        assert result is None


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


#: Every column draws from one pool, so texts repeat within a column and
#: across columns. The first table has no location, so what it parses to
#: depends on the method; the last cell is broken JSON. A path may also be
#: absent or empty, which no parser sees.
_CELLS = (
    '[{"name":"q"}]',
    '[{"name":"id","in":"path","required":"yes"}]',
    "/v1/users/{id}",
    "/v1/{x}/{x}",
    "curl https://api.example.com/v1/users/u1",
    "curl -X POST https://h/v1/a -d '{\"a\":1}'",
    '{"a":1}',
    "[1,2.5]",
    '{"ok": tru',
)


@st.composite
def _rows(draw) -> list[ApiCallRecord]:
    """Rows over a few cells of ``_CELLS``, so most cells repeat."""
    pool = draw(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=4, unique=True))
    cell = st.sampled_from(pool)
    row = st.builds(
        record,
        http_method=st.sampled_from([HttpMethod.GET, HttpMethod.POST, HttpMethod.PUT]),
        raw_path=st.sampled_from([None, ""]) | cell,
        raw_curl=st.none() | cell,
        raw_parameters=st.none() | cell,
        request_example=st.none() | cell,
        response_example=st.none() | cell,
    )
    return draw(st.lists(row, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(_rows(), st.randoms(use_true_random=False))
def test_column_pass_parses_like_each_row_alone(rows, rng):
    """One column pass over a run's rows gives each row the record it gets parsed alone."""
    rows += rng.choices(rows, k=len(rows))  # whole rows repeat, as well as cells
    rng.shuffle(rows)
    columns = parse_columns(rows)
    assert [parse_record(row, columns) for row in rows] == [parse_record(row) for row in rows]
