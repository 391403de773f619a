from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from apibind.curl import HttpMethod
from apibind.ingest import load_corpus, record_id_census
from apibind.issues import Stage, make_issue
from apibind.parse import parse_record
from apibind.records import ApiCallRecord, RecordId
from apibind.validate import (
    cross_validate,
    dashboard,
    dashboard_to_json,
    render_dashboard_text,
    route,
)

from .gen import gen_corpus


def record(**kwargs) -> ApiCallRecord:
    defaults = dict(
        id=RecordId.single("v1"),
        source_url="https://docs.example.com/x",
        http_method=HttpMethod.GET,
        raw_path="/u/{id}",
    )
    defaults.update(kwargs)
    return parse_record(ApiCallRecord(**defaults))


def new_codes(rec, validated):
    return sorted(i.code for i in validated.issues[len(rec.issues):])


class TestCrossValidate:
    def test_declared_path_param_passes(self):
        rec = record(raw_parameters='[{"name":"id","in":"path"}]')
        out = cross_validate(rec)
        assert "E_PATHVAR_UNDECLARED" not in new_codes(rec, out)
        assert "E_PARAM_PATH_UNUSED" not in new_codes(rec, out)

    def test_undeclared_path_variable(self):
        rec = record()
        out = cross_validate(rec)
        assert "E_PATHVAR_UNDECLARED" in new_codes(rec, out)

    def test_unused_path_parameter(self):
        rec = record(raw_path="/u", raw_parameters='[{"name":"ghost","in":"path"}]')
        out = cross_validate(rec)
        assert "E_PARAM_PATH_UNUSED" in new_codes(rec, out)

    def test_duplicate_params_per_convention(self):
        rec = record(
            raw_path="/u",
            raw_parameters='[{"name":"q","in":"query"},{"name":"q","in":"query"},{"name":"q","in":"header"}]',
        )
        out = cross_validate(rec)
        codes = new_codes(rec, out)
        assert codes.count("E_DUP_PARAM") == 1  # header copy is a different convention

    def test_method_mismatch_and_late_filtering(self):
        rec = record(
            raw_path="/u",
            raw_curl="curl -X POST -d 'x=1' https://h/u",
        )
        out = cross_validate(rec)
        codes = new_codes(rec, out)
        assert "E_METHOD_MISMATCH" in codes
        assert "W_BODY_ON_GET" in codes  # rule 5 still evaluated after rule 4 fired

    def test_body_on_get_via_request_example(self):
        rec = record(raw_path="/u", request_example='{"a":1}', http_method=HttpMethod.HEAD)
        out = cross_validate(rec)
        assert "W_BODY_ON_GET" in new_codes(rec, out)

    def test_no_example_warning(self):
        rec = record(raw_path="/u")
        out = cross_validate(rec)
        assert "W_NO_EXAMPLE" in new_codes(rec, out)

    def test_examples_present_no_warning(self):
        rec = record(raw_path="/u", response_example='{"ok":true}')
        out = cross_validate(rec)
        assert "W_NO_EXAMPLE" not in new_codes(rec, out)

    def test_late_filtering(self, corpus12_path):
        # A check reads the parser outputs and cells, never the tags: a
        # record gets the same Validate findings whatever it already carries.
        rng = random.Random(14)
        records = [parse_record(r) for r in load_corpus(corpus12_path)]
        records += [parse_record(r) for r in gen_corpus(rng, 300)]
        unrelated = (
            make_issue("E_PATH_SYNTAX", Stage.PARSE, "planted", field="path"),
            make_issue("E_JSON_CELL", Stage.PARSE, "planted", field="response_example"),
            make_issue("W_MERGE_CONFLICT", Stage.INGEST, "planted", field="group"),
        )
        found = 0
        for rec in records:
            added = cross_validate(rec).issues[len(rec.issues):]
            found += bool(added)
            for planted in [(tag,) for tag in unrelated] + [unrelated]:
                tagged = rec.with_issues(*planted)
                assert cross_validate(tagged).issues[len(tagged.issues):] == added, rec.id
        assert found >= len(records) // 2


class TestRoute:
    def test_warning_only_record_is_valid(self):
        rec = record(raw_path="/u").with_issues(
            make_issue("W_NO_EXAMPLE", Stage.VALIDATE, "w")
        )
        valid, rejected = route([rec])
        assert valid == [rec] and rejected == []

    def test_error_rejects(self):
        rec = record(raw_path="/u").with_issues(
            make_issue("E_PATH_SYNTAX", Stage.PARSE, "e", field="path")
        )
        valid, rejected = route([rec])
        assert valid == [] and rejected == [rec]

    def test_strict_rejects_warning_only(self):
        rec = record(raw_path="/u").with_issues(
            make_issue("W_NO_EXAMPLE", Stage.VALIDATE, "w")
        )
        valid, rejected = route([rec], strict=True)
        assert valid == [] and rejected == [rec]

    @pytest.mark.parametrize(
        "method, curl",
        [
            (HttpMethod.POST, "curl -G -X POST -d k=v https://h/u"),  # -X wins over -G
            (HttpMethod.HEAD, "curl -I https://h/u"),
            (HttpMethod.POST, "curl --json '{\"a\":1}' https://h/u"),
        ],
    )
    def test_curl_sending_the_declared_method_passes(self, method, curl):
        rec = cross_validate(
            record(raw_path="/u", http_method=method, raw_curl=curl, response_example='{"ok":true}')
        )
        assert rec.issues == ()
        assert route([rec]) == ([rec], [])

    def test_partition_is_permutation(self):
        rng = random.Random(2)
        for _ in range(25):
            records = [cross_validate(parse_record(r)) for r in gen_corpus(rng, rng.randint(0, 20))]
            valid, rejected = route(records)
            assert len(valid) + len(rejected) == len(records)
            assert record_id_census(valid) + record_id_census(rejected) == record_id_census(records)


def tagged(n_errors=0, n_warnings=0, atom="d"):
    rec = ApiCallRecord(
        id=RecordId.single(atom),
        source_url="https://d/x",
        http_method=HttpMethod.GET,
        raw_path="/x",
    )
    issues = [
        make_issue("E_PATH_SYNTAX", Stage.PARSE, f"e{i}", field=str(i)) for i in range(n_errors)
    ] + [make_issue("W_NO_EXAMPLE", Stage.VALIDATE, f"w{i}", field=str(i)) for i in range(n_warnings)]
    return rec.with_issues(*issues)


class TestDashboard:
    def test_percentage(self):
        records = [tagged(atom=f"ok{i}") for i in range(8)] + [
            tagged(n_errors=1, atom=f"bad{i}") for i in range(2)
        ]
        report = dashboard(records)
        assert report["total_records"] == 10
        assert report["valid_records"] == 8
        assert report["percent_valid"] == 80.0

    def test_empty_corpus_percent_absent(self):
        report = dashboard([])
        assert report["total_records"] == 0
        assert "percent_valid" not in report
        assert '"percent_valid"' not in dashboard_to_json(report)

    def test_tie_broken_alphabetically(self):
        records = [tagged(n_errors=1, n_warnings=1, atom="x")]
        report = dashboard(records)
        assert [e["code"] for e in report["issue_frequency"]] == ["E_PATH_SYNTAX", "W_NO_EXAMPLE"]
        assert all(e["count"] == 1 for e in report["issue_frequency"])

    def test_count_is_records_affected(self):
        records = [tagged(n_errors=3, atom="multi")]
        report = dashboard(records)
        (entry,) = report["issue_frequency"]
        assert entry["count"] == 1  # three tags on one record still affect one record

    def test_per_stage_counts_all_stages_present(self):
        report = dashboard([tagged(n_errors=1, n_warnings=2)])
        counts = report["per_stage_counts"]
        assert set(counts) == {"Ingest", "Parse", "Infer", "Validate", "Generate"}
        assert counts["Parse"] == 1 and counts["Validate"] == 2

    def test_json_keys_exact(self):
        import json

        doc = json.loads(dashboard_to_json(dashboard([tagged(n_warnings=1)])))
        assert list(doc) == ["total_records", "valid_records", "percent_valid",
                             "issue_frequency", "per_stage_counts"]
        assert list(doc["issue_frequency"][0]) == ["code", "count", "percent"]

    def test_text_rendering_aligned(self):
        text = render_dashboard_text(dashboard([tagged(n_warnings=1), tagged(n_errors=1, atom="e")]))
        assert "records      2" in text
        assert "valid        1 (50.0%)" in text
        assert "W_NO_EXAMPLE" in text and "E_PATH_SYNTAX" in text


def dashboard_sums(report: dict) -> Counter:
    """The dashboard's additive counts: records, valid records, each code and each stage."""
    sums = Counter(total=report["total_records"], valid=report["valid_records"])
    sums.update({("code", e["code"]): e["count"] for e in report["issue_frequency"]})
    sums.update({("stage", name): n for name, n in report["per_stage_counts"].items()})
    return sums


class TestDashboardSums:
    def test_empty_corpus_counts_nothing(self):
        report = dashboard([])
        assert "percent_valid" not in report
        assert +dashboard_sums(report) == Counter()

    def test_homomorphism_over_random_splits(self):
        rng = random.Random(17)
        for _ in range(30):
            records = [cross_validate(parse_record(r)) for r in gen_corpus(rng, rng.randint(0, 24))]
            cut = rng.randint(0, len(records)) if records else 0
            left, right = records[:cut], records[cut:]
            whole = dashboard_sums(dashboard(records))
            assert dashboard_sums(dashboard(left)) + dashboard_sums(dashboard(right)) == +whole


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=12))
def test_monotonicity_errors_never_unreject(pairs):
    records = [tagged(e, w, atom=f"m{i}") for i, (e, w) in enumerate(pairs)]
    valid, rejected = route(records)
    for rec in rejected:
        worse = rec.with_issues(make_issue("E_JSON_CELL", Stage.INGEST, "another", field="f"))
        assert route([worse])[1], "adding an error moved a record out of rejected"
    for rec in valid:
        worse = rec.with_issues(make_issue("E_JSON_CELL", Stage.INGEST, "another", field="f"))
        assert route([worse])[1]
