"""The ``ApiCallRecord.with_issues`` contract: append-only, deduplicating, one frozen copy."""

from __future__ import annotations

import dataclasses

import pytest

from apibind.curl import HttpMethod
from apibind.issues import Stage, make_issue
from apibind.pathtemplate import PathTemplate
from apibind.records import ApiCallRecord, RecordId

TAG = make_issue("W_NO_EXAMPLE", Stage.VALIDATE, "no example")
OTHER = make_issue("E_PATH_SYNTAX", Stage.PARSE, "bad path", field="path")


def record(**kwargs) -> ApiCallRecord:
    return ApiCallRecord(
        id=RecordId.single("r1"),
        source_url="https://d/x",
        http_method=HttpMethod.GET,
        raw_path="/v1/x",
        **kwargs,
    )


class TestWithIssues:
    def test_nothing_added_returns_self(self):
        rec = record(issues=(TAG,))
        assert rec.with_issues() is rec
        assert rec.with_issues(TAG) is rec
        # An equal tag built anew is an exact duplicate too.
        assert rec.with_issues(make_issue("W_NO_EXAMPLE", Stage.VALIDATE, "no example")) is rec

    def test_unknown_name_is_a_type_error(self):
        rec = record()
        for name in ("issues", "raw_path", "id", "bogus"):
            with pytest.raises(TypeError, match=name):
                rec.with_issues(TAG, **{name: None})
        assert rec.issues == ()

    def test_copy_is_frozen(self):
        copy = record().with_issues(TAG)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.issues = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.path = None

    def test_copy_skips_exact_duplicates_and_keeps_order(self):
        rec = record(issues=(TAG,))
        copy = rec.with_issues(OTHER, TAG)
        assert copy.issues == (TAG, OTHER)
        assert rec.issues == (TAG,)
        # A tag differing in any field is not a duplicate.
        moved = make_issue("W_NO_EXAMPLE", Stage.PARSE, "no example")
        assert copy.with_issues(moved).issues == (TAG, OTHER, moved)

    def test_copy_sets_parser_outputs_and_equals_a_built_record(self):
        path = PathTemplate("/v1/x", ())
        rec = record()
        copy = rec.with_issues(TAG, path=path, curl=None, params=())
        assert type(copy) is ApiCallRecord
        assert copy == record(issues=(TAG,), path=path, params=())
        assert hash(copy) == hash(record(issues=(TAG,), path=path, params=()))
        assert (rec.path, rec.params) == (None, None)
        # Setting an output alone, with no new tag, still copies.
        assert rec.with_issues(params=()) == record(params=())


class TestRecordId:
    def test_holds_at_least_one_atom(self):
        with pytest.raises(ValueError, match="at least one id"):
            RecordId(())

    def test_atoms_may_repeat(self):
        assert str(RecordId(("a", "b", "a"))) == "a|b|a"
