"""The ``ApiCallRecord.with_issues`` contract: append-only, deduplicating, one frozen copy."""

from __future__ import annotations

import json
import pickle
from copy import copy as shallow_copy, deepcopy

import pytest
from hypothesis import given, settings, strategies as st

from apibind.codegen import build_reference
from apibind.curl import HttpMethod, parse_curl
from apibind.issues import Stage, make_issue
from apibind.parse import parse_record
from apibind.params import parse_parameter_table
from apibind.pathtemplate import PathTemplate, parse_path_template
from apibind.records import ApiCallRecord, RecordId
from apibind.validate import cross_validate

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
        copy = record(path=PathTemplate("/v1/x", ())).with_issues(TAG)
        with pytest.raises(AttributeError):
            copy.issues = ()
        assert copy.issues == (TAG,)
        with pytest.raises(AttributeError):
            copy.path = None
        assert copy.path == PathTemplate("/v1/x", ())

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


_tags = st.builds(
    make_issue,
    st.sampled_from(["W_NO_EXAMPLE", "E_PATH_SYNTAX"]),
    st.sampled_from(list(Stage)),
    st.sampled_from(["a", "b"]),
)
#: A few values of each parser output, None among them.
_OUTPUTS = {
    "path": st.sampled_from([None, PathTemplate("/v1/x", ()), parse_path_template("/v1/{id}")[0]]),
    "curl": st.sampled_from([None, parse_curl("curl https://h/x")[0]]),
    "params": st.sampled_from([None, (), parse_parameter_table('[{"name":"q"}]')[0]]),
}


@settings(max_examples=200)
@given(
    held=st.lists(_tags, max_size=3, unique=True).map(tuple),
    outputs=st.fixed_dictionaries(_OUTPUTS),
    new=st.lists(_tags, max_size=4),
    parsed=st.fixed_dictionaries({}, optional=_OUTPUTS),
)
def test_with_issues_equals_replace(held, outputs, new, parsed):
    """The copy is the record namedtuple's ``_replace`` makes, and ``self`` when nothing changes."""
    rec = record(issues=held, **outputs)
    added = tuple(issue for issue in new if issue not in held)
    copy = rec.with_issues(*new, **parsed)
    if not added and not parsed:
        assert copy is rec
    else:
        assert type(copy) is ApiCallRecord
        assert copy == rec._replace(issues=held + added, **parsed)


class TestRecordId:
    def test_holds_at_least_one_atom(self):
        with pytest.raises(ValueError, match="at least one id"):
            RecordId(())

    def test_atoms_may_repeat(self):
        assert str(RecordId(("a", "b", "a"))) == "a|b|a"
        merged = RecordId(RecordId(("x", "y")) + RecordId(("y", "x")))
        assert type(merged) is RecordId
        assert merged == ("x", "y", "y", "x")

    def test_is_the_tuple_of_its_atoms(self):
        rid = RecordId(("a", "b"))
        assert rid == ("a", "b")
        assert hash(rid) == hash(("a", "b"))
        assert RecordId.single("a") == ("a",)


def _built_values() -> dict[str, object]:
    """One of each value a run builds per row or per finding, all fields set."""
    rec = cross_validate(
        parse_record(
            ApiCallRecord(
                id=RecordId(("r1", "r2", "r1")),
                source_url="https://d/x",
                http_method=HttpMethod.POST,
                raw_path="/v1/users/{uid}",
                raw_curl="curl -X POST https://api.example.com/v1/users/7 -d '{\"a\": 1}'",
                raw_parameters=json.dumps([{"name": "uid", "in": "path", "type": "integer"}]),
                request_example='{"a": 1}',
                response_example='{"b": [], "c": [{"d": null}]}',
                group="users",
            )
        )
    )
    (fn,) = build_reference([rec]).functions
    assert rec.path is not None and rec.curl is not None and rec.params
    assert fn.issues
    return {"ApiCallRecord": rec, "RecordId": rec.id, "Issue": fn.issues[0], "BindingFunction": fn}


@pytest.mark.parametrize("kind", ["ApiCallRecord", "RecordId", "Issue", "BindingFunction"])
class TestTupleValues:
    """The values built per row or per finding are tuples with no instance ``__dict__``.

    Each copies and pickles to an equal value with an equal hash.
    """

    def test_no_instance_dict(self, kind):
        value = _built_values()[kind]
        assert type(value).__name__ == kind
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize(
        "clone", [shallow_copy, deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_survives_copy_and_pickle(self, kind, clone):
        value = _built_values()[kind]
        twin = clone(value)
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)

