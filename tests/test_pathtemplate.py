from __future__ import annotations

import random

from hypothesis import given, strategies as st

from apibind.pathtemplate import (
    Literal,
    PathTemplate,
    Variable,
    parse_path_template,
)

from .gen import gen_template


def codes(issues):
    return [i.code for i in issues]


def test_brace_variables():
    template, issues = parse_path_template("/users/{user-id}/messages")
    assert issues == []
    assert template.segments == (Literal("users"), Variable("user-id"), Literal("messages"))


def test_colon_variables_canonicalized():
    template, issues = parse_path_template("/v1/:account/balance")
    assert issues == []
    assert template.segments == (Literal("v1"), Variable("account"), Literal("balance"))
    assert template.render() == "/v1/{account}/balance"


def test_duplicate_variable_is_syntax_error():
    template, issues = parse_path_template("/a/{x}/{x}")
    assert template is None
    assert codes(issues) == ["E_PATH_SYNTAX"]
    assert "duplicate" in issues[0].message


def test_render_basic():
    assert PathTemplate((Literal("users"), Variable("id"))).render() == "/users/{id}"


def test_render_empty_is_root():
    assert PathTemplate(()).render() == "/"
    template, issues = parse_path_template("/")
    assert template == PathTemplate(())
    assert issues == []


def test_unbalanced_braces():
    for raw, offset in (("/a/{x", 3), ("/a/x}", 3), ("/a/{x}}", 3), ("/:a{b}", 1)):
        template, issues = parse_path_template(raw)
        assert template is None, raw
        assert [(i.code, i.message) for i in issues] == [
            ("E_PATH_SYNTAX", f"unbalanced braces at offset {offset}")
        ]


def test_control_characters_are_syntax_errors():
    # A line break would end the line a rendered module writes the path on.
    for raw, shown, offset in (
        ("/u\nfunction evil() -> any/x", "'\\n'", 2),
        ("/v/{a\nb}", "'\\n'", 5),
        ("/v/{a}\n", "'\\n'", 6),  # `$` once matched before this newline
        ("/a\tb", "'\\t'", 2),
        ("/x/y\u2028z", "'\\u2028'", 4),
        ("/x/{y}/\x85", "'\\x85'", 7),
    ):
        template, issues = parse_path_template(raw)
        assert template is None, raw
        assert [(i.code, i.message) for i in issues] == [
            ("E_PATH_SYNTAX", f"control character {shown} at offset {offset}")
        ]


def test_error_reports_position():
    _, issues = parse_path_template("/ok/{bad")
    assert "offset 4" in issues[0].message


def test_empty_variable_name():
    for raw in ("/a/{}", "/a/:"):
        template, issues = parse_path_template(raw)
        assert template is None
        assert codes(issues) == ["E_PATH_SYNTAX"]


def test_empty_path_rejected():
    template, issues = parse_path_template("")
    assert template is None
    assert codes(issues) == ["E_PATH_SYNTAX"]


def test_suspect_segments_stay_literal():
    cases = (
        ("/a/<id>", "<id>"),
        ("/a/$id", "$id"),
        ("/a/pre{x}post", "pre{x}post"),
        ("/a/{x{y}}", "{x{y}}"),  # balanced but not the variable grammar
    )
    for raw, segment in cases:
        template, issues = parse_path_template(raw)
        assert codes(issues) == ["W_PATH_SUSPECT"], raw
        assert template.segments[-1] == Literal(segment)
        assert template.render() == raw


def test_trailing_slash_canonicalized():
    template, issues = parse_path_template("/users/")
    assert issues == []
    assert template.render() == "/users"


def test_no_leading_slash_accepted():
    template, _ = parse_path_template("users/{id}")
    assert template.render() == "/users/{id}"


def test_seeded_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        template = gen_template(rng)
        parsed, issues = parse_path_template(template.render())
        assert not [i for i in issues if i.code.startswith("E_")]
        assert parsed == template


_literal = st.from_regex(r"[a-z0-9][a-z0-9._~-]{0,7}", fullmatch=True).map(Literal)
_varname = st.from_regex(r"[a-z][a-z0-9-]{0,7}", fullmatch=True)


@st.composite
def templates(draw):
    segments = draw(st.lists(st.one_of(_literal, _varname.map(Variable)), max_size=6))
    seen: set[str] = set()
    unique = []
    for seg in segments:
        if isinstance(seg, Variable):
            if seg.name in seen:
                continue
            seen.add(seg.name)
        unique.append(seg)
    return PathTemplate(tuple(unique))


@given(templates())
def test_parse_render_identity(template):
    parsed, issues = parse_path_template(template.render())
    assert not [i for i in issues if i.code.startswith("E_")]
    assert parsed == template


@given(templates())
def test_canonicalization_idempotent(template):
    rendered = template.render()
    once, _ = parse_path_template(rendered)
    twice, _ = parse_path_template(once.render())
    assert once == twice
