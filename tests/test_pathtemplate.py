from __future__ import annotations

import random

from hypothesis import given, strategies as st

from apibind.codegen import function_raw_name, split_words
from apibind.curl import HttpMethod
from apibind.pathtemplate import PathTemplate, parse_path_template

from .gen import gen_template


def codes(issues):
    return [i.code for i in issues]


def test_brace_variables():
    template, issues = parse_path_template("/users/{user-id}/messages")
    assert issues == ()
    assert template == PathTemplate("/users/{user-id}/messages", ("user-id",))


def test_colon_variables_canonicalized():
    template, issues = parse_path_template("/v1/:account/balance")
    assert issues == ()
    assert template == PathTemplate("/v1/{account}/balance", ("account",))


def test_duplicate_variable_is_syntax_error():
    template, issues = parse_path_template("/a/{x}/{x}")
    assert template is None
    assert codes(issues) == ["E_PATH_SYNTAX"]
    assert "duplicate" in issues[0].message


def test_render_basic():
    # Each variable is written {name} in the text, whichever syntax documented it.
    template, issues = parse_path_template("users/:id/{name}/")
    assert issues == ()
    assert template == PathTemplate("/users/{id}/{name}", ("id", "name"))


def test_render_empty_is_root():
    for raw in ("/", "//"):
        template, issues = parse_path_template(raw)
        assert template == PathTemplate("/", ()), raw
        assert issues == ()


def test_unbalanced_braces():
    for raw, offset in (
        ("/a/{x", 3), ("/a/x}", 3), ("/a/{x}}", 3), ("/:a{b}", 1),
        ("/a/{x/", 3), ("a/{x/", 2),  # a trailing slash moves no offset
    ):
        template, issues = parse_path_template(raw)
        assert template is None, raw
        assert [(i.code, i.message) for i in issues] == [
            ("E_PATH_SYNTAX", f"unbalanced braces at offset {offset}")
        ]


def test_error_offsets_ignore_a_trailing_slash():
    for raw, message in (
        ("/a/{x}/{x}", "duplicate variable 'x' at offset 7"),
        ("/a/{x}/{x}/", "duplicate variable 'x' at offset 7"),
        ("a/{x}/{x}/", "duplicate variable 'x' at offset 6"),
        ("/a/{}", "empty variable name at offset 3"),
        ("/a/{}/", "empty variable name at offset 3"),
        ("/a/:/", "empty variable name at offset 3"),
    ):
        template, issues = parse_path_template(raw)
        assert template is None, raw
        assert [(i.code, i.message) for i in issues] == [("E_PATH_SYNTAX", message)], raw


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
    for raw in (
        "/a/<id>",
        "/a/$id",
        "/a/pre{x}post",
        "/a/{x{y}}",  # balanced but not the variable grammar
        "/a/{x}{y}",  # two names in one segment: no variable either
    ):
        template, issues = parse_path_template(raw)
        assert codes(issues) == ["W_PATH_SUSPECT"], raw
        assert template == PathTemplate(raw, ()), raw


def test_trailing_slash_canonicalized():
    template, issues = parse_path_template("/users/")
    assert issues == ()
    assert template == PathTemplate("/users", ())


def test_no_leading_slash_accepted():
    template, _ = parse_path_template("users/{id}")
    assert template == PathTemplate("/users/{id}", ("id",))


def test_seeded_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        template = gen_template(rng)
        parsed, issues = parse_path_template(template.text)
        assert not [i for i in issues if i.code.startswith("E_")]
        assert parsed == template


# A drawn segment: (documented text, canonical text, variable name or None, suspect?).
_word = st.from_regex(r"[a-z0-9]{1,5}", fullmatch=True)
_name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_:-]{0,7}", fullmatch=True)
_segment = st.one_of(
    st.from_regex(r"[A-Za-z0-9._~-]{1,8}", fullmatch=True).map(lambda t: (t, t, None, False)),
    st.one_of(
        st.builds("{}{{{}}}{}".format, _word, _word, _word),  # a{b}c
        st.builds("{{{}}}{{{}}}".format, _word, _word),  # {a}{b}
        st.builds("<{}>".format, _word),
        st.builds("${}".format, _word),
    ).map(lambda t: (t, t, None, True)),
    _name.map(lambda n: ("{" + n + "}", "{" + n + "}", n, False)),
    _name.map(lambda n: (":" + n, "{" + n + "}", n, False)),
    st.just(("", "", None, False)),
)


@st.composite
def documented_paths(draw):
    """A documented path, the template it parses to, its raw-name words and suspect count."""
    segments, names = [], set()
    for segment in draw(st.lists(_segment, max_size=6)):
        if segment[2] is not None:
            if segment[2] in names:
                continue
            names.add(segment[2])
        segments.append(segment)
    # An empty first or last segment would read as the slash beside it.
    while segments and not segments[0][0]:
        segments.pop(0)
    while segments and not segments[-1][0]:
        segments.pop()
    raw = (
        ("/" if draw(st.booleans()) else "")
        + "/".join(s[0] for s in segments)
        + ("/" if draw(st.booleans()) else "")
    ) or "/"
    expected = PathTemplate(
        "/" + "/".join(s[1] for s in segments),
        tuple(s[2] for s in segments if s[2] is not None),
    )
    words = [w for s in segments for w in split_words(s[2] if s[2] is not None else s[0])]
    return raw, expected, words, sum(s[3] for s in segments)


@given(documented_paths(), st.sampled_from(HttpMethod))
def test_documented_path_parses_to_text_and_variables(case, method):
    raw, expected, words, suspects = case
    template, issues = parse_path_template(raw)
    assert template == expected
    assert codes(issues) == ["W_PATH_SUSPECT"] * suspects
    assert function_raw_name(method, template) == "_".join([method.value.lower(), *words])


templates = documented_paths().map(lambda case: case[1])


@given(templates)
def test_parse_render_identity(template):
    parsed, issues = parse_path_template(template.text)
    assert not [i for i in issues if i.code.startswith("E_")]
    assert parsed == template


@given(templates)
def test_canonicalization_idempotent(template):
    once, _ = parse_path_template(template.text)
    twice, _ = parse_path_template(once.text)
    assert once == twice
