from __future__ import annotations

import itertools
import subprocess
import urllib.parse

import pytest
from hypothesis import given, settings, strategies as st

from apibind.curl import (
    BodyKind,
    HttpMethod,
    parse_curl,
    tokenize_shell,
)

from .gen import nested_json


def codes(issues):
    return [i.code for i in issues]


class TestTokenizer:
    def test_single_quotes_literal(self):
        assert tokenize_shell("curl -H 'A: b c' u") == ["curl", "-H", "A: b c", "u"]

    def test_backslash_newline_is_continuation(self):
        assert tokenize_shell("curl \\\n  u") == ["curl", "u"]

    def test_double_quote_escapes(self):
        assert tokenize_shell('curl "a\\"b"') == ["curl", 'a"b']
        assert tokenize_shell('curl "a\\\\b"') == ["curl", "a\\b"]

    def test_double_quotes_keep_other_backslashes(self):
        assert tokenize_shell('curl "a\\nb"') == ["curl", "a\\nb"]

    def test_continuation_inside_double_quotes(self):
        assert tokenize_shell('curl "a\\\nb"') == ["curl", "ab"]

    def test_no_continuation_inside_single_quotes(self):
        assert tokenize_shell("curl 'a\\\nb'") == ["curl", "a\\\nb"]

    def test_empty_quoted_token(self):
        assert tokenize_shell("curl -d '' u") == ["curl", "-d", "", "u"]

    def test_adjacent_quoting_styles_concatenate(self):
        assert tokenize_shell("curl ab'c d'\"e f\"") == ["curl", "abc de f"]

    def test_unterminated_quote(self):
        with pytest.raises(ValueError, match="at offset 5"):
            tokenize_shell("curl 'oops")
        with pytest.raises(ValueError):
            tokenize_shell('curl "oops')


# Lexemes of a POSIX shell word list, drawn so that sh and tokenize_shell
# must agree. A newline appears outside quotes only as a line continuation:
# sh ends a command at a bare newline, while a documentation line only wraps.
# "\r" is left out because sh does not split words on it, and "$", "`",
# globs, "#", "~" and braces because sh expands them and tokenize_shell never does.
_PLAIN = st.text(alphabet="ab-=:./,", min_size=1)
_SINGLE = st.text(alphabet="ab \t\n\\\"").map(lambda body: f"'{body}'")
_DOUBLE = st.lists(
    st.one_of(
        st.text(alphabet="ab \t\n'", min_size=1),
        st.sampled_from(['\\"', "\\\\", "\\\n", "\\a", "\\'"]),
    ),
    max_size=4,
).map(lambda pieces: '"' + "".join(pieces) + '"')
_ESCAPE = st.sampled_from("ab '\"\\\t").map(lambda c: "\\" + c)
_BLANK = st.text(alphabet=" \t", min_size=1)
_LINE = st.tuples(
    st.lists(st.one_of(_PLAIN, _SINGLE, _DOUBLE, _ESCAPE, _BLANK, st.just("\\\n")), max_size=8),
    st.sampled_from(["", "", "", "'", '"', "'a b", '"a b']),  # an unterminated quote
).map(lambda parts: "".join(parts[0]) + parts[1])


@settings(max_examples=120, deadline=None)
@given(_LINE)
def test_tokenizer_splits_like_sh(line):
    proc = subprocess.run(
        ["sh", "-c", "printf '%s\\0' X " + line], capture_output=True, timeout=30, check=False
    )
    try:
        words = tokenize_shell(line)
    except ValueError:
        assert proc.returncode != 0, (line, proc.stdout)
        return
    assert proc.returncode == 0, (line, proc.stderr)
    assert proc.stdout.decode().split("\0")[1:-1] == words


class TestParseCurl:
    def test_plain_get(self):
        request, issues = parse_curl("curl https://api.example.com/v1/ping")
        assert issues == ()
        assert request.method is HttpMethod.GET
        assert request.url == "https://api.example.com/v1/ping"
        assert request.headers == ()
        assert request.body is None

    def test_post_with_json_body(self):
        request, issues = parse_curl(
            "curl -X POST -H 'Content-Type: application/json' -d '{\"a\":1}' https://h/x"
        )
        assert issues == ()
        assert request.method is HttpMethod.POST
        assert request.headers == (("Content-Type", "application/json"),)
        assert request.body == (BodyKind.JSON, '{"a":1}')

    def test_get_flag_moves_data_to_query(self):
        request, issues = parse_curl("curl -G -d 'q=new' https://h/search")
        assert issues == ()
        assert request.method is HttpMethod.GET
        assert request.query == (("q", "new"),)
        assert request.body is None

    def test_data_implies_post(self):
        request, _ = parse_curl("curl -d 'a=1' https://h/x")
        assert request.method is HttpMethod.POST
        assert request.body == (BodyKind.URL_ENCODED, "a=1")

    def test_repeated_data_concatenates(self):
        request, _ = parse_curl("curl -d a=1 -d b=2 https://h/x")
        assert request.body == (BodyKind.URL_ENCODED, "a=1&b=2")

    def test_body_sniffs_json_without_header(self):
        request, _ = parse_curl("curl -d '{\"a\": 1}' https://h/x")
        assert request.body[0] is BodyKind.JSON

    def test_body_too_deep_to_decode_is_not_sniffed_as_json(self):
        request, _ = parse_curl("curl -d '" + "[" * 3000 + "]" * 3000 + "' https://h/x")
        assert request.body[0] is BodyKind.URL_ENCODED

    def test_body_the_strict_decoder_rejects_is_not_sniffed_as_json(self):
        for body in ("NaN", "[Infinity]", nested_json(200)):
            request, _ = parse_curl(f"curl -d '{body}' https://h/x")
            assert request.body[0] is BodyKind.URL_ENCODED, body

    def test_explicit_content_type_beats_sniffing(self):
        request, _ = parse_curl("curl -H 'Content-Type: text/plain' -d '{\"a\":1}' https://h/x")
        assert request.body[0] is BodyKind.TEXT
        request, _ = parse_curl(
            "curl -H 'Content-Type: application/x-www-form-urlencoded' -d '{\"a\":1}' https://h/x"
        )
        assert request.body[0] is BodyKind.URL_ENCODED

    def test_url_query_split_and_decoded(self):
        request, _ = parse_curl("curl 'https://h/p?a=1&b=x%20y&flag'")
        assert request.url == "https://h/p"
        assert request.query == (("a", "1"), ("b", "x y"), ("flag", ""))
        request, _ = parse_curl("curl 'https://h/p?a=1&&b=2'")
        assert request.query == (("a", "1"), ("b", "2"))

    def test_data_urlencode(self):
        request, _ = parse_curl("curl --data-urlencode 'q=hello world' https://h/x")
        assert request.body == (BodyKind.URL_ENCODED, "q=hello+world")
        request, _ = parse_curl("curl --data-urlencode 'hello world' https://h/x")
        assert request.body == (BodyKind.URL_ENCODED, "hello+world")
        request, _ = parse_curl("curl --data-urlencode '=hello world' https://h/x")
        assert request.body == (BodyKind.URL_ENCODED, "hello+world")

    def test_cookie_file_skipped(self):
        _, issues = parse_curl("curl -b cookies.txt https://h/x")
        assert codes(issues) == ["W_CURL_OPT_IGNORED"]

    def test_header_without_colon(self):
        # curl 7.88.1 sends no header for a word without ':' or a trailing ';'.
        request, issues = parse_curl("curl -H 'X-Flag' https://h/x")
        assert [(i.code, i.message) for i in issues] == [
            ("W_CURL_OPT_IGNORED", "header 'X-Flag' has no ':' and is not sent")
        ]
        assert request.headers == ()

    @pytest.mark.parametrize(
        "arg, headers",
        [
            ("X-Empty;", (("X-Empty", ""),)),  # sent with an empty value
            ("Accept:", ()),  # removes the header
            ("Accept:   ", ()),
            ("X-A: b:c ", (("X-A", "b:c"),)),
        ],
    )
    def test_header_with_empty_value(self, arg, headers):
        request, issues = parse_curl(f"curl -H '{arg}' https://h/x")
        assert issues == ()
        assert request.headers == headers

    # curl 7.88.1 sends a header name exactly as written, so a loopback server
    # sees no X-Q header for either of these lines.
    def test_header_name_with_leading_space_is_kept(self):
        request, _ = parse_curl("curl -H ' X-Q: 1' https://h/x")
        assert request.headers == ((" X-Q", "1"),)

    def test_header_name_with_space_before_colon_is_kept(self):
        request, _ = parse_curl("curl -H 'X-Q : 1' https://h/x")
        assert request.headers == (("X-Q ", "1"),)

    def test_spaced_content_type_does_not_decide_the_body_kind(self):
        request, _ = parse_curl("curl -H 'Content-Type : text/plain' -d '{\"a\":1}' https://h/x")
        assert request.body == (BodyKind.JSON, '{"a":1}')

    @pytest.mark.parametrize(
        "option, value, body",
        [
            *[
                (option, '{"a":1}', (BodyKind.JSON, '{"a":1}'))
                for option in ("-d", "--data", "--data-binary", "--data-ascii", "--data-raw")
            ],
            ("--data-raw", "@x", (BodyKind.URL_ENCODED, "@x")),  # never read as a file name
        ],
    )
    def test_data_spellings(self, option, value, body):
        request, issues = parse_curl(f"curl {option} '{value}' https://h/x")
        assert issues == ()
        assert (request.method, request.url, request.body) == (HttpMethod.POST, "https://h/x", body)

    def test_url_flag(self):
        request, _ = parse_curl("curl --url https://h/x")
        assert request.url == "https://h/x"

    def test_template_placeholders_preserved(self):
        request, _ = parse_curl("curl https://h/users/{user-id}/messages")
        assert request.url == "https://h/users/{user-id}/messages"

    def test_unknown_option_warned_and_skipped(self):
        request, issues = parse_curl("curl --wibble https://h/x")
        assert request is not None
        assert codes(issues) == ["W_CURL_OPT_IGNORED"]
        assert request.url == "https://h/x"

    def test_known_ignored_option_with_argument(self):
        request, issues = parse_curl("curl -o out.json https://h/x")
        assert codes(issues) == ["W_CURL_OPT_IGNORED"]
        assert request.url == "https://h/x"
        # A trailing option missing its argument warns once, not twice.
        request, issues = parse_curl("curl https://h/x -o")
        assert [i.message for i in issues] == ["option -o is missing its argument"]
        assert request.url == "https://h/x"

    @pytest.mark.parametrize(
        "line, url, findings",
        [
            ("curl https://h/x -H", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option -H is missing its argument")]),
            ("curl https://h/x -F", None,
             [("E_CURL_UNSUPPORTED", "multipart option -F is not supported"),
              ("W_CURL_OPT_IGNORED", "option -F is missing its argument")]),
            ("curl --url https://h/x --url https://h/y", "https://h/x",
             [("W_CURL_OPT_IGNORED", "extra URL 'https://h/y' ignored")]),
            ("curl --max-time=3 https://h/x", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option '--max-time=3' skipped")]),
            ("curl -X BREW https://h/x", None,
             [("E_CURL_UNSUPPORTED", "unsupported HTTP method 'BREW'")]),
            # A short-option cluster tags each option alone; one unknown
            # letter keeps the whole word one unknown option.
            ("curl -sS https://h/x", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option -s skipped"),
              ("W_CURL_OPT_IGNORED", "option -S skipped")]),
            ("curl https://h/x -sX", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option -s skipped"),
              ("W_CURL_OPT_IGNORED", "option -X is missing its argument")]),
            ("curl -sZ https://h/x", "https://h/x",
             [("W_CURL_OPT_IGNORED", "unknown option -sZ skipped")]),
            ("curl -sofile https://h/x", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option -s skipped"),
              ("W_CURL_OPT_IGNORED", "option -o 'file' skipped")]),
            # Transport options: their argument is never the URL.
            ("curl -x http://p:8080 https://h/x", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option -x 'http://p:8080' skipped")]),
            ("curl --proxy http://p:8080 -U u:p https://h/x", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option --proxy 'http://p:8080' skipped"),
              ("W_CURL_OPT_IGNORED", "option -U 'u:p' skipped")]),
            ("curl --resolve h:443:10.0.0.1 --connect-to h:443:g:8443 https://h/x", "https://h/x",
             [("W_CURL_OPT_IGNORED", "option --resolve 'h:443:10.0.0.1' skipped"),
              ("W_CURL_OPT_IGNORED", "option --connect-to 'h:443:g:8443' skipped")]),
            # A body read from a file is unknown here, as a multipart one is.
            ("curl -d @body.json https://h/x", None,
             [("E_CURL_UNSUPPORTED", "option -d '@body.json' reads a file, which is not supported")]),
            ("curl -d@b https://h/x", None,
             [("E_CURL_UNSUPPORTED", "option -d '@b' reads a file, which is not supported")]),
            ("curl --data @b --data-binary @c https://h/x", None,
             [("E_CURL_UNSUPPORTED", "option --data '@b' reads a file, which is not supported"),
              ("E_CURL_UNSUPPORTED", "option --data-binary '@c' reads a file, which is not supported")]),
            ("curl --data-ascii @b https://h/x", None,
             [("E_CURL_UNSUPPORTED", "option --data-ascii '@b' reads a file, which is not supported")]),
            ("curl --data-urlencode @b --data-urlencode q@c https://h/x", None,
             [("E_CURL_UNSUPPORTED", "option --data-urlencode '@b' reads a file, which is not supported"),
              ("E_CURL_UNSUPPORTED", "option --data-urlencode 'q@c' reads a file, which is not supported")]),
            ("curl --json @b.json https://h/x", None,
             [("E_CURL_UNSUPPORTED", "option --json '@b.json' reads a file, which is not supported")]),
            # An '=' before the '@' makes the rest content, sent encoded.
            ("curl --data-urlencode q=a@c https://h/x", "https://h/x", []),
        ],
    )
    def test_option_findings(self, line, url, findings):
        request, issues = parse_curl(line)
        assert (request.url if request else None) == url
        assert [(i.code, i.message) for i in issues] == findings

    def test_multipart_unsupported(self):
        request, issues = parse_curl("curl -F 'file=@x' https://h/x")
        assert request is None
        assert "E_CURL_UNSUPPORTED" in codes(issues)

    def test_no_url(self):
        request, issues = parse_curl("curl -s")
        assert request is None
        assert "E_CURL_NO_URL" in codes(issues)

    def test_tokenize_failure(self):
        request, issues = parse_curl("curl 'https://h/x")
        assert request is None
        assert codes(issues) == ["E_CURL_TOKENIZE"]

    def test_extra_positional_url_warned(self):
        request, issues = parse_curl("curl https://h/x https://h/y")
        assert request.url == "https://h/x"
        assert codes(issues) == ["W_CURL_OPT_IGNORED"]


_JSON_HEADERS = (("Content-Type", "application/json"), ("Accept", "application/json"))


class TestJsonOption:
    """``--json`` as curl 7.88.1 sends it, seen with a loopback server."""

    @pytest.mark.parametrize(
        "line, body",
        [
            ("curl --json '{\"a\":1}' https://h/x", '{"a":1}'),
            # Pieces join with nothing; a -d piece after any piece joins with '&'.
            ("curl --json '{\"a\":1}' --json '{\"b\":2}' https://h/x", '{"a":1}{"b":2}'),
            ("curl -d a=1 --json '[1]' https://h/x", "a=1[1]"),
            ("curl --json '[1]' -d a=1 https://h/x", "[1]&a=1"),
        ],
    )
    def test_posts_the_joined_pieces_as_json(self, line, body):
        request, issues = parse_curl(line)
        assert issues == ()
        assert (request.method, request.headers, request.body) == (
            HttpMethod.POST, _JSON_HEADERS, (BodyKind.JSON, body),
        )

    @pytest.mark.parametrize(
        "header, headers",
        [
            ("Content-Type: text/plain", (("Content-Type", "text/plain"), _JSON_HEADERS[1])),
            ("accept: text/plain", (("accept", "text/plain"), _JSON_HEADERS[0])),
            ("Accept:", (_JSON_HEADERS[0],)),  # a removed header is given, so none is added
            ("Content-Type;", (("Content-Type", ""), _JSON_HEADERS[1])),
            ("Accept-Language: en", (("Accept-Language", "en"), *_JSON_HEADERS)),
        ],
    )
    def test_a_given_header_is_not_added(self, header, headers):
        request, _ = parse_curl(f"curl -H '{header}' --json '[1]' https://h/x")
        assert request.headers == headers

    def test_method_and_get(self):
        request, _ = parse_curl("curl -X PUT --json '[1]' https://h/x")
        assert (request.method, request.body) == (HttpMethod.PUT, (BodyKind.JSON, "[1]"))
        request, _ = parse_curl("curl -G --json '[1]' https://h/x")
        assert (request.method, request.body, request.query) == (HttpMethod.GET, None, (("[1]", ""),))


class TestShortOptionClusters:
    """Short options cluster and take attached values, as curl reads them."""

    @pytest.mark.parametrize(
        "line, method, url, body",
        [
            ("curl -XPOST https://h/x", HttpMethod.POST, "https://h/x", None),
            ("curl -d'{\"a\":1}' https://h/x", HttpMethod.POST, "https://h/x", (BodyKind.JSON, '{"a":1}')),
            ("curl -sSX POST https://h/x", HttpMethod.POST, "https://h/x", None),
            ("curl -sSXPOST https://h/x", HttpMethod.POST, "https://h/x", None),
            ("curl -sXPUT -d x=1 https://h/x", HttpMethod.PUT, "https://h/x", (BodyKind.URL_ENCODED, "x=1")),
            ("curl -Gd q=1 https://h/x", HttpMethod.GET, "https://h/x", None),
            ("curl -d -sS https://h/x", HttpMethod.POST, "https://h/x", (BodyKind.URL_ENCODED, "-sS")),
        ],
    )
    def test_method_url_and_body(self, line, method, url, body):
        request, _ = parse_curl(line)
        assert (request.method, request.url, request.body) == (method, url, body)

    def test_attached_header_user_and_cookie(self):
        request, issues = parse_curl("curl -HX-A:1 -ua:b -bk=v https://h/x")
        assert issues == ()
        assert request.headers == (("X-A", "1"),)
        request, _ = parse_curl("curl -Gd q=1 https://h/x")
        assert request.query == (("q", "1"),)


def _line(method_flag, body, get_flag, head_flag=False):
    parts = ["curl"]
    if method_flag:
        parts.append(f"-X {method_flag}")
    if body:
        parts.append("-d 'k=v'")
    if get_flag:
        parts.append("-G")
    if head_flag:
        parts.append("-I")
    parts.append("https://h/x")
    return " ".join(parts)


def _curl_method(method_flag, body, get_flag, head_flag=False):
    # As curl 7.88.1 sends it: the -X word, else HEAD for -I, else POST with
    # a body that -G did not move into the query, else GET.
    if method_flag is not None:
        return HttpMethod(method_flag)
    if head_flag:
        return HttpMethod.HEAD
    return HttpMethod.POST if body and not get_flag else HttpMethod.GET


_METHOD_CASES = list(itertools.product([None, "GET", "POST", "DELETE"], [False, True], [False, True]))


@pytest.mark.parametrize("method_flag,body,get_flag", _METHOD_CASES)
def test_method_rule_exhaustive(method_flag, body, get_flag):
    request, _ = parse_curl(_line(method_flag, body, get_flag))
    assert request.method is _curl_method(method_flag, body, get_flag)


@pytest.mark.parametrize("method_flag,body,get_flag", _METHOD_CASES)
def test_method_rule_exhaustive_with_head(method_flag, body, get_flag):
    request, issues = parse_curl(_line(method_flag, body, get_flag, head_flag=True))
    assert issues == ()
    assert request.method is _curl_method(method_flag, body, get_flag, head_flag=True)


def _split_query_reference(qs):
    """The query splitter ``parse_curl`` used before it called ``urllib.parse.parse_qsl``."""
    pairs = []
    for chunk in qs.split("&"):
        if not chunk:
            continue
        if "=" in chunk:
            key, value = chunk.split("=", 1)
        else:
            key, value = chunk, ""
        pairs.append((urllib.parse.unquote_plus(key), urllib.parse.unquote_plus(value)))
    return tuple(pairs)


# Query strings made of separators, '+', valid and invalid percent escapes,
# non-ASCII text and empty chunks. A "'" would end the quoted shell word, and
# "-d @..." reads a file, so neither is drawn.
_QUERY = st.lists(
    st.one_of(
        st.sampled_from(
            ["=", "&", "&&", "+", "%2F", "%e9", "%C3%A9", "%zz", "%", "%2", ";", "?", "#", " "]
        ),
        st.text(
            alphabet=st.characters(blacklist_characters="'@", blacklist_categories=("Cs",)),
            max_size=4,
        ),
    ),
    max_size=12,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_QUERY)
def test_query_splits_like_the_reference(qs):
    expected = _split_query_reference(qs)
    for line in (f"curl 'https://h/p?{qs}'", f"curl -G -d '{qs}' https://h/p"):
        request, issues = parse_curl(line)
        assert issues == (), line
        assert request.url == "https://h/p", line
        assert request.query == expected, line
