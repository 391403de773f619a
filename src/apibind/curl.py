"""Parse documented ``curl`` command lines into structured HTTP requests.

``tokenize_shell`` splits a line into words as a POSIX shell would, and
raises ``ValueError`` on an unterminated quote, which ``parse_curl`` tags
``E_CURL_TOKENIZE``. A leading ``curl`` is dropped and every other word is
read against one table, ``_OPTIONS``. It understands ``-X/--request``,
``-H/--header``, ``-d/--data/--data-binary/--data-ascii/--data-raw``,
``--data-urlencode``, ``--json``, ``-G/--get``, ``-I/--head``, ``--url`` and
a positional URL. As curl 7.88.1 does, it takes the method from the ``-X``
word, else ``HEAD`` for ``-I``, else ``POST`` when there is a body, else
``GET``; ``-G`` only moves the data into the query. ``--json`` pieces join
with nothing, and ``--json`` adds the JSON ``Content-Type`` and ``Accept``
headers that no ``-H`` word gives. ``-b/--cookie`` and ``-u/--user`` are
read with their argument and dropped: no stage uses them.
Multipart (``-F``, ``--form``, ``--form-string``) is rejected: it has no
passing convention in this pipeline. So is a body curl would read from a
file (``-d @FILE``, ``--json @FILE``, ``--data-urlencode name@FILE``): its
content is unknown here. Common display and transport options (``-s``,
``-L``, ``-o FILE``, ``-x PROXY``, ...) are skipped together with their
argument.

As in curl, short options cluster and take attached values: ``-sSXPOST`` is
``-s -S -X POST``. A word starting with one ``-`` is read letter by letter
until a letter takes an argument, which is the rest of the word or else the
next word; a cluster holding a letter the table does not know stays one
unknown option. A skipped or unknown option, a ``--name=value`` word, a
cookie file, a second URL, an option missing its argument and a header curl
would not send (``-H 'X-Flag'``: no ``:`` and no trailing ``;``) each tag
``W_CURL_OPT_IGNORED``. As in curl, ``-H 'X-Empty;'`` sends ``X-Empty`` with
an empty value, and ``-H 'Accept:'`` removes a header, so it adds none.
"""

from __future__ import annotations

import enum
import re
import urllib.parse
from dataclasses import dataclass

from .issues import Issue, Stage, make_issue
from .typeinfer import parse_json


class HttpMethod(enum.Enum):
    GET = "GET"
    POST = "POST"
    PUT = "PUT"
    PATCH = "PATCH"
    DELETE = "DELETE"
    HEAD = "HEAD"
    OPTIONS = "OPTIONS"


#: Each method by its upper-cased name, as an ``http_method`` cell or a ``-X`` word spells it.
METHODS = {method.value: method for method in HttpMethod}


class BodyKind(enum.Enum):
    JSON = "Json"
    TEXT = "Text"
    URL_ENCODED = "UrlEncoded"


@dataclass(frozen=True)
class CurlRequest:
    method: HttpMethod
    url: str
    headers: tuple[tuple[str, str], ...] = ()
    body: tuple[BodyKind, str] | None = None
    query: tuple[tuple[str, str], ...] = ()


# One alternative per lexical class, tried in this order. The double-quoted
# body is unrolled (plain run, then escape + plain run, repeated) so an
# unterminated quote fails in linear time instead of backtracking.
_LEXEME = re.compile(
    r"""(?P<blank>[ \t\n\r]+)
      | (?P<continuation>\\\n)
      | '(?P<single>[^']*)'
      | "(?P<double>[^"\\]*(?:\\.[^"\\]*)*)"
      | \\(?P<escape>.)
      | (?P<plain>[^ \t\n\r'"\\]+|\\\Z)
      | (?P<unterminated>['"])""",
    re.DOTALL | re.VERBOSE,
)
# Inside double quotes only \" and \\ are escapes, and backslash-newline vanishes.
_DOUBLE_ESCAPE = re.compile(r'\\(?:(["\\])|\n)')


def tokenize_shell(raw: str) -> list[str]:
    """Split a command line into words, shell-style.

    Whitespace separates words; single quotes are fully literal; inside
    double quotes a backslash escapes only ``"`` and ``\\``; a backslash
    before a newline (outside single quotes) is a line continuation and
    disappears. Raises ValueError on an unterminated quote, naming its offset.
    """
    words: list[str] = []
    word: list[str] | None = None
    for match in _LEXEME.finditer(raw):
        kind = match.lastgroup
        if kind == "blank":
            if word is not None:
                words.append("".join(word))
                word = None
        elif kind == "unterminated":
            quote = "single" if match.group() == "'" else "double"
            raise ValueError(f"unterminated {quote} quote at offset {match.start()}")
        elif kind != "continuation":
            text = match.group(kind)
            if kind == "double":
                text = _DOUBLE_ESCAPE.sub(r"\1", text)
            if word is None:
                word = []
            word.append(text)
    if word is not None:
        words.append("".join(word))
    return words


# Every spelling this parser understands, mapped to its action. ``get``,
# ``head`` and ``skip`` are flags; every other action takes an argument.
# ``skip`` and ``skip_arg`` are display-only or transport options seen in
# documentation; ``cookie`` and ``user`` arguments are read and dropped.
_OPTIONS: dict[str, str] = {
    spelling: action
    for action, spellings in {
        "method": "-X --request",
        "header": "-H --header",
        "data": "-d --data --data-binary --data-ascii",
        "raw": "--data-raw",
        "urlencode": "--data-urlencode",
        "json": "--json",
        "get": "-G --get",
        "head": "-I --head",
        "cookie": "-b --cookie",
        "user": "-u --user",
        "url": "--url",
        "form": "-F --form --form-string",
        "skip": "-s --silent -S --show-error -v --verbose -i --include -k --insecure"
        " -L --location -f --fail -g --globoff --compressed --http1.1 --http2"
        " -# --progress-bar",
        "skip_arg": "-o --output -A --user-agent -e --referer -m --max-time"
        " --connect-timeout --retry --cacert --capath --cert --key -c --cookie-jar"
        " -w --write-out -T --upload-file --limit-rate -x --proxy -U --proxy-user"
        " --resolve --connect-to",
    }.items()
    for spelling in spellings.split()
}
_FLAGS = ("get", "head", "skip")
_URLENCODE_FILE = re.compile(r"[^=@]*@")
# The name of a header a -H word gives, sent or removed: curl adds a --json
# header only when no -H word starts with its name and then ':' or ';'.
_GIVEN_HEADER = re.compile(r"[^:;]*(?=[:;])")
_JSON_HEADERS = (("Content-Type", "application/json"), ("Accept", "application/json"))

_JSON_CONTENT = ("application/json",)


def _options_in(word: str) -> list[tuple[str | None, str, str | None]]:
    """``(action, spelling, attached argument)`` for each option in ``word``.

    A positional word is the argument of a ``url`` action; an unknown option,
    short cluster included, is one entry whose action is None.
    """
    if word.startswith("--"):
        return [(_OPTIONS.get(word), word, None)]
    if not word.startswith("-") or word == "-":
        return [("url", word, word)]
    options = []
    for end, letter in enumerate(word[1:], 2):
        spelling = "-" + letter
        action = _OPTIONS.get(spelling)
        if action is None:
            return [(None, word, None)]
        if action not in _FLAGS:
            options.append((action, spelling, word[end:] or None))
            break
        options.append((action, spelling, None))
    return options


def parse_curl(raw: str) -> tuple[CurlRequest | None, tuple[Issue, ...]]:
    """Parse one curl command line.

    Returns ``(request, issues)``; the request is None when the line could
    not be tokenized or names no URL. Placeholders like ``{var}`` in the URL
    are preserved verbatim.
    """
    issues: list[Issue] = []
    try:
        tokens = tokenize_shell(raw)
    except ValueError as exc:
        return None, (make_issue("E_CURL_TOKENIZE", Stage.PARSE, str(exc), field="curl_example"),)
    if tokens and tokens[0] == "curl":
        tokens = tokens[1:]

    explicit_method: str | None = None
    seen: set[str] = set()  # every action the line uses
    headers: list[tuple[str, str]] = []
    given: set[str] = set()  # lower-cased names of the headers -H gives
    data_parts: list[str] = []
    url: str | None = None

    def tag(message: str, code: str = "W_CURL_OPT_IGNORED") -> None:
        issues.append(make_issue(code, Stage.PARSE, message, field="curl_example"))

    words = iter(tokens)
    for word in words:
        for action, spelling, arg in _options_in(word):
            if action is None:
                if spelling.startswith("--") and "=" in spelling:
                    tag(f"option {spelling!r} skipped")
                else:
                    tag(f"unknown option {spelling} skipped")
                continue
            seen.add(action)
            if action == "form":  # its argument is read below and dropped
                tag(f"multipart option {spelling} is not supported", "E_CURL_UNSUPPORTED")
            if action == "skip":
                tag(f"option {spelling} skipped")
            if action in _FLAGS:
                continue
            if arg is None:
                arg = next(words, None)
            if arg is None:
                tag(f"option {spelling} is missing its argument")
            elif action == "method":
                explicit_method = arg.upper()
            elif action == "header":
                if name := _GIVEN_HEADER.match(arg):
                    given.add(name.group().lower())
                header = _split_header(arg)
                if header is not None:
                    headers.append(header)
                elif ":" not in arg:
                    tag(f"header {arg!r} has no ':' and is not sent")
            elif action in ("data", "raw", "urlencode", "json"):
                if _names_file(action, arg):
                    message = f"option {spelling} {arg!r} reads a file, which is not supported"
                    tag(message, "E_CURL_UNSUPPORTED")
                if data_parts and action != "json":  # a --json piece joins with nothing
                    data_parts.append("&")
                data_parts.append(_urlencode_data(arg) if action == "urlencode" else arg)
            elif action == "cookie" and "=" not in arg:
                tag(f"cookie file {arg!r} not supported, option skipped")
            elif action == "url":
                if url is None:
                    url = arg
                else:
                    tag(f"extra URL {arg!r} ignored")
            elif action == "skip_arg":
                tag(f"option {spelling} {arg!r} skipped")

    if any(issue.code == "E_CURL_UNSUPPORTED" for issue in issues):
        return None, tuple(issues)
    if url is None:
        tag("no URL in curl command", "E_CURL_NO_URL")
        return None, tuple(issues)

    if "json" in seen:
        headers += [header for header in _JSON_HEADERS if header[0].lower() not in given]

    # Query pairs are stored form-decoded ('+' means space), matching how
    # the data curl moves into the query with -G was encoded.
    base_url, _, qs = url.partition("?")
    query = urllib.parse.parse_qsl(qs, keep_blank_values=True)
    body: tuple[BodyKind, str] | None = None
    if data_parts:
        data = "".join(data_parts)
        if "get" in seen:
            query += urllib.parse.parse_qsl(data, keep_blank_values=True)
        else:
            body = (_classify_body(data, headers), data)

    # As in curl: the -X word, else HEAD for -I, else POST with a body, else GET.
    if explicit_method is not None:
        method = METHODS.get(explicit_method)
        if method is None:
            tag(f"unsupported HTTP method {explicit_method!r}", "E_CURL_UNSUPPORTED")
            return None, tuple(issues)
    elif "head" in seen:
        method = HttpMethod.HEAD
    elif body is not None:
        method = HttpMethod.POST
    else:
        method = HttpMethod.GET

    request = CurlRequest(
        method=method,
        url=base_url,
        headers=tuple(headers),
        body=body,
        query=tuple(query),
    )
    return request, tuple(issues)


def _split_header(arg: str) -> tuple[str, str] | None:
    """The header curl sends for ``-H arg``, or ``None`` when it sends none.

    ``Name: value`` is sent; a blank value removes the header instead.
    Without a ``:``, only ``Name;`` is sent, with an empty value. The name
    is kept exactly as written: curl sends ``' X-Q: 1'`` and ``'X-Q : 1'``
    as lines whose name is not ``X-Q``, so neither is that header.
    """
    name, colon, value = arg.partition(":")
    if colon:
        value = value.strip()
        return (name, value) if name and value else None
    name, semicolon, rest = arg.partition(";")
    return (name, "") if name and semicolon and not rest else None


def _names_file(action: str, arg: str) -> bool:
    """Whether curl reads this data argument from a file rather than sending it.

    ``-d @f``, its aliases and ``--json @f`` read ``f``; ``--data-urlencode``
    reads one for ``@f`` and ``name@f`` (an ``@`` before any ``=``);
    ``--data-raw`` never does.
    """
    if action == "urlencode":
        return _URLENCODE_FILE.match(arg) is not None
    return action in ("data", "json") and arg.startswith("@")


def _urlencode_data(arg: str) -> str:
    # curl --data-urlencode: "name=content" encodes content and passes the
    # name through untouched; "=content" and a bare "content" send the
    # encoded content alone. curl form-encodes (space becomes '+'), verified
    # against curl 7.81 and 7.88.
    name, sep, content = arg.partition("=")
    if not sep:
        return urllib.parse.quote_plus(arg)
    encoded = urllib.parse.quote_plus(content)
    return f"{name}={encoded}" if name else encoded


def _classify_body(data: str, headers: list[tuple[str, str]]) -> BodyKind:
    # Explicit content type wins; otherwise JSON is sniffed; -d family
    # otherwise defaults to form encoding, matching what curl sends.
    content_type = next((v for n, v in headers if n.lower() == "content-type"), None)
    if content_type is not None:
        ct = content_type.split(";")[0].strip().lower()
        if ct in _JSON_CONTENT or ct.endswith("+json"):
            return BodyKind.JSON
        if ct == "application/x-www-form-urlencoded":
            return BodyKind.URL_ENCODED
        return BodyKind.TEXT
    try:
        parse_json(data)  # the decoder every JSON cell goes through
    except ValueError:
        return BodyKind.URL_ENCODED
    return BodyKind.JSON
