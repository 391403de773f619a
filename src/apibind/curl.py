"""Parse documented ``curl`` command lines into structured HTTP requests.

Documentation snippets carry a practical subset of curl's surface:
``-X/--request``, ``-H/--header``, ``-d/--data/--data-raw/--data-urlencode``,
``-G/--get``, ``-b/--cookie``, ``-u/--user``, ``--url`` and a positional URL.
Anything else is skipped with a warning; multipart (``-F``) is rejected
because it has no passing convention in this pipeline.
"""

from __future__ import annotations

import enum
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


class BodyKind(enum.Enum):
    JSON = "Json"
    TEXT = "Text"
    URL_ENCODED = "UrlEncoded"


@dataclass(frozen=True)
class CurlRequest:
    method: HttpMethod
    url: str
    headers: tuple[tuple[str, str], ...] = ()
    cookies: tuple[tuple[str, str], ...] = ()
    body: tuple[BodyKind, str] | None = None
    query: tuple[tuple[str, str], ...] = ()
    auth_user: str | None = None


class TokenizeError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def tokenize_shell(raw: str) -> list[str]:
    """Split a command line into words, shell-style.

    Whitespace separates words; single quotes are fully literal; inside
    double quotes a backslash escapes only ``"`` and ``\\``; a backslash
    before a newline (outside single quotes) is a line continuation and
    disappears. Raises TokenizeError on an unterminated quote.
    """
    tokens: list[str] = []
    current: list[str] = []
    started = False
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch in " \t\n\r":
            if started:
                tokens.append("".join(current))
                current, started = [], False
            i += 1
        elif ch == "\\" and i + 1 < n and raw[i + 1] == "\n":
            i += 2
        elif ch == "'":
            started = True
            end = raw.find("'", i + 1)
            if end == -1:
                raise TokenizeError("unterminated single quote", i)
            current.append(raw[i + 1 : end])
            i = end + 1
        elif ch == '"':
            started = True
            start = i
            i += 1
            while True:
                if i >= n:
                    raise TokenizeError("unterminated double quote", start)
                c = raw[i]
                if c == '"':
                    i += 1
                    break
                if c == "\\" and i + 1 < n and raw[i + 1] in ('"', "\\"):
                    current.append(raw[i + 1])
                    i += 2
                elif c == "\\" and i + 1 < n and raw[i + 1] == "\n":
                    i += 2
                else:
                    current.append(c)
                    i += 1
        elif ch == "\\" and i + 1 < n:
            started = True
            current.append(raw[i + 1])
            i += 2
        else:
            started = True
            current.append(ch)
            i += 1
    if started:
        tokens.append("".join(current))
    return tokens


# Spellings for the options this parser understands.
_METHOD_OPTS = {"-X", "--request"}
_HEADER_OPTS = {"-H", "--header"}
_DATA_OPTS = {"-d", "--data", "--data-raw"}
_DATA_URLENCODE = {"--data-urlencode"}
_GET_OPTS = {"-G", "--get"}
_COOKIE_OPTS = {"-b", "--cookie"}
_USER_OPTS = {"-u", "--user"}
_URL_OPTS = {"--url"}
_UNSUPPORTED_OPTS = {"-F", "--form", "--form-string"}

# Common display-only or transport flags seen in documentation, used to skip
# unknown options together with their argument when they take one.
_IGNORED_NO_ARG = {
    "-s", "--silent", "-S", "--show-error", "-v", "--verbose", "-i", "--include",
    "-k", "--insecure", "-L", "--location", "-f", "--fail", "-g", "--globoff",
    "--compressed", "--http1.1", "--http2", "-I", "--head", "-#", "--progress-bar",
}
_IGNORED_WITH_ARG = {
    "-o", "--output", "-A", "--user-agent", "-e", "--referer", "-m", "--max-time",
    "--connect-timeout", "--retry", "--cacert", "--capath", "--cert", "--key",
    "-c", "--cookie-jar", "-w", "--write-out", "-T", "--upload-file", "--limit-rate",
}

_JSON_CONTENT = ("application/json",)


def parse_curl(raw: str) -> tuple[CurlRequest | None, list[Issue]]:
    """Parse one curl command line.

    Returns ``(request, issues)``; the request is None when the line could
    not be tokenized or names no URL. Placeholders like ``{var}`` in the URL
    are preserved verbatim.
    """
    issues: list[Issue] = []
    try:
        tokens = tokenize_shell(raw)
    except TokenizeError as exc:
        return None, [make_issue("E_CURL_TOKENIZE", Stage.PARSE, str(exc), field="curl_example")]
    if tokens and tokens[0] == "curl":
        tokens = tokens[1:]

    explicit_method: str | None = None
    force_get = False
    headers: list[tuple[str, str]] = []
    cookies: list[tuple[str, str]] = []
    data_parts: list[str] = []
    auth_user: str | None = None
    url: str | None = None

    def warn(msg: str) -> None:
        issues.append(make_issue("W_CURL_OPT_IGNORED", Stage.PARSE, msg, field="curl_example"))

    i = 0
    while i < len(tokens):
        tok = tokens[i]

        def take_arg() -> str | None:
            nonlocal i
            if i + 1 >= len(tokens):
                warn(f"option {tok} is missing its argument")
                return None
            i += 1
            return tokens[i]

        if tok in _METHOD_OPTS:
            arg = take_arg()
            if arg is not None:
                explicit_method = arg.upper()
        elif tok in _HEADER_OPTS:
            arg = take_arg()
            if arg is not None:
                headers.append(_split_header(arg))
        elif tok in _DATA_OPTS:
            arg = take_arg()
            if arg is not None:
                data_parts.append(arg)
        elif tok in _DATA_URLENCODE:
            arg = take_arg()
            if arg is not None:
                data_parts.append(_urlencode_data(arg))
        elif tok in _GET_OPTS:
            force_get = True
        elif tok in _COOKIE_OPTS:
            arg = take_arg()
            if arg is not None:
                if "=" in arg:
                    cookies.extend(_split_cookies(arg))
                else:
                    warn(f"cookie file {arg!r} not supported, option skipped")
        elif tok in _USER_OPTS:
            arg = take_arg()
            if arg is not None:
                auth_user = arg
        elif tok in _URL_OPTS:
            arg = take_arg()
            if arg is not None and url is None:
                url = arg
            elif arg is not None:
                warn(f"extra URL {arg!r} ignored")
        elif tok in _UNSUPPORTED_OPTS:
            issues.append(
                make_issue(
                    "E_CURL_UNSUPPORTED",
                    Stage.PARSE,
                    f"multipart option {tok} is not supported",
                    field="curl_example",
                )
            )
            take_arg()
        elif tok.startswith("-") and tok != "-":
            if tok in _IGNORED_WITH_ARG:
                arg = take_arg()
                if arg is not None:
                    warn(f"option {tok} {arg!r} skipped")
            elif "=" in tok and tok.startswith("--"):
                warn(f"option {tok!r} skipped")
            else:
                if tok not in _IGNORED_NO_ARG:
                    warn(f"unknown option {tok} skipped")
                else:
                    warn(f"option {tok} skipped")
        else:
            if url is None:
                url = tok
            else:
                warn(f"extra URL {tok!r} ignored")
        i += 1

    if any(issue.code == "E_CURL_UNSUPPORTED" for issue in issues):
        return None, issues
    if url is None:
        issues.append(make_issue("E_CURL_NO_URL", Stage.PARSE, "no URL in curl command", field="curl_example"))
        return None, issues

    base_url, query = _split_url(url)
    body: tuple[BodyKind, str] | None = None
    if data_parts:
        data = "&".join(data_parts)
        if force_get:
            query = query + _split_query(data)
        else:
            body = (_classify_body(data, headers), data)

    if force_get:
        method = HttpMethod.GET
    elif explicit_method is not None:
        try:
            method = HttpMethod(explicit_method)
        except ValueError:
            issues.append(
                make_issue(
                    "E_CURL_UNSUPPORTED",
                    Stage.PARSE,
                    f"unsupported HTTP method {explicit_method!r}",
                    field="curl_example",
                )
            )
            return None, issues
    elif body is not None:
        method = HttpMethod.POST
    else:
        method = HttpMethod.GET

    request = CurlRequest(
        method=method,
        url=base_url,
        headers=tuple(headers),
        cookies=tuple(cookies),
        body=body,
        query=tuple(query),
        auth_user=auth_user,
    )
    return request, issues


def _split_header(arg: str) -> tuple[str, str]:
    if ":" in arg:
        name, value = arg.split(":", 1)
        return name.strip(), value.strip()
    return arg.strip(), ""


def _split_cookies(arg: str) -> list[tuple[str, str]]:
    pairs = []
    for chunk in arg.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" in chunk:
            name, value = chunk.split("=", 1)
            pairs.append((name, value))
        else:
            pairs.append((chunk, ""))
    return pairs


def _urlencode_data(arg: str) -> str:
    # curl --data-urlencode: "name=content" encodes content, bare "content"
    # encodes the whole argument; the name is passed through untouched.
    # curl form-encodes (space becomes '+'), verified against curl 7.81.
    if "=" in arg:
        name, value = arg.split("=", 1)
        return f"{name}={urllib.parse.quote_plus(value)}"
    return urllib.parse.quote_plus(arg)


def _split_url(url: str) -> tuple[str, tuple[tuple[str, str], ...]]:
    if "?" not in url:
        return url, ()
    base, _, qs = url.partition("?")
    return base, _split_query(qs)


def _split_query(qs: str) -> tuple[tuple[str, str], ...]:
    # Query pairs are stored form-decoded ('+' means space), matching how
    # the data curl moves into the query with -G was encoded.
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
