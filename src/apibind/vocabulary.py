"""The closed vocabularies a record's cells and parser outputs are written in.

A leaf module: it imports nothing else from ``apibind``, so ingest and
validation name a method or a passing convention without importing the
parsers. ``curl`` re-exports ``HttpMethod``, ``METHODS`` and ``BodyKind``
under their old home, and ``params`` re-exports ``Convention``.

Each vocabulary is a ``StrEnum``: a member is the text every output writes,
and it hashes and compares as that text.
"""

from __future__ import annotations

import enum


class HttpMethod(enum.StrEnum):
    GET = "GET"
    POST = "POST"
    PUT = "PUT"
    PATCH = "PATCH"
    DELETE = "DELETE"
    HEAD = "HEAD"
    OPTIONS = "OPTIONS"


#: Each method by its upper-case name. An ``http_method`` cell is looked up
#: upper-cased; a ``-X`` word as written, since curl sends that word verbatim.
METHODS = {method: method for method in HttpMethod}


class BodyKind(enum.StrEnum):
    JSON = "Json"
    TEXT = "Text"
    URL_ENCODED = "UrlEncoded"


# The declaration order is the rendered signature order (``codegen.ordered_params``).
class Convention(enum.StrEnum):
    PATH = "Path"
    QUERY = "Query"
    BODY_JSON = "BodyJson"
    BODY_TEXT = "BodyText"
    HEADER = "Header"
    COOKIE = "Cookie"
