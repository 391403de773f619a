"""Text rules every stage shares: the one JSON decoder, printable text, fresh names.

A leaf module: it imports nothing else from ``apibind``, so a command that
only loads, parses or re-reads records never imports the type lattice.
``typeinfer`` re-exports every name here under its old home.
"""

from __future__ import annotations

import json
import re

#: Control characters and the two Unicode separators: every character that
#: ``str.splitlines`` breaks on is among them.
UNPRINTABLE = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")

#: A name that most target languages, and a JSON path's ``.name`` hop, take as it is.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: A surrogate code point, which is never half of a pair in a ``str``: UTF-8
#: cannot encode one, so no output file could hold it.
SURROGATE = re.compile("[\ud800-\udfff]")


def wire_text(wire: str) -> str:
    """A wire name, or a record id, as a module or stdout line writes it.

    A name holding a character that could end the line becomes an ASCII JSON
    string (``ensure_ascii=False`` would leave U+0085, U+2028 and U+2029 raw),
    which still names the wire field exactly. So does the empty name, which
    written bare would show nothing.
    """
    return json.dumps(wire) if not wire or UNPRINTABLE.search(wire) else wire


#: Deepest nesting of arrays and objects a document may have. Deeper ones
#: are rejected like malformed ones, so no recursive walk ever sees them.
MAX_JSON_DEPTH = 128
_TOO_DEEP = f"document nested deeper than {MAX_JSON_DEPTH} levels"

#: The escape of a surrogate code point, ``\\uD800`` to ``\\uDFFF``: a
#: strict UTF-8 text can hold a surrogate only through one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


#: Built once: ``json.loads`` with a keyword argument builds a decoder per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_json(text: str):
    """Parse standard JSON; integral lexemes become int, others float.

    A lexeme with a decimal point or exponent is non-integral even when its
    value is whole (``1e3`` types as float). NaN/Infinity are rejected, and
    so are documents nested deeper than ``MAX_JSON_DEPTH`` and documents
    with a key or string that holds a lone surrogate (a ``\\u`` escape of
    half a surrogate pair), which no UTF-8 output can carry.

    Every fault raises ``ValueError``; a decode fault raises the decoder's
    ``json.JSONDecodeError``, whose ``.pos`` is the fault's offset in ``text``.
    """
    try:
        doc = _DECODER.decode(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    # Only a text with that many brackets can nest that deep.
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH and _depth(doc) > MAX_JSON_DEPTH:
        raise ValueError(_TOO_DEEP)
    # Re-encoded without escapes, every key and string of the document shows as it is.
    if _SURROGATE_ESCAPE.search(text):
        lone = SURROGATE.search(json.dumps(doc, ensure_ascii=False))
        if lone:
            raise ValueError(f"lone surrogate \\u{ord(lone.group()):04x} in a string")
    return doc


def _depth(doc: object) -> int:
    """Longest chain of nested arrays and objects in a decoded document."""
    deepest = 0
    stack = [(doc, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, dict):
            node = node.values()
        elif not isinstance(node, list):
            continue
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node)
    return deepest


def fresh_name(name: str, taken: dict[str, int]) -> str:
    """First of ``name``, ``name_2``, ``name_3``, ... not in ``taken``; adds it to ``taken``.

    ``taken`` maps each name handed out to the next suffix to try when it
    comes back as a base: every suffix below that one is taken, and ``taken``
    only grows, so resuming there returns what probing from ``_2`` would.
    """
    suffix = taken.get(name)
    if suffix is None:
        taken[name] = 2
        return name
    final = f"{name}_{suffix}"
    while final in taken:
        suffix += 1
        final = f"{name}_{suffix}"
    taken[name] = suffix + 1
    taken[final] = 2
    return final
