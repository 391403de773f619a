"""HTTP request path templates: literal segments mixed with variables.

Documentation writes path variables as ``{name}`` or ``:name``; both are
canonicalized to the ``{name}`` form. A parsed template's text is that
canonical form, so parsing it again gives the same template.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .issues import Issue, Stage, make_issue
from .text import UNPRINTABLE

# One alternative per segment class, tried in this order: an empty variable
# (``{}`` or a bare ``:``), ``{name}``, ``:name``, a ``:`` name holding braces,
# braces mixed with literal text, ``<name>`` or ``$name``, and a plain literal.
# ``\Z`` ends the segment; ``$`` would also match before a trailing newline.
_SEGMENT = re.compile(
    r"""(?P<empty>\{\}|:)\Z
      | \{(?P<brace>[^{}]+)\}\Z
      | :(?P<colon>[^{}]+)\Z
      | (?P<colon_braced>:)
      | (?P<braced>[^{}]*[{}])
      | (?P<sigil><[^<>]+>\Z|\$)
      | (?P<literal>)""",
    re.DOTALL | re.VERBOSE,
)
#: Why a literal segment of each suspect class is tagged W_PATH_SUSPECT.
_SUSPECT = {
    "braced": "mixes braces with literal text",
    "sigil": "looks like an unrecognized variable syntax",
}


class PathTemplate(NamedTuple):
    """A parsed path: its canonical text and its variable names in path order.

    ``text`` is the '/'-joined segments with a leading '/' and each variable
    written ``{name}``; the empty template is the root path '/'. The names are
    kept beside the text because a literal segment may hold balanced braces
    (``a{b}c``, ``{a}{b}``), so no simple scan of the text recovers them.
    """

    text: str
    variables: tuple[str, ...]


def parse_path_template(raw: str) -> tuple[PathTemplate | None, tuple[Issue, ...]]:
    """Parse a documented request path into a template.

    Returns ``(template, issues)``; the template is None exactly when an
    E_PATH_SYNTAX error was found. Segments that merely look variable-ish
    (``<name>``, ``$name``, partial braces) stay literal and add a
    W_PATH_SUSPECT warning. A control character or line separator anywhere
    in the path is an error: a rendered module would break its line there.
    """
    if not raw:
        return _syntax_error("empty path")
    control = UNPRINTABLE.search(raw)
    if control:
        return _syntax_error(f"control character {control.group()!r} at offset {control.start()}")

    pos = 1 if raw.startswith("/") else 0  # char offset of the current segment in raw
    body = raw[pos:]
    # A single trailing slash is tolerated and dropped from the canonical form.
    if body.endswith("/"):
        body = body[:-1]

    issues: list[Issue] = []
    parts: list[str] = []
    variables: dict[str, None] = {}  # path order; the keys catch a repeated name
    for part in body.split("/") if body else []:
        match = _SEGMENT.match(part)
        kind = match.lastgroup
        if kind in ("brace", "colon"):
            name = match.group(kind)
            if name in variables:
                return _syntax_error(f"duplicate variable {name!r} at offset {pos}")
            variables[name] = None
            parts.append("{" + name + "}")
        elif kind == "empty":
            return _syntax_error(f"empty variable name at offset {pos}")
        elif kind == "colon_braced" or (kind == "braced" and not _braces_balanced(part)):
            return _syntax_error(f"unbalanced braces at offset {pos}")
        else:
            if kind in _SUSPECT:
                message = f"segment {part!r} {_SUSPECT[kind]}"
                issues.append(make_issue("W_PATH_SUSPECT", Stage.PARSE, message, field="path"))
            parts.append(part)
        pos += len(part) + 1

    return PathTemplate("/" + "/".join(parts), tuple(variables)), tuple(issues)


def _syntax_error(message: str) -> tuple[None, tuple[Issue, ...]]:
    return None, (make_issue("E_PATH_SYNTAX", Stage.PARSE, message, field="path"),)


def _braces_balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0
