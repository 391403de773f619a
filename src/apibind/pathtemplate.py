"""HTTP request path templates: literal segments mixed with variables.

Documentation writes path variables as ``{name}`` or ``:name``; both are
canonicalized to the ``{name}`` form. Rendering a template reproduces its
canonical source string, so parse/render round-trips are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .issues import Issue, Stage, make_issue
from .typeinfer import UNPRINTABLE

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


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Variable:
    name: str


Segment = Literal | Variable


@dataclass(frozen=True)
class PathTemplate:
    segments: tuple[Segment, ...]

    def variables(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.segments if isinstance(s, Variable))

    def render(self) -> str:
        """Canonical string form: '/'-joined segments with a leading '/'.

        The empty template renders as the root path '/'.
        """
        parts = []
        for seg in self.segments:
            if isinstance(seg, Variable):
                parts.append("{" + seg.name + "}")
            else:
                parts.append(seg.text)
        return "/" + "/".join(parts)


def parse_path_template(raw: str) -> tuple[PathTemplate | None, list[Issue]]:
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

    body = raw[1:] if raw.startswith("/") else raw
    # A single trailing slash is tolerated and dropped from the canonical form.
    if body.endswith("/"):
        body = body[:-1]

    issues: list[Issue] = []
    segments: list[Segment] = []
    seen: set[str] = set()
    pos = len(raw) - len(body)  # char offset of the current segment in raw
    for part in body.split("/") if body else []:
        match = _SEGMENT.match(part)
        kind = match.lastgroup
        if kind in ("brace", "colon"):
            name = match.group(kind)
            if name in seen:
                return _syntax_error(f"duplicate variable {name!r} at offset {pos}")
            seen.add(name)
            segments.append(Variable(name))
        elif kind == "empty":
            return _syntax_error(f"empty variable name at offset {pos}")
        elif kind == "colon_braced" or (kind == "braced" and not _braces_balanced(part)):
            return _syntax_error(f"unbalanced braces at offset {pos}")
        else:
            if kind in _SUSPECT:
                message = f"segment {part!r} {_SUSPECT[kind]}"
                issues.append(make_issue("W_PATH_SUSPECT", Stage.PARSE, message, field="path"))
            segments.append(Literal(part))
        pos += len(part) + 1

    return PathTemplate(segments=tuple(segments)), issues


def _syntax_error(message: str) -> tuple[None, list[Issue]]:
    return None, [make_issue("E_PATH_SYNTAX", Stage.PARSE, message, field="path")]


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
