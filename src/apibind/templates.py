"""Deliberately small template engine: substitution and list repetition only.

``{{name}}`` substitutes a context string (a ``str`` subclass, such as a
``StrEnum`` member, renders as its text) or number; ``{{#name}}...{{/name}}``
repeats its body once per item of a list of dicts. There is no logic beyond
that, which keeps rendered output predictable enough for byte-exact golden tests.
A placeholder the context cannot resolve is a hard rendering error, never
silent emptiness. A parsed template is a tuple of nodes: a text is a ``str``,
a tag the pair ``(name, children)``, where ``children`` is ``None`` for
``{{name}}`` and the tuple of a section's nodes for ``{{#name}}``.

A template set is two named templates: ``manifest.tpl`` renders once per
package and ``module.tpl`` once per module, walking its ``types`` and
``functions`` lists; the built-in neutral set renders a plain-text
typed-interface description. Real-language sets are plain files
in a directory, so a target language's layout is configuration, not code.
Its type expressions are not: ``typeinfer.format_type`` writes every type in
one fixed grammar (``[string]``, ``int | null``), whatever the template set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from pathlib import Path

#: Every ``{{...}}`` pair, up to the first ``}}``: a tag's kind and its name,
#: which must match ``_NAME`` or the template is malformed.
_TAG = re.compile(r"\{\{([#/]?)(.*?)\}\}", re.DOTALL)
_NAME = re.compile(r"[A-Za-z0-9_]+")
#: Characters of a malformed tag that its ``TemplateError`` quotes.
_QUOTED_TAG_MAX = 60

_MISSING = object()  # a context value no template can hold


class TemplateError(ValueError):
    """A malformed template, an incomplete or unreadable template set, or a
    placeholder or section the context cannot resolve.

    A ``ValueError``, as every other bad input a command refuses is, so the
    CLI reports one without importing this module first.
    """


class Template:
    def __init__(self, name: str, source: str):
        self.name = name
        self.nodes = self._parse(source)

    def _parse(self, source: str) -> tuple:
        # A "{{" after the last "}}" is text: split only up to there, since the
        # scan for "}}" from each such "{{" to the end would make it quadratic.
        cut = source.rfind("}}") + 2
        parts = _TAG.split(source[:cut])  # a text, then each tag's kind, name and next text
        parts[-1] += source[cut:]
        stack: list[tuple[str | None, list]] = [(None, [parts[0]] if parts[0] else [])]
        for kind, name, text in zip(parts[1::3], parts[2::3], parts[3::3]):
            if not _NAME.fullmatch(name):
                tag = "{{" + kind + name + "}}"
                if len(tag) > _QUOTED_TAG_MAX:  # it may run on to the end of the template
                    tag = tag[:_QUOTED_TAG_MAX] + "…"
                raise TemplateError(
                    f"template {self.name!r}: malformed tag {tag!r};"
                    " a tag name is letters, digits and _"
                )
            if kind == "#":
                stack.append((name, []))
            elif kind == "/":
                if len(stack) == 1:
                    raise TemplateError(
                        f"template {self.name!r}: {{{{/{name}}}}} closes no open section"
                    )
                open_name, children = stack.pop()
                if open_name != name:
                    raise TemplateError(
                        f"template {self.name!r}: section {open_name!r} closed as {name!r}"
                    )
                stack[-1][1].append((name, tuple(children)))
            else:
                stack[-1][1].append((name, None))
            if text:
                stack[-1][1].append(text)
        if len(stack) != 1:
            raise TemplateError(f"template {self.name!r}: unclosed section {stack[-1][0]!r}")
        return tuple(stack[0][1])

    def render(self, context: dict) -> str:
        out: list[str] = []
        self._emit(self.nodes, [context], out)
        return "".join(out)

    def _emit(self, nodes: tuple, scopes: list[dict], out: list[str]) -> None:
        """Append ``nodes`` rendered against ``scopes`` to ``out``.

        ``scopes`` is a stack, the render's context at the bottom: a tag reads
        the innermost scope that holds its name, and a section pushes each
        item before rendering its children and pops it afterwards, so no item
        is merged into a copy of the scopes around it.
        """
        innermost = scopes[-1]  # the same for every node here: a section pops what it pushes
        for node in nodes:
            if type(node) is str:
                out.append(node)
                continue
            name, children = node
            value = innermost.get(name, _MISSING)
            if value is _MISSING:
                for scope in reversed(scopes):
                    value = scope.get(name, _MISSING)
                    if value is not _MISSING:
                        break
                else:
                    raise TemplateError(f"template {self.name!r}: unknown placeholder {name!r}")
            if children is None:
                if isinstance(value, str):
                    out.append(value)
                elif type(value) in (int, float):
                    out.append(str(value))
                else:
                    raise TemplateError(
                        f"template {self.name!r}: placeholder {name!r}"
                        f" is a {type(value).__name__}, not a value"
                    )
                continue
            if not isinstance(value, list):
                raise TemplateError(f"template {self.name!r}: section {name!r} is not a list")
            for item in value:
                if not isinstance(item, dict):
                    raise TemplateError(
                        f"template {self.name!r}: section {name!r} items must be objects"
                    )
                scopes.append(item)
                self._emit(children, scopes, out)
                scopes.pop()


@dataclass(frozen=True)
class TemplateSet:
    manifest: Template
    module: Template

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> TemplateSet:
        missing = [name for name in TEMPLATE_NAMES if name not in sources]
        if missing:
            raise TemplateError(f"template set incomplete, missing: {', '.join(missing)}")
        return cls(*(Template(name, sources[name]) for name in TEMPLATE_NAMES))

    @classmethod
    def load_dir(cls, directory: str | Path) -> TemplateSet:
        directory = Path(directory)
        sources: dict[str, str] = {}
        for name in TEMPLATE_NAMES:
            path = directory / name
            if path.is_file():
                try:
                    sources[name] = path.read_text(encoding="utf-8")
                except UnicodeDecodeError as exc:
                    raise TemplateError(f"template {path}: not UTF-8 text: {exc}") from exc
        try:
            return cls.from_sources(sources)
        except TemplateError as exc:
            raise TemplateError(f"template directory {directory}: {exc}") from exc

    @classmethod
    def neutral(cls) -> TemplateSet:
        return cls.from_sources(dict(NEUTRAL_TEMPLATES))


#: A template set's file names, one per ``TemplateSet`` field, in field order.
TEMPLATE_NAMES = tuple(f"{field.name}.tpl" for field in fields(TemplateSet))


# The built-in target: a typed-interface description. One line per concept;
# sections sit flush with the repeated chunk because the engine does no
# standalone-line stripping.
NEUTRAL_TEMPLATES: dict[str, str] = {
    "manifest.tpl": (
        "package {{package_name}}\n"
        "version {{package_version}}\n"
        "source-digest {{corpus_digest}}\n"
        "functions {{function_count}}\n"
        "types {{type_count}}\n"
        "modules\n"
        "{{#modules}}  {{module_file}}\n"
        "{{/modules}}"
    ),
    "module.tpl": (
        "module {{module_name}}\n"
        "package {{package_name}} {{package_version}}\n"
        "\n"
        "{{#types}}type {{type_name}} = {\n"
        "{{#fields}}  {{field_name}}{{optional_mark}}: {{field_type}}{{wire_note}}\n"
        "{{/fields}}"
        "}\n"
        "\n"
        "{{/types}}"
        "{{#functions}}-- {{summary}}\n"
        "-- docs: {{doc_url}}\n"
        "function {{function_name}}({{#signature_params}}{{param_name}}: {{param_type}}{{sep}}{{/signature_params}}) -> {{response_type}}\n"
        "  method {{http_method}}\n"
        "  path {{path_template}}\n"
        "{{#param_lines}}  param {{param_name}} via {{convention}}{{required_mark}}{{wire_note}}\n"
        "{{/param_lines}}"
        "\n"
        "{{/functions}}"
    ),
}
