"""Rules checked on the source text of ``src/apibind``."""

from __future__ import annotations

import ast
import re
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "apibind"

#: ``re`` functions that compile (or look up in ``re``'s cache) a pattern per call.
_PATTERN_CALLS = frozenset({"sub", "match", "search", "split", "finditer", "findall", "fullmatch"})


def string_pattern_calls(source: str, filename: str) -> list[str]:
    """``re.<fn>(...)`` calls passing a string-literal pattern, as ``file:line``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.func.attr in _PATTERN_CALLS
        ):
            continue
        patterns = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "pattern"]
        if any(isinstance(p, ast.Constant) and isinstance(p.value, (str, bytes)) for p in patterns):
            found.append(f"{filename}:{node.lineno}")
    return found


def test_rule_sees_string_patterns():
    source = 're.sub(r"[^a]+", "_", x)\nre.match(pattern="a", string=y)\n_P.sub("_", x)\n'
    assert string_pattern_calls(source, "probe.py") == ["probe.py:1", "probe.py:2"]


def test_no_string_regex_patterns_in_apibind():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += string_pattern_calls(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "compile these patterns at module level: " + ", ".join(found)


#: One lexical unit of a pattern: an escape, a whole character class (a ``]``
#: right after ``[`` or ``[^`` is literal), or any other single character.
_PATTERN_UNIT = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]|.", re.DOTALL)


def dollar_anchors(source: str, filename: str) -> list[str]:
    """``re.compile`` calls whose pattern has a bare ``$`` outside a class, as ``file:line``.

    ``$`` also matches before a trailing newline; ``\\Z`` matches only at the end.
    """
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.func.attr == "compile"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            continue
        if "$" in _PATTERN_UNIT.findall(node.args[0].value):
            found.append(f"{filename}:{node.lineno}")
    return found


def test_rule_sees_dollar_anchors():
    source = r"""
re.compile(r"^a$")
re.compile(r"a\Z|[$]|\$|[^$a]")
re.compile(r"[]$]x|[^]$]")
re.compile(r"[\]$]")
re.compile("b$", re.M)
"""
    assert dollar_anchors(source, "probe.py") == ["probe.py:2", "probe.py:6"]


def test_no_dollar_anchors_in_apibind():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += dollar_anchors(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "end these patterns with \\Z, not $: " + ", ".join(found)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referring_nested_functions(source: str, filename: str) -> list[str]:
    """Functions defined inside a function that use their own name, as ``file:line``.

    Such a function reaches itself through its closure cell, so every call of
    the outer function leaves a function-cell cycle for the cyclic GC.
    """
    nested = {}  # line -> function defined inside another function
    for outer in ast.walk(ast.parse(source, filename)):
        if isinstance(outer, _FUNCTIONS):
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, _FUNCTIONS):
                    nested[node.lineno] = node
    return [
        f"{filename}:{line}"
        for line, node in sorted(nested.items())
        if any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node))
    ]


def test_rule_sees_self_referring_nested_functions():
    source = """
def outer():
    def walk(n):
        return walk(n - 1) if n else 0
    def helper():
        return walk(1)
    return helper()

def top(n):
    return top(n - 1) if n else 0

class C:
    def method(self):
        return self.method

def outer2():
    def inner():
        async def deeper():
            return deeper
        return deeper
    return inner
"""
    assert self_referring_nested_functions(source, "probe.py") == ["probe.py:3", "probe.py:18"]


def test_no_self_referring_nested_functions_in_apibind():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += self_referring_nested_functions(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "make these module-level functions or methods: " + ", ".join(found)


#: What only ``typeinfer`` uses: it alone spells a declaration's raw name and shares one.
_TYPEINFER_ONLY = frozenset({"spell", "share_decl"})


def typeinfer_only_uses(source: str, filename: str) -> list[str]:
    """Imports of ``_TYPEINFER_ONLY`` names, and ``typeinfer.<name>`` reads, as ``file:line``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            hit = any(alias.name in _TYPEINFER_ONLY for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = node.value.id == "typeinfer" and node.attr in _TYPEINFER_ONLY
        else:
            continue
        if hit:
            found.append(f"{filename}:{node.lineno}")
    return found


def test_rule_sees_typeinfer_only_uses():
    source = """
from .typeinfer import fresh_name, spell
from .typeinfer import (
    share_decl,
)
from . import typeinfer
typeinfer.spell(("a",))
typeinfer.replay(registry, trail, base, group)
registry.spell
"""
    assert typeinfer_only_uses(source, "probe.py") == ["probe.py:2", "probe.py:3", "probe.py:7"]


def test_only_typeinfer_spells_and_shares_declarations():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "typeinfer.py":
            found += typeinfer_only_uses(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "call typeinfer.replay or lift_declarations instead: " + ", ".join(found)


def private_imports(source: str, filename: str) -> list[str]:
    """``from <module> import _name`` statements, as ``file:line``.

    A leading underscore says the name is its module's own business; a name
    another module needs is public.
    """
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name.startswith("_") for alias in node.names)
    ]


def test_rule_sees_private_imports():
    source = """
from __future__ import annotations
from .typeinfer import UNPRINTABLE, wire_text
from .typeinfer import (
    IDENTIFIER,
    _wire_text,
)
from apibind.codegen import _JOINS as joins
import apibind._private
typeinfer._hop_text("a")
"""
    assert private_imports(source, "probe.py") == ["probe.py:4", "probe.py:8"]


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += private_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "make these names public or keep them in their module: " + ", ".join(found)


def json_decoder_calls(source: str, filename: str) -> list[str]:
    """``json.loads`` and ``json.load`` calls, as ``file:line``.

    ``text.parse_json`` is the one decoder: it alone bounds a document's
    depth and refuses ``NaN`` and lone surrogates.
    """
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and node.func.attr in ("loads", "load")
    ]


def test_rule_sees_json_decoder_calls():
    source = """
import json
json.loads(text)
doc = json.load(
    fh,
)
json.dumps(doc)
_DECODER.decode(text)
parse_json(text)
"""
    assert json_decoder_calls(source, "probe.py") == ["probe.py:3", "probe.py:4"]


def test_every_json_text_is_decoded_by_parse_json():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += json_decoder_calls(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "decode with text.parse_json: " + ", ".join(found)


def value_reads(source: str, filename: str) -> list[str]:
    """``<expr>.value`` attribute reads, as ``file:line``.

    The vocabularies are ``StrEnum``s, so a member already is the text that
    an output writes; reading its ``.value`` only converts it back.
    """
    return [
        f"{filename}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute)
        and node.attr == "value"
        and isinstance(node.ctx, ast.Load)
    ]


def test_rule_sees_value_reads():
    source = """
name = method.value
text = f"{record.http_method.value.lower()} {value}"
box.value = 1
counts.values()
getattr(member, "value")
"""
    assert value_reads(source, "probe.py") == ["probe.py:2", "probe.py:3"]


def test_no_value_reads_in_apibind():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += value_reads(path.read_text(encoding="utf-8"), path.name)
    assert found == [], "write the StrEnum member itself, not its .value: " + ", ".join(found)
