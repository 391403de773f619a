"""Rules checked on the source text of ``src/apibind``."""

from __future__ import annotations

import ast
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
