"""Seeded random generators for the property-style acceptance checks."""

from __future__ import annotations

import json
import random
import string

from apibind.curl import HttpMethod
from apibind.issues import CATALOG, Stage, make_issue
from apibind.pathtemplate import PathTemplate
from apibind.records import ApiCallRecord, RecordId

_WORD_CHARS = string.ascii_lowercase + string.digits


def gen_word(rng: random.Random, min_len: int = 1, max_len: int = 8) -> str:
    return "".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(min_len, max_len)))


def gen_template(rng: random.Random) -> PathTemplate:
    """Canonical template text and its variable names, built side by side."""
    segments = []
    variables: list[str] = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.4:
            name = gen_word(rng)
            if rng.random() < 0.3:
                name += "-" + gen_word(rng)
            if name in variables:
                continue
            variables.append(name)
            segments.append("{" + name + "}")
        else:
            text = gen_word(rng)
            if rng.random() < 0.2:
                text += rng.choice((".json", "-v2", "~x"))
            segments.append(text)
    return PathTemplate("/" + "/".join(segments), tuple(variables))


def gen_json_doc(
    rng: random.Random,
    depth: int = 2,
    allow_empty_arrays: bool = False,
    names: tuple[str, ...] = ("a", "b", "c"),
):
    """Random JSON document over the given field names, depth-bounded."""
    kinds = ["null", "bool", "int", "float", "str"]
    if depth > 0:
        kinds += ["array", "object", "object"]
    kind = rng.choice(kinds)
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-100, 100)
    if kind == "float":
        return round(rng.uniform(-10, 10), 3) + 0.5
    if kind == "str":
        return gen_word(rng, 0, 5)
    if kind == "array":
        low = 0 if allow_empty_arrays else 1
        return [
            gen_json_doc(rng, depth - 1, allow_empty_arrays, names)
            for _ in range(rng.randint(low, 3))
        ]
    return {
        name: gen_json_doc(rng, depth - 1, allow_empty_arrays, names)
        for name in names
        if rng.random() < 0.6
    }


def nested_json(depth: int) -> str:
    """JSON text of ``depth`` alternately nested arrays and objects around 1.

    Built as text because the stdlib encoder recurses per level.
    """
    opens = "".join('{"a":' if level % 2 else "[" for level in range(depth))
    closes = "".join("}" if level % 2 else "]" for level in reversed(range(depth)))
    return opens + "1" + closes


def gen_record(rng: random.Random, index: int) -> ApiCallRecord:
    """Record with CSV-safe but adversarial field content, for round-trips."""
    atoms = [f"id{index}-{gen_word(rng)}" for _ in range(rng.randint(1, 3))]
    maybe = lambda value: value if rng.random() < 0.7 else None
    issues = tuple(
        make_issue(rng.choice(sorted(CATALOG)), rng.choice(list(Stage)), gen_word(rng, 1, 20))
        for _ in range(rng.randint(0, 3))
    )
    tricky = ['with,comma', 'with "quotes"', "multi\nline", "unicode-é中", "tab\tsep"]
    return ApiCallRecord(
        id=RecordId(tuple(atoms)),
        source_url=f"https://docs.example.com/{gen_word(rng)}",
        http_method=rng.choice(list(HttpMethod)),
        raw_path="/" + "/".join(gen_word(rng) for _ in range(rng.randint(1, 3))),
        raw_curl=maybe(f"curl https://h/{gen_word(rng)}"),
        raw_parameters=maybe(json.dumps([{"name": gen_word(rng), "in": "query"}])),
        request_example=maybe(json.dumps(gen_json_doc(rng, 1))),
        response_example=maybe(json.dumps(gen_json_doc(rng, 1))),
        description=maybe(rng.choice(tricky)),
        group=maybe(gen_word(rng)),
        issues=issues,
    )


def gen_pipeline_row(rng: random.Random, index: int) -> ApiCallRecord:
    """Record as it would arrive from ingestion: possibly broken raw fields."""
    roll = rng.random()
    if roll < 0.25:
        raw_path = f"/v1/{gen_word(rng)}/{{{gen_word(rng)}}}"
    elif roll < 0.35:
        raw_path = f"/v1/{{{gen_word(rng)}"  # unbalanced brace
    elif roll < 0.45:
        raw_path = "/v1/{x}/{x}"  # duplicate variable
    else:
        raw_path = f"/v1/{gen_word(rng)}"

    curl_choices = [
        None,
        "curl https://api.example.com/x",
        "curl -X POST -d '{\"a\":1}' https://api.example.com/x",
        "curl -X PUT https://api.example.com/x",
        "curl 'https://api.example.com/x",  # unterminated quote
        "curl -F 'f=@x' https://api.example.com/x",  # unsupported multipart
        "curl -s",  # no URL
    ]
    params_choices = [
        None,
        json.dumps([{"name": gen_word(rng), "in": "query"}]),
        json.dumps([{"name": "dup", "in": "query"}, {"name": "dup", "in": "query"}]),
        json.dumps([{"in": "path"}]),
        "not-json",
        json.dumps({"name": "scalar"}),
    ]
    return ApiCallRecord(
        id=RecordId.single(f"gen-{index}"),
        source_url="https://docs.example.com/gen",
        http_method=rng.choice(list(HttpMethod)),
        raw_path=raw_path,
        raw_curl=rng.choice(curl_choices),
        raw_parameters=rng.choice(params_choices),
        request_example=rng.choice([None, '{"a":1}', "oops{"]),
        response_example=rng.choice([None, '{"ok":true}']),
        description=None,
        group=rng.choice([None, "g1", "g2"]),
    )


def gen_corpus(rng: random.Random, size: int) -> list[ApiCallRecord]:
    return [gen_pipeline_row(rng, i) for i in range(size)]
