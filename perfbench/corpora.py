"""Seeded corpus generator for the three benchmark shapes, with an oracle.

Stdlib only and independent of ``apibind``: the program under test only
ever sees the CSV files written here. Each corpus comes with an
expected-outcome sidecar built from what the generator planted (which ids
must pass the gate, which must be rejected, how many functions a
``generate`` run must emit), so output checks never ask the program what
the right answer is.

Shapes:

- ``low-sharing``: varied, nested request/response examples whose field
  names come from a large vocabulary, so few object bodies repeat. About
  2% of rows carry one planted error; the rest pass the gate.
- ``high-sharing``: the rows of corpus12 replicated, each replica under its
  own path prefix, plus byte-identical duplicates (all cells but the id) of
  a slice of rows, which ``--merge`` folds without conflicts.
- ``dirty``: rows in the style of the test suite's pipeline generator, most
  carrying a planted defect, plus merge groups of 2-3 rows with conflicting
  fields. Every row has its own merge key apart from those groups.

Run ``python3 perfbench/corpora.py SHAPE SIZE SEED OUT.csv`` to write one
corpus and its ``.oracle.json`` sidecar.
"""

from __future__ import annotations

import csv
import io
import json
import random
import string
import sys
from pathlib import Path

COLUMNS = (
    "record_id",
    "source_url",
    "http_method",
    "path",
    "curl_example",
    "parameters",
    "request_example",
    "response_example",
    "description",
    "group",
)

SHAPES = ("low-sharing", "high-sharing", "dirty")

CORPUS12 = Path(__file__).with_name("corpus12.csv")
#: Rows of corpus12 the gate rejects: r11 repeats a path variable, r12's
#: curl example sends PUT where the row declares POST.
CORPUS12_REJECTED = frozenset({"r11", "r12"})

_WORD_CHARS = string.ascii_lowercase + string.digits
_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_BODY_METHODS = ("POST", "PUT", "PATCH")
_HOST = "https://api.example.com"


def gen_word(rng: random.Random, min_len: int = 1, max_len: int = 8) -> str:
    return "".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(min_len, max_len)))


def _syllable_word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    """Distinct field names in mixed styles, so the identifier policy has work."""
    words: set[str] = set()
    while len(words) < size:
        first = _syllable_word(rng, rng.randint(2, 3))
        style = rng.random()
        if style < 0.5:
            words.add(first)
        elif style < 0.75:
            words.add(first + "_" + _syllable_word(rng, 2))
        else:
            words.add(first + _syllable_word(rng, 2).capitalize())
    return sorted(words)


class _Corpus:
    """Rows plus the oracle the generator plants alongside them."""

    def __init__(self) -> None:
        self.rows: list[dict[str, str]] = []
        self.passed: list[str] = []
        self.rejected: list[str] = []
        #: Valid records after merge: the functions a ``generate`` run emits.
        self.functions = 0
        self.records_after_merge = 0
        self.merge_groups: list[int] = []

    def add(self, row: dict[str, str], ok: bool) -> None:
        self.rows.append(row)
        (self.passed if ok else self.rejected).append(row["record_id"])

    def oracle(self, shape: str, size: int, seed: int) -> dict:
        return {
            "shape": shape,
            "size": size,
            "seed": seed,
            "records": len(self.rows),
            "records_after_merge": self.records_after_merge,
            "merge_group_sizes": sorted(self.merge_groups),
            "passed_ids": sorted(self.passed),
            "rejected_ids": sorted(self.rejected),
            "functions": self.functions,
        }


def _row(**cells: str | None) -> dict[str, str]:
    return {column: cells.get(column) or "" for column in COLUMNS}


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(", ", ": "))


# --- low sharing ------------------------------------------------------------


def _scalar(rng: random.Random):
    kind = rng.random()
    if kind < 0.3:
        return _syllable_word(rng, rng.randint(1, 4))
    if kind < 0.55:
        return rng.randint(-1000, 100000)
    if kind < 0.7:
        return round(rng.uniform(-100, 100), 3) + 0.5
    if kind < 0.85:
        return rng.random() < 0.5
    return None


def _nested_doc(rng: random.Random, vocab: list[str], depth: int, width: int) -> dict:
    """Object with fields from ``vocab``; nested objects and arrays of objects."""
    doc = {}
    for name in rng.sample(vocab, rng.randint(max(2, width // 2), width)):
        roll = rng.random()
        if depth > 0 and roll < 0.25:
            doc[name] = _nested_doc(rng, vocab, depth - 1, max(3, width - 2))
        elif depth > 0 and roll < 0.35:
            doc[name] = [
                _nested_doc(rng, vocab, depth - 1, max(3, width - 3))
                for _ in range(rng.randint(1, 3))
            ]
        elif roll < 0.42:
            doc[name] = [_scalar(rng) for _ in range(rng.randint(1, 4))]
        else:
            doc[name] = _scalar(rng)
    return doc


def _path_with_params(
    rng: random.Random, vocab: list[str], index: int, method: str
) -> tuple[str, list[dict]]:
    """A parseable path whose variables are all declared as path parameters."""
    segments = [f"v{rng.randint(1, 3)}", f"{rng.choice(vocab)}{index}"]
    params: list[dict] = []
    for _ in range(rng.randint(0, 2)):
        var = f"{rng.choice(vocab)}-id"
        if any(p["name"] == var for p in params):
            continue
        segments += [f"{{{var}}}", rng.choice(vocab)]
        params.append({"name": var, "in": "path", "type": "string", "required": "yes"})
    query_in = "query" if method in ("GET", "DELETE") else rng.choice(("query", "header"))
    for name in rng.sample(vocab, rng.randint(0, 3)):
        param = {"name": name, "in": query_in, "type": rng.choice(("integer", "string", "boolean"))}
        if rng.random() < 0.4:
            param["example"] = {"integer": 7, "string": "x", "boolean": True}[param["type"]]
        params.append(param)
    return "/" + "/".join(segments), params


def _curl(method: str, url: str, body: dict | None) -> str:
    if body is None:
        prefix = "curl" if method == "GET" else f"curl -X {method}"
        return f"{prefix} {url}"
    data = json.dumps(body, separators=(",", ":"))
    return f"curl -X {method} -H 'Content-Type: application/json' -d '{data}' {url}"


def gen_low_sharing(rng: random.Random, size: int) -> _Corpus:
    corpus = _Corpus()
    vocab = _vocabulary(rng, 6000)
    groups = [_syllable_word(rng, 2) for _ in range(12)]
    for index in range(size):
        method = rng.choice(("GET", "GET", "POST", "PUT", "PATCH", "DELETE"))
        path, params = _path_with_params(rng, vocab, index, method)
        request = _nested_doc(rng, vocab, 2, 6) if method in _BODY_METHODS else None
        response = _nested_doc(rng, vocab, 3, 8)
        curl = _curl(method, _HOST + path, request) if rng.random() < 0.8 else None
        ok = True
        if rng.random() < 0.02:
            # Planted error: the curl example sends another method.
            other = "DELETE" if method != "DELETE" else "PUT"
            curl = _curl(other, _HOST + path, None)
            ok = False
        corpus.add(
            _row(
                record_id=f"low-{index}",
                source_url=f"https://docs.example.com/ref/{index}",
                http_method=method,
                path=path,
                curl_example=curl,
                parameters=_dumps(params) if params else None,
                request_example=_dumps(request) if request is not None else None,
                response_example=_dumps(response),
                description=f"{method.title()} the {path.split('/')[2]} resource.",
                group=rng.choice(groups),
            ),
            ok,
        )
    corpus.records_after_merge = size
    corpus.functions = len(corpus.passed)
    return corpus


# --- high sharing -----------------------------------------------------------


def _corpus12_rows() -> list[dict[str, str]]:
    with CORPUS12.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def gen_high_sharing(rng: random.Random, size: int) -> _Corpus:
    """Replicas of corpus12 under distinct prefixes; ~10% of rows duplicated."""
    corpus = _Corpus()
    base = _corpus12_rows()
    replicas = max(1, size // len(base))
    duplicates: list[tuple[int, dict[str, str], bool]] = []
    for replica in range(replicas):
        prefix = f"/t{replica:05d}"
        for source in base:
            row = dict(source)
            row["record_id"] = f"t{replica:05d}-{source['record_id']}"
            row["path"] = prefix + source["path"]
            ok = source["record_id"] not in CORPUS12_REJECTED
            corpus.add(row, ok)
            if rng.random() < 0.1:
                dup = dict(row, record_id=row["record_id"] + "-dup")
                duplicates.append((rng.randrange(len(corpus.rows) + 1), dup, ok))
                corpus.merge_groups.append(2)
    # Duplicates land at random positions; merge groups rows by key, not by
    # position. Inserting from the back keeps the earlier positions valid.
    for position, dup, ok in sorted(duplicates, key=lambda item: item[0], reverse=True):
        corpus.rows.insert(position, dup)
        (corpus.passed if ok else corpus.rejected).append(dup["record_id"])
    corpus.records_after_merge = replicas * len(base)
    corpus.functions = replicas * (len(base) - len(CORPUS12_REJECTED))
    return corpus


# --- dirty ------------------------------------------------------------------

#: Planted defects, each forcing at least one error-severity tag.
_DEFECTS = (
    "json_request",
    "json_response",
    "json_params",
    "params_scalar",
    "path_unbalanced",
    "path_dup_var",
    "curl_unterminated",
    "curl_multipart",
    "curl_no_url",
    "curl_method",
    "dup_param",
    "param_no_name",
    "pathvar_undeclared",
    "method_unknown",
)

#: Warning-only variations; rows carrying only these still pass the gate.
_WARNINGS = ("body_on_get", "no_example", "curl_ignored_opt", "param_no_type", None, None, None)


def _dirty_row(rng: random.Random, index: int, defect: str | None) -> dict[str, str]:
    method = rng.choice(("GET", "POST", "PUT", "DELETE"))
    word = gen_word(rng, 3, 8)
    var = gen_word(rng, 2, 6)
    path = f"/v1/n{index}/{word}/{{{var}}}"
    params = [
        {"name": var, "in": "path", "type": "string", "required": "yes"},
        {"name": gen_word(rng, 2, 6) + "q", "in": "query", "type": "integer"},
    ]
    request = {"a": rng.randint(0, 9), "b": gen_word(rng)} if method in _BODY_METHODS else None
    response = {"ok": True, "id": rng.randint(0, 999), "name": gen_word(rng)}
    url = f"{_HOST}/v1/n{index}/{word}/x"
    curl = _curl(method, url, request)
    warning = rng.choice(_WARNINGS)
    cells = dict(
        record_id=f"dirty-{index}",
        source_url=f"https://docs.example.com/gen/{index}",
        http_method=method,
        path=path,
        curl_example=curl,
        parameters=_dumps(params),
        request_example=_dumps(request) if request is not None else None,
        response_example=_dumps(response),
        description=rng.choice(("with,comma", 'with "quotes"', "multi\nline", "plain", None)),
        group=rng.choice(("g1", "g2", "g3", None)),
    )

    if warning == "body_on_get" and method == "GET":
        cells["request_example"] = '{"a": 1}'
    elif warning == "no_example":
        cells.update(curl_example=None, request_example=None, response_example=None)
    elif warning == "curl_ignored_opt":
        cells["curl_example"] = curl.replace("curl", "curl -s --compressed", 1)
    elif warning == "param_no_type":
        del params[1]["type"]
        cells["parameters"] = _dumps(params)

    if defect == "json_request":
        cells["request_example"] = "oops{"
    elif defect == "json_response":
        cells["response_example"] = '{"ok": tru'
    elif defect == "json_params":
        cells["parameters"] = "not-json"
    elif defect == "params_scalar":
        cells["parameters"] = _dumps({"name": "scalar"})
    elif defect == "path_unbalanced":
        cells["path"] = f"/v1/n{index}/{word}/{{{var}"
    elif defect == "path_dup_var":
        cells["path"] = f"/v1/n{index}/{word}/{{x}}/{{x}}"
    elif defect == "curl_unterminated":
        cells["curl_example"] = f"curl '{url}"
    elif defect == "curl_multipart":
        cells["curl_example"] = f"curl -F 'f=@x' {url}"
    elif defect == "curl_no_url":
        cells["curl_example"] = "curl -s"
    elif defect == "curl_method":
        other = "PUT" if method != "PUT" else "GET"
        cells["curl_example"] = _curl(other, url, None)
    elif defect == "dup_param":
        params.append({"name": "dup", "in": "query"})
        params.append({"name": "dup", "in": "query"})
        cells["parameters"] = _dumps(params)
    elif defect == "param_no_name":
        params.append({"in": "query"})
        cells["parameters"] = _dumps(params)
    elif defect == "pathvar_undeclared":
        cells["parameters"] = _dumps(params[1:])
    elif defect == "method_unknown":
        cells["http_method"] = "FETCH"
    return _row(**cells)


def gen_dirty(rng: random.Random, size: int) -> _Corpus:
    """About 70% of rows carry an error; about 15% of rows sit in merge groups."""
    corpus = _Corpus()
    index = 0
    while len(corpus.rows) < size:
        if rng.random() < 0.07:
            # Merge group: same method and path, conflicting description and
            # response example. One broken member rejects the whole group.
            members = rng.randint(2, 3)
            broken = rng.random() < 0.5
            first = _dirty_row(rng, index, None)
            group_rows = [first]
            for member in range(1, members):
                row = dict(first)
                row["record_id"] = f"{first['record_id']}-m{member}"
                row["description"] = f"variant {member}"
                row["response_example"] = _dumps({"ok": True, "variant": member})
                group_rows.append(row)
            if broken:
                group_rows[-1]["request_example"] = "oops{"
            for row in group_rows:
                corpus.add(row, not broken)
            corpus.merge_groups.append(members)
            corpus.functions += not broken
        else:
            defect = rng.choice(_DEFECTS) if rng.random() < 0.75 else None
            corpus.add(_dirty_row(rng, index, defect), defect is None)
            corpus.functions += defect is None
        index += 1
    corpus.records_after_merge = index
    return corpus


_GENERATORS = {
    "low-sharing": gen_low_sharing,
    "high-sharing": gen_high_sharing,
    "dirty": gen_dirty,
}


def generate(shape: str, size: int, seed: int) -> tuple[str, dict]:
    """CSV text and oracle for one corpus; the same arguments give the same bytes."""
    rng = random.Random(f"{shape}:{size}:{seed}")
    corpus = _GENERATORS[shape](rng, size)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(corpus.rows)
    return buffer.getvalue(), corpus.oracle(shape, size, seed)


def write_corpus(shape: str, size: int, seed: int, path: Path) -> dict:
    """Write ``path`` and its ``.oracle.json`` sidecar; reuse them when present."""
    sidecar = path.with_suffix(".oracle.json")
    if path.is_file() and sidecar.is_file():
        return json.loads(sidecar.read_text(encoding="utf-8"))
    text, oracle = generate(shape, size, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
    sidecar.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    return oracle


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in SHAPES:
        sys.exit(f"usage: corpora.py {{{'|'.join(SHAPES)}}} SIZE SEED OUT.csv")
    write_corpus(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4]))
