"""The pipeline's contract, end to end through ``cli.main``, on hostile corpora.

Each example is a small corpus of hostile rows, run in process through
``analyze``, ``analyze --merge`` and ``generate --merge``. Whatever the rows
hold, no exception escapes ``main``, only the documented exits occur, no
record is dropped, and the gate rejects exactly the rows with an error tag.
Example inhabitation is checked elsewhere, not here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from apibind.cli import main
from apibind.ingest import STAGE_COLUMNS, load_corpus, record_id_census

from .gen import nested_json

_DEEP = nested_json(200)
_JSON_CELLS = (
    ("", "{}", "null", '{"a":1}', '{"a":[]}', '[{"a":1},{"a":"s"}]', '{"items":[{"id":1}]}',
     '{"a\\nb":1,"":2}'),
    ('"\\ud800"', '{"\\udc00":1}', "NaN", "{", _DEEP),
)
_ISSUE = {"code": "E_PATH_SYNTAX", "stage": "Parse", "message": "m", "field": "path"}
_WARNING = {"code": "W_NO_EXAMPLE", "stage": "Infer", "message": "m"}

#: Per column, cells well-formed on their own, then malformed ones. Among them:
#: line breaks, NUL, ``|`` in ids, empty and odd paths, deep JSON,
#: lone-surrogate escapes, ``issues`` cells, and ids that rows share.
_CELLS = {
    "record_id": (("", "a", "b", "a|b", "|", "a|a", "x\ny", "\x00", " ", "c\r\nd"), ()),
    "source_url": (("", "https://d/x", "https://d/\n", "\x00"), ()),
    "http_method": (("GET", "post", " delete "), ("", "FETCH")),
    "path": (
        ("/", "/v1/x", "/v1/x/", "/v1/{x}", ":id", "/é/ ", "/v1/<x>", "/|/", "v1//x"),
        ("", "/v1/{x}/{x}", "{", "/a\nb", "/\x00"),
    ),
    "curl_example": (
        ("", "curl https://h/v1/x", "curl -X POST -d '{\"a\":1}' https://h/v1/x"),
        ("curl '", "curl -H 'X: \x00' https://h/"),
    ),
    "parameters": (
        ("", "[]", '[{"name":"q|x","in":"query","example":[]}]',
         '[{"name":"b","in":"body","type":"object"}]'),
        ('[{"name":"id","in":"path"}]', "[{", '"\\ud800"', _DEEP),
    ),
    "request_example": _JSON_CELLS,
    "response_example": _JSON_CELLS,
    "description": (("", "line\nbreak", "\x00", " ", "d"), ()),
    "group": (("", "users", "a b", "\n", "misc", "manifest", "Users"), ()),
    "issues": (
        ("", "[]", json.dumps([_WARNING])),
        ("{}", "not json", _DEEP, json.dumps([_ISSUE]),
         '[{"code":"W_UNKNOWN","stage":"Parse","message":"m"}]'),
    ),
}


def _row(hostile: bool) -> st.SearchStrategy[dict[str, str]]:
    """A row's cells; only a ``hostile`` row draws malformed ones."""
    cells = {column: ok + bad if hostile else ok for column, (ok, bad) in _CELLS.items()}
    return st.fixed_dictionaries({column: st.sampled_from(c) for column, c in cells.items()})


_rows = st.lists(_row(False) | _row(True), min_size=1, max_size=5)


def _run(argv: list[object]) -> tuple[int, str]:
    """``main(argv)``'s exit code and what it wrote to stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def _has_error(record) -> bool:
    return any(issue.code.startswith("E_") for issue in record.issues)


def _analyze(corpus: Path, out_dir: Path, *merge: str) -> Counter:
    """Run ``analyze``; check its gate, and return its stage file's id census."""
    assert _run(["analyze", *merge, "--input", corpus, "--out-dir", out_dir]) == (0, "")
    analyzed = load_corpus(out_dir / "analyzed.csv")
    assert [r for r in analyzed if _has_error(r)] == load_corpus(out_dir / "rejects.csv")
    return record_id_census(analyzed)


@settings(max_examples=100, deadline=None)
@given(rows=_rows)
def test_hostile_corpora_keep_the_contract(rows):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        corpus = root / "api.csv"
        with corpus.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(STAGE_COLUMNS)
            writer.writerows([row[column] for column in STAGE_COLUMNS] for row in rows)

        census = _analyze(corpus, root / "plain")
        merged = _analyze(corpus, root / "merged", "--merge")
        # A merge dedupes the id atoms it joins, so an atom two merged rows
        # share counts once; no atom is lost or made up.
        assert merged.keys() == census.keys()
        assert all(merged[atom] <= count for atom, count in census.items())

        generated = root / "generated"
        code, err = _run(["generate", "--merge", "--input", corpus, "--out-dir", generated])
        if code == 1:
            assert err == "no valid records; nothing to generate\n"
            assert all(map(_has_error, load_corpus(root / "merged" / "analyzed.csv")))
            assert not (generated / "build_report.json").exists()
            return
        assert (code, err) == (0, "")
        report = json.loads((generated / "build_report.json").read_text(encoding="utf-8"))
        ids = [fn["record_id"] for fn in report["functions"]] + report["rejected_record_ids"]
        assert Counter(atom for atoms in ids for atom in atoms) == merged
