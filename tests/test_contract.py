"""The pipeline's contract, end to end through ``cli.main``, on hostile corpora.

Each example is a small corpus of hostile rows, run in process through
``analyze``, ``analyze --merge`` and ``generate --merge``. Whatever the rows
hold, no exception escapes ``main``, only the documented exits occur, no
record is dropped (``--merge`` keeps the id census), the gate rejects exactly
the rows with an error tag, and every line ``generate`` writes, to stdout or
to a module, starts as one of its templates' lines does. ``generate`` on the
stage file of ``analyze --merge``, saved under the corpus's name, does what
``generate --merge`` does on the corpus. Without ``--merge``, every
gate-passing record's examples inhabit its published types.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from apibind.cli import main
from apibind.codegen import build_reference
from apibind.ingest import STAGE_COLUMNS, load_corpus, record_id_census
from apibind.parse import parse_record
from apibind.typeinfer import inhabits, parse_json
from apibind.validate import cross_validate, route

from .gen import nested_json
from .universe import expand

_DEEP = nested_json(200)
_JSON_CELLS = (
    ("", "{}", "null", '{"a":1}', '{"a":[]}', '[{"a":1},{"a":"s"}]', '{"items":[{"id":1}]}',
     '{"a\\nb":1,"":2}', '{"a":1,"a":"x"}', '{"":{"":[]}}',
     '{"a: int, b":[{"\\u2028":null}]}'),
    ('"\\ud800"', '{"\\udc00":1}', "NaN", "{", _DEEP),
)
_ISSUE = {"code": "E_PATH_SYNTAX", "stage": "Parse", "message": "m", "field": "path"}
_WARNING = {"code": "W_NO_EXAMPLE", "stage": "Infer", "message": "m"}

#: Per column, cells well-formed on their own, then malformed ones. Among them:
#: line breaks, NUL, ``|`` in ids, empty and odd paths, deep JSON, duplicate
#: and empty JSON keys, keys that read as type syntax, lone-surrogate escapes,
#: ``issues`` cells, and ids that rows share.
_CELLS = {
    "record_id": (("", "a", "b", "a|b", "|", "a|a", "x\ny", "\x00", " ", "c\r\nd"), ()),
    "source_url": (("", "https://d/x", "https://d/\n", "\x00"), ()),
    "http_method": (("GET", "post", " delete "), ("", "FETCH")),
    "path": (
        ("/", "/v1/x", "/v1/x/", "/v1/{x}", ":id", "/é/ ", "/v1/<x>", "/|/", "v1//x"),
        ("", "/v1/{x}/{x}", "{", "/a\nb", "/\x00"),
    ),
    "curl_example": (
        ("", "curl https://h/v1/x", "curl -X POST -d '{\"a\":1}' https://h/v1/x",
         "curl -G -X POST -d k=v https://h/v1/x", "curl -I https://h/v1/x",
         "curl --json '{\"a\":1}' https://h/v1/x", "curl -b 'a=1;b=2' https://h/v1/x",
         "curl -u alice https://h/v1/x"),
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


#: How each line of a neutral-template module or manifest starts, if it is not empty.
_PACKAGE_LINE_STARTS = (
    "module ", "package ", "version ", "source-digest ", "functions ", "types ", "modules",
    "  ", "-- ", "function ", "type ", "}",
)
#: How each line ``generate`` writes to stdout starts.
_STDOUT_LINE_STARTS = ("rejected ", "note ", "package: ")


def _run(argv: list[object]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code and what it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _generate(argv: list[object], out_dir: Path) -> tuple[int, str, str, dict[str, bytes]]:
    """``generate``'s exit code, stdout and stderr (``out_dir`` written ``OUT``), and
    every file it wrote."""
    code, out, err = _run([*argv, "--out-dir", out_dir])
    files = {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }
    return code, out.replace(str(out_dir), "OUT"), err.replace(str(out_dir), "OUT"), files


def _has_error(record) -> bool:
    return any(issue.code.startswith("E_") for issue in record.issues)


def _analyze(corpus: Path, out_dir: Path, *merge: str) -> Counter:
    """Run ``analyze``; check its gate, and return its stage file's id census."""
    code, _, err = _run(["analyze", *merge, "--input", corpus, "--out-dir", out_dir])
    assert (code, err) == (0, "")
    analyzed = load_corpus(out_dir / "analyzed.csv")
    assert [r for r in analyzed if _has_error(r)] == load_corpus(out_dir / "rejects.csv")
    return record_id_census(analyzed)


#: A row of the well-formed cells that make a clean record of ``GET /v1/x`` with id ``a``.
_PLAIN_ROW = {column: ok[0] for column, (ok, _) in _CELLS.items()} | {
    "record_id": "a",
    "path": "/v1/x",
}


def _check_examples_inhabit_their_types(corpus: Path) -> None:
    """Each gate-passing record's examples inhabit its published, ref-expanded types."""
    valid, _ = route([cross_validate(parse_record(record)) for record in load_corpus(corpus)])
    ir = build_reference(valid)
    bodies = {decl.name: decl.body for decl in ir.decls}
    for fn in ir.functions:
        for text, published in (
            (fn.record.request_example, fn.request_type),
            (fn.record.response_example, fn.response_type),
        ):
            if text is not None:
                assert inhabits(parse_json(text), expand(published, bodies)), (text, published)


@settings(max_examples=100, deadline=None)
@given(rows=_rows)
@example(rows=[_PLAIN_ROW, _PLAIN_ROW])  # one call, one atom twice: --merge writes ``a|a``
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
        assert merged == census
        _check_examples_inhabit_their_types(corpus)

        generated = root / "generated"
        direct = _generate(["generate", "--merge", "--input", corpus], generated)
        # Stage fixed point: the merged stage file, saved under the corpus's name.
        restaged = root / "restaged" / corpus.name
        restaged.parent.mkdir()
        shutil.copyfile(root / "merged" / "analyzed.csv", restaged)
        assert _generate(["generate", "--input", restaged], root / "regenerated") == direct

        code, out, err, _ = direct
        assert all(line.startswith(_STDOUT_LINE_STARTS) for line in out.splitlines()), out
        if code == 1:
            assert err == "no valid records; nothing to generate\n"
            assert all(map(_has_error, load_corpus(root / "merged" / "analyzed.csv")))
            assert not (generated / "build_report.json").exists()
            return
        assert (code, err) == (0, "")
        report = json.loads((generated / "build_report.json").read_text(encoding="utf-8"))
        ids = [fn["record_id"] for fn in report["functions"]] + report["rejected_record_ids"]
        assert Counter(atom for atoms in ids for atom in atoms) == merged
        for module in (generated / "package").glob("*.txt"):
            for line in module.read_text(encoding="utf-8").splitlines():
                assert not line or line.startswith(_PACKAGE_LINE_STARTS), (module.name, line)
