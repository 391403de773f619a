from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from apibind import ingest
from apibind.cli import main
from apibind.curl import HttpMethod
from apibind.ingest import (
    STAGE_COLUMNS,
    CorpusError,
    issue_tally,
    load_corpus,
    merge_corpus,
    record_id_census,
    stage_lines,
    write_stage,
)
from apibind.issues import Stage, make_issue
from apibind.parse import parse_record
from apibind.records import STAGE_FIELDS, ApiCallRecord, RecordId
from apibind.validate import dashboard, dashboard_to_json, render_dashboard_text

from .gen import gen_record
from .test_contract import _row as contract_row

HEADER = (
    "record_id,source_url,http_method,path,curl_example,parameters,"
    "request_example,response_example,description,group"
)


def write_csv(tmp_path, body: str, name: str = "corpus.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + body, encoding="utf-8")
    return path


def test_stage_columns_are_the_records_leading_fields():
    assert len(STAGE_COLUMNS) == len(STAGE_FIELDS)
    assert list(zip(STAGE_COLUMNS, STAGE_FIELDS)) == [
        ("record_id", "id"),
        ("source_url", "source_url"),
        ("http_method", "http_method"),
        ("path", "raw_path"),
        ("curl_example", "raw_curl"),
        ("parameters", "raw_parameters"),
        ("request_example", "request_example"),
        ("response_example", "response_example"),
        ("description", "description"),
        ("group", "group"),
        ("issues", "issues"),
    ]


def test_load_corpus12(corpus12_path):
    records = load_corpus(corpus12_path)
    assert len(records) == 12
    assert records[0].id == RecordId.single("r01")
    assert records[0].http_method is HttpMethod.GET
    assert records[6].group is None  # empty cell reads back as absent


def test_byte_order_mark_accepted(corpus12_path, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + corpus12_path.read_bytes())
    assert load_corpus(path) == load_corpus(corpus12_path)


def test_clean_row_has_no_issues(tmp_path):
    path = write_csv(tmp_path, 'a1,https://d/x,GET,/v1/x,,,,,desc,\n')
    (record,) = load_corpus(path)
    assert record.issues == ()


def test_json_cells_kept_as_raw_text(tmp_path):
    # ingest reads CSV only; parse_record is where these cells are checked
    path = write_csv(tmp_path, 'a1,https://d/x,GET,/v1/x,,not-json,{a,[1,,\n')
    (record,) = load_corpus(path)
    assert record.issues == ()
    assert (record.raw_parameters, record.request_example, record.response_example) == (
        "not-json",
        "{a",
        "[1",
    )


def test_rows_never_disappear(tmp_path):
    rows = "".join(
        f"id{i},https://d/x,{'GET' if i % 2 else 'BOGUS'},/v1/x,,{'not-json' if i % 3 == 0 else ''},,,,\n"
        for i in range(10)
    )
    records = load_corpus(write_csv(tmp_path, rows))
    assert len(records) == 10


def test_unknown_method_tagged_and_defaulted(tmp_path):
    path = write_csv(tmp_path, 'a1,https://d/x,FETCH,/v1/x,,,,,,\n')
    (record,) = load_corpus(path)
    assert [i.code for i in record.issues] == ["E_METHOD_UNKNOWN"]
    assert record.http_method is HttpMethod.GET


def test_rows_sharing_an_issues_cell_each_get_its_tags(tmp_path):
    """Each distinct ``issues`` cell is decoded once per file, a failed decode too:
    every row sharing a malformed cell gets its own Ingest E_JSON_CELL tag."""
    bogus = json.dumps([{"code": "E_BOGUS", "severity": "Error", "stage": "Parse", "message": "m"}])
    good = json.dumps([make_issue("W_NO_EXAMPLE", Stage.PARSE, "m").to_json()])
    cells = [bogus, "not-json", bogus, good, "not-json", bogus, good, "[]", bogus]
    methods = ["GET"] * (len(cells) - 1) + ["FETCH"]

    def stage_file(name: str, indices: list[int]):
        path = tmp_path / name
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(STAGE_COLUMNS)
            for i in indices:
                writer.writerow([f"r{i}", "https://d/x", methods[i], "/v1/x", *[""] * 6, cells[i]])
        return path

    records = load_corpus(stage_file("shared.csv", list(range(len(cells)))))
    # Each row reads back as it does from a file of its own.
    alone = [load_corpus(stage_file(f"alone{i}.csv", [i]))[0] for i in range(len(cells))]
    assert records == alone
    tags = [[(i.code, i.stage, i.field) for i in r.issues] for r in records]
    cell_fault = ("E_JSON_CELL", Stage.INGEST, "issues")
    assert tags[0] == tags[1] == tags[2] == tags[4] == tags[5] == [cell_fault]
    assert tags[3] == tags[6] == [("W_NO_EXAMPLE", Stage.PARSE, None)]
    assert tags[7] == []
    assert tags[8] == [("E_METHOD_UNKNOWN", Stage.INGEST, "http_method"), cell_fault]
    assert "E_BOGUS" in records[0].issues[0].message


@pytest.mark.parametrize(
    "cell, found",
    [
        ("{}", "an object"),
        ('""', "a string"),
        ('{"code": "W_NO_EXAMPLE", "stage": "Parse", "message": "m"}', "an object"),
        ("7", "a number"),
        ("null", "null"),
    ],
)
def test_issues_cell_that_is_not_an_array_is_tagged(tmp_path, cell, found):
    path = tmp_path / "stage.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STAGE_COLUMNS)
        writer.writerow(["r1", "https://d/x", "GET", "/v1/x", *[""] * 6, cell])
    (record,) = load_corpus(path)
    assert [(i.code, i.stage, i.field) for i in record.issues] == [
        ("E_JSON_CELL", Stage.INGEST, "issues")
    ]
    expected = f"issues cell is not a valid issue list: expected a JSON array, found {found}"
    assert record.issues[0].message == expected


def test_missing_record_id_synthesized(tmp_path):
    body = ",https://d/x,GET,/v1/x,,,,,,\n,https://d/y,GET,/v1/y,,,,,,\n"
    records = load_corpus(write_csv(tmp_path, body, name="things.csv"))
    assert [str(r.id) for r in records] == ["things:1", "things:2"]


def test_inputs_with_one_stem_get_distinct_fallback_ids(tmp_path):
    body = ",https://d/x,GET,/v1/x,,,,,,\n"
    taken: dict[str, int] = {}
    ids = []
    for directory in ("d1", "d2", "d3"):
        (tmp_path / directory).mkdir()
        path = write_csv(tmp_path / directory, body, name="a.csv")
        ids += [str(record.id) for record in load_corpus(path, taken_stems=taken)]
    assert ids == ["a:1", "a_2:1", "a_3:1"]
    assert [str(record.id) for record in load_corpus(path)] == ["a:1"]


@settings(max_examples=60)
@given(cells=st.lists(st.text(alphabet="ab|", max_size=6), min_size=1, max_size=4))
@example(cells=["a|a"])  # a repeated atom is kept
def test_record_ids_survive_a_stage_round_trip(tmp_path_factory, cells):
    # '|' alone, '', 'a||b' and '|a|' hold empty atoms, which a written cell cannot keep
    directory = tmp_path_factory.mktemp("ids")
    body = "".join(f"{cell},https://d/x,GET,/v1/x,,,,,,\n" for cell in cells)
    records = load_corpus(write_csv(directory, body))
    assert [record.id for record in records] == [
        tuple(filter(None, cell.split("|"))) or (f"corpus:{row}",)
        for row, cell in enumerate(cells, start=1)
    ]
    out = directory / "stage.csv"
    write_stage(records, out)
    assert [record.id for record in load_corpus(out)] == [record.id for record in records]


def test_missing_file_is_corpus_error(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "absent.csv")


def test_missing_columns_is_corpus_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("record_id,source_url\nx,y\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus(path)


@pytest.mark.parametrize("column", ["path", "issues"])
def test_a_column_named_twice_is_corpus_error(tmp_path, column):
    """Either copy's cells would be lost; the loader reads one cell per column."""
    path = tmp_path / "twice.csv"
    path.write_text(
        f"{HEADER},issues,{column}\nr1,https://d/x,GET,/a,,,,,,,,/b\n", encoding="utf-8"
    )
    with pytest.raises(CorpusError, match=rf"twice\.csv has duplicate columns: {column}\Z"):
        load_corpus(path)


def test_ragged_long_row_is_corpus_error(tmp_path):
    path = write_csv(tmp_path, "a,b,GET,/x,,,,,,,EXTRA,MORE\n")
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_text_that_is_not_utf8_is_corpus_error(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(HEADER.encode() + b"\nr1,https://d/caf\xe9,GET,/v1/x,,,,,,\n")
    with pytest.raises(CorpusError) as caught:
        load_corpus(path)
    assert str(caught.value).startswith(f"cannot read corpus {path}: not UTF-8 text: ")


def test_framing_faults_name_the_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    # The quote opened in r1's first cell is never closed.
    unterminated = write_csv(
        tmp_path, '"r1,https://x,GET,/a,,,,,,\nr2,https://x,GET,/b,,,,,,\nr3,https://x,GET,/c,,,,,,\n'
    )
    for path, message in (
        (empty, f"{empty} has no header row"),
        (unterminated, f"malformed CSV in {unterminated}: unexpected end of data"),
    ):
        with pytest.raises(CorpusError) as caught:
            load_corpus(path)
        assert str(caught.value) == message


def make_record(atom="r1", **kwargs):
    """A parsed record, as ``merge_corpus`` expects."""
    defaults = dict(
        id=RecordId.single(atom),
        source_url="https://d/x",
        http_method=HttpMethod.GET,
        raw_path="/v1/users/{id}",
    )
    defaults.update(kwargs)
    return parse_record(ApiCallRecord(**defaults))


class TestMerge:
    def test_identical_records_merge_ids(self):
        [merged] = merge_corpus([make_record("r1"), make_record("r2")])
        assert merged.id == RecordId(("r1", "r2"))
        assert merged.issues == ()

    def test_repeated_atoms_are_kept(self):
        [merged] = merge_corpus([make_record("a"), make_record("a")])
        assert merged.id == RecordId(("a", "a"))

    def test_fill_missing_fields_from_second(self):
        a = make_record("r1")
        b = make_record("r2", raw_curl="curl https://h/x")
        [merged] = merge_corpus([a, b])
        assert merged.raw_curl == "curl https://h/x"
        assert merged.curl == b.curl

    def test_artifacts_follow_the_kept_cell(self):
        a = make_record("r1", raw_curl="curl https://h/a", raw_parameters='[{"name":"x"}]')
        b = make_record("r2", raw_curl="curl https://h/b", raw_parameters='[{"name":"y"}]')
        [merged] = merge_corpus([a, b])
        assert (merged.path, merged.curl, merged.params) == (a.path, a.curl, a.params)
        codes = [i.code for i in merged.issues]
        assert codes.count("W_MERGE_CONFLICT") == 2  # one per cell, none per artifact

    def test_conflicting_fields_keep_first_and_warn(self):
        a = make_record("r1", description="first")
        b = make_record("r2", description="second")
        [merged] = merge_corpus([a, b])
        assert merged.description == "first"
        assert [i.code for i in merged.issues] == ["W_MERGE_CONFLICT"]

    def test_different_calls_stay_apart_untagged(self):
        a = make_record("r1")
        b = make_record("r2", raw_path="/other")
        assert merge_corpus([a, b]) == [a, b]

    def test_key_uses_canonical_path(self):
        a = make_record("r1", raw_path="/v1/users/{id}")
        b = make_record("r2", raw_path="/v1/users/:id")
        [merged] = merge_corpus([a, b])
        assert merged.id == RecordId(("r1", "r2"))

    def test_issue_lists_concatenate(self):
        issue_a = make_issue("W_NO_EXAMPLE", Stage.PARSE, "a")
        issue_b = make_issue("E_JSON_CELL", Stage.INGEST, "b", field="parameters")
        [merged] = merge_corpus(
            [make_record("r1", issues=(issue_a,)), make_record("r2", issues=(issue_b,))]
        )
        assert merged.issues == (issue_a, issue_b)

    def test_identical_tags_kept_once(self):
        issue = make_issue("E_PARAM_NO_NAME", Stage.PARSE, "same", field="parameters")
        a, b = make_record("r1", issues=(issue,)), make_record("r2", issues=(issue,))
        assert merge_corpus([a, b])[0].issues == (issue,)

    def test_merge_corpus_folds_in_order(self):
        records = [make_record("r1"), make_record("r2", raw_path="/other"), make_record("r3")]
        merged = merge_corpus(records)
        assert [str(r.id) for r in merged] == ["r1|r3", "r2"]
        assert record_id_census(merged) == record_id_census(records)


class TestWriteStage:
    def test_empty_list_writes_header_only(self, tmp_path):
        out = tmp_path / "stage.csv"
        write_stage([], out)
        text = out.read_text(encoding="utf-8")
        assert text.strip() == HEADER.replace("\r", "") + ",issues"
        assert load_corpus(out) == []

    def test_issue_cell_is_json_array(self, tmp_path):
        record = make_record(
            issues=(
                make_issue("W_NO_EXAMPLE", Stage.PARSE, "m1"),
                make_issue("E_JSON_CELL", Stage.INGEST, "m2", field="parameters"),
            )
        )
        out = tmp_path / "stage.csv"
        write_stage([record], out)
        with out.open(encoding="utf-8", newline="") as fh:
            header, row = list(csv.reader(fh))
        issues = json.loads(row[header.index("issues")])
        assert len(issues) == 2
        assert issues[0]["code"] == "W_NO_EXAMPLE"
        assert issues[1]["field"] == "parameters"

    def test_issue_cells_equal_json_dumps_through_the_memo(self, tmp_path, monkeypatch):
        """Each issues cell is ``json.dumps(..., ensure_ascii=False)`` of its tags, also
        when repeats outnumber the memo and entries are evicted."""
        monkeypatch.setattr(ingest, "ISSUES_MEMO", 2)
        tags = [
            make_issue("W_NO_EXAMPLE", Stage.PARSE, "ü \"quoted\", \n 中"),
            make_issue("E_JSON_CELL", Stage.INGEST, "m", field="parameters"),
            make_issue("W_NO_EXAMPLE", Stage.VALIDATE, "\x00\u2028"),
        ]
        choices = [(), tags[:1], tags[1:], tags, tags[::-1], tags[2:], tags[:2]]
        rng = random.Random(5)
        records = [make_record(f"r{i}", issues=tuple(rng.choice(choices))) for i in range(60)]
        out = tmp_path / "stage.csv"
        write_stage(records, out)
        with out.open(encoding="utf-8", newline="") as fh:
            cells = [row[-1] for row in list(csv.reader(fh))[1:]]
        assert cells == [
            json.dumps([issue.to_json() for issue in record.issues], ensure_ascii=False)
            for record in records
        ]

    def test_round_trip_corpus12(self, corpus12_path, tmp_path):
        # plus a row with a broken JSON cell: re-parsing must not tag it twice
        corpus = tmp_path / "corpus.csv"
        bad_row = "bad,https://d/x,GET,/v1/bad,,not-json,,,,\r\n"
        corpus.write_text(corpus12_path.read_text(encoding="utf-8") + bad_row, encoding="utf-8")
        records = [parse_record(r) for r in load_corpus(corpus)]
        assert [i.code for i in records[-1].issues] == ["E_JSON_CELL"]
        out = tmp_path / "stage.csv"
        write_stage(records, out)
        assert [parse_record(r) for r in load_corpus(out)] == records

    def test_seeded_round_trip(self, tmp_path):
        rng = random.Random(11)
        records = [gen_record(rng, i) for i in range(80)]
        out = tmp_path / "stage.csv"
        write_stage(records, out)
        assert load_corpus(out) == records

    def test_stage_text_deterministic(self, tmp_path):
        rng = random.Random(3)
        records = [gen_record(rng, i) for i in range(5)]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_stage(records, first)
        write_stage(records, second)
        assert first.read_bytes() == second.read_bytes()


#: Text that is empty, or holds what a CSV writer must quote or may mishandle.
_hostile = st.text(
    alphabet=st.sampled_from(',"\r\n\x00\x0b\u2028| a') | st.characters(blacklist_categories=("Cs",)),
    max_size=8,
)


class _Lines(list):
    """A ``csv.writer`` target that keeps each line it writes."""

    write = list.append


@settings(max_examples=200)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(_hostile.filter(bool), min_size=1, max_size=3),
            st.sampled_from(list(HttpMethod)),
            st.lists(st.none() | _hostile, min_size=8, max_size=8),
            st.lists(
                st.builds(make_issue, st.just("W_NO_EXAMPLE"), st.sampled_from(list(Stage)), _hostile),
                max_size=2,
            ),
        ),
        max_size=6,
    )
)
def test_stage_lines_equal_csv_writer_lines(rows):
    """Each line ``stage_lines`` yields is the one ``csv.writer`` writes for that row."""
    records = [
        ApiCallRecord(
            RecordId(tuple(atoms)), texts[0], method, *texts[1:], issues=tuple(issues)
        )
        for atoms, method, texts, issues in rows
    ]
    lines = _Lines()
    writer = csv.writer(lines)
    writer.writerow(STAGE_COLUMNS)
    for record in records:
        issues = json.dumps([issue.to_json() for issue in record.issues], ensure_ascii=False)
        writer.writerow([str(record.id), *record[1 : len(STAGE_FIELDS) - 1], issues])
    assert list(stage_lines(records)) == lines


_cell = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)


#: The record fields of the stage's eight text cells: each is None exactly when its cell is empty.
_TEXT_FIELDS = [name for name in STAGE_FIELDS if name not in ("id", "http_method", "issues")]


@settings(max_examples=60)
@given(
    atom=st.from_regex(r"[a-zA-Z0-9_.:-]{1,12}", fullmatch=True),
    texts=st.fixed_dictionaries({name: st.none() | _cell for name in _TEXT_FIELDS}),
    method=st.sampled_from(list(HttpMethod)),
)
@example(  # a NUL byte is data in every cell, written and read back as it is
    atom="r1",
    texts={name: f"a\x00{name}" for name in _TEXT_FIELDS},
    method=HttpMethod.GET,
)
def test_round_trip_hypothesis(tmp_path_factory, atom, texts, method):
    assert len(texts) == 8
    record = ApiCallRecord(id=RecordId.single(atom), http_method=method, **texts)
    out = tmp_path_factory.mktemp("rt") / "stage.csv"
    write_stage([record], out)
    assert load_corpus(out) == [record]


# --- issue_tally: the stage file's issue tuples, counted without records --------------


def _stage_cells(method: str = "GET", issues: str = "") -> list[str]:
    """A stage row's cells, in ``STAGE_COLUMNS`` order."""
    return ["r1", "https://d/x", method, "/v1/x", "", "", "", "", "", "", issues]


def _record_cells(seed: int) -> list[str]:
    """The stage cells of a drawn ``gen_record`` record; ``csv.writer`` writes None empty."""
    record = gen_record(random.Random(seed), seed)
    issues = json.dumps([issue.to_json() for issue in record.issues], ensure_ascii=False)
    return [str(record.id), *record[1 : len(STAGE_FIELDS) - 1], issues]


#: A row is a drawn record's cells or a hostile corpus row's; some rows lose their last cells.
_tally_row = st.tuples(
    st.integers(0, 10_000).map(_record_cells)
    | contract_row(True).map(lambda cells: [cells[column] for column in STAGE_COLUMNS]),
    st.sampled_from([0, 0, 0, 0, 1, 4, len(STAGE_COLUMNS)]),
).map(lambda drawn: drawn[0][: len(drawn[0]) - drawn[1]])

_STORED_METHOD_TAG = json.dumps([
    make_issue(
        "E_METHOD_UNKNOWN",
        Stage.INGEST,
        "http_method 'FETCH' is not a supported method; assuming GET",
        field="http_method",
    ).to_json()
])


def _write_rows(path, rows: list[list[str]], *, raw: bool, bom: bool):
    """A corpus of ``rows`` at ``path``: a raw one (no ``issues`` column) if ``raw``."""
    columns = len(STAGE_COLUMNS) - raw
    with path.open("w", encoding="utf-8-sig" if bom else "utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STAGE_COLUMNS[:columns])
        writer.writerows(row[:columns] for row in rows)
    return path


def _dashboard_stdout(path, form: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["dashboard", "--input", str(path), "--dashboard-format", form]) == 0
    return out.getvalue()


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(_tally_row, max_size=6), raw=st.booleans(), bom=st.booleans())
@example(
    rows=[_stage_cells("FETCH"), _stage_cells(""), _stage_cells(" post ")], raw=False, bom=False
)
@example(  # issues cells that are not JSON, not an array, or name an unknown code or stage
    rows=[
        _stage_cells(issues="not json"),
        _stage_cells(issues="{}"),
        _stage_cells(issues='[{"code":"W_UNKNOWN","stage":"Parse","message":"m"}]'),
        _stage_cells(issues='[{"code":"W_NO_EXAMPLE","stage":"Nowhere","message":"m"}]'),
    ],
    raw=False,
    bom=False,
)
@example(  # the re-read emits the stored tag again, which is kept once
    rows=[_stage_cells("FETCH", _STORED_METHOD_TAG), _stage_cells("FETCH")], raw=False, bom=False
)
@example(rows=[_stage_cells()[:4], _stage_cells("FETCH")[:3], []], raw=False, bom=False)
@example(rows=[_stage_cells("FETCH"), _stage_cells()], raw=True, bom=False)
@example(rows=[_stage_cells("FETCH", _STORED_METHOD_TAG)], raw=False, bom=True)
@example(rows=[], raw=False, bom=False)
def test_issue_tally_counts_the_loaded_issue_tuples(tmp_path_factory, rows, raw, bom):
    """The tally streamed from two columns is the loaded records', and so is the dashboard."""
    path = _write_rows(tmp_path_factory.mktemp("tally") / "stage.csv", rows, raw=raw, bom=bom)
    records = load_corpus(path)
    assert issue_tally(path) == Counter(record.issues for record in records)
    report = dashboard(records)
    assert _dashboard_stdout(path, "text") == render_dashboard_text(report)
    assert _dashboard_stdout(path, "json") == dashboard_to_json(report)


def test_a_stored_ingest_tag_is_counted_once(tmp_path):
    path = _write_rows(
        tmp_path / "stage.csv", [_stage_cells("FETCH", _STORED_METHOD_TAG)], raw=False, bom=False
    )
    ((issues, rows),) = issue_tally(path).items()
    assert rows == 1 and [issue.code for issue in issues] == ["E_METHOD_UNKNOWN"]


_UNTERMINATED = '"r9,https://x,GET,/a,,,,,,\nr10,https://x,GET,/b,,,,,,\n'
_LONG = "a,b,GET,/x,,,,,,,EXTRA,MORE\n"
_NOT_UTF8 = "cannot read corpus {path}: not UTF-8 text: "


@pytest.mark.parametrize(
    "text, fault",
    [
        (b"", "{path} has no header row"),
        (b"record_id,source_url\nx,y\n", "{path} is missing columns: "),
        (f"{HEADER},issues,path\nr1,https://d/x,GET,/a,,,,,,,,/b\n".encode(), "{path} has dup"),
        (f"{HEADER}\n{_LONG}".encode(), "{path} row 1: more cells than header columns"),
        (f"{HEADER}\n{_UNTERMINATED}".encode(), "malformed CSV in {path}: "),
        (HEADER.encode() + b"\nr1,https://d/caf\xe9,GET,/v1/x,,,,,,\n", _NOT_UTF8),
        # The whole file is read before a row or the header is judged: framing faults come first.
        (f"{HEADER}\nr1,https://d/x,GET,/x,,,,,,\n{_LONG}{_UNTERMINATED}".encode(), "malformed"),
        (f"{HEADER}\n{_LONG}".encode() + b"r2,\xe9,GET,/x,,,,,,\n", _NOT_UTF8),
        (f"record_id\n{_UNTERMINATED}".encode(), "malformed CSV in {path}: "),
    ],
    ids=[
        "no header", "missing columns", "duplicate columns", "too many cells", "malformed CSV",
        "not UTF-8", "too many cells, then malformed CSV", "too many cells, then not UTF-8",
        "missing columns, then malformed CSV",
    ],
)
def test_issue_tally_raises_what_load_corpus_raises(tmp_path, text, fault):
    path = tmp_path / "corpus.csv"
    path.write_bytes(text)
    with pytest.raises(CorpusError) as loaded:
        load_corpus(path)
    with pytest.raises(CorpusError) as tallied:
        issue_tally(path)
    assert str(tallied.value) == str(loaded.value)
    assert str(loaded.value).startswith(fault.format(path=path))


def test_issue_tally_of_a_missing_file_is_the_load_error(tmp_path):
    messages = []
    for read in (load_corpus, issue_tally):
        with pytest.raises(CorpusError) as caught:
            read(tmp_path / "absent.csv")
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
