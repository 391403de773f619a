"""Outputs are streamed: byte-identical to the whole-text serializations, in bounded memory."""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from apibind import cli
from apibind.cli import write_json
from apibind.codegen import (
    IdentifierPolicy,
    apply_identifier_policy,
    build_reference,
    corpus_digest,
    render_package,
)
from apibind.curl import HttpMethod
from apibind.ingest import load_corpus, merge_corpus, write_stage
from apibind.issues import Stage, make_issue
from apibind.parse import parse_columns, parse_record
from apibind.records import ApiCallRecord, RecordId
from apibind.templates import TemplateSet
from apibind.validate import cross_validate, dashboard, render_dashboard_text, route

from .gen import gen_corpus, gen_record

#: The two option sets the CLI writes with: build_report.json, name_map.json.
CLI_OPTIONS = ({"ensure_ascii": False}, {"sort_keys": True})

SLICE = cli.JSON_SLICE
MEMBER_COUNTS = (0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE)

# Surrogates cannot be written as UTF-8; every other code point can, control
# characters and non-ASCII text included.
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_scalar = st.none() | st.booleans() | st.integers() | st.floats() | _text
_value = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _member(draw):
    """A list or dict of one of ``MEMBER_COUNTS`` entries, or any JSON value."""
    kind = draw(st.sampled_from(["list", "dict", "value"]))
    if kind == "value":
        return draw(_value)
    count = draw(st.sampled_from(MEMBER_COUNTS))
    pool = draw(st.lists(_value, min_size=1, max_size=4))
    entries = [pool[i % len(pool)] for i in range(count)]
    if kind == "list":
        return entries
    stem = draw(_text)
    # Distinct keys whose sorted order differs from their insertion order.
    return {f"{stem}{(i * 7919) % count}": entry for i, entry in enumerate(entries)}


def _assert_streams_like_dumps(path, value, options) -> None:
    write_json(path, value, **options)
    assert path.read_bytes() == (json.dumps(value, **options) + "\n").encode("utf-8")


@settings(max_examples=80, deadline=None)
@given(value=st.dictionaries(_text, _member(), max_size=4), options=st.sampled_from(CLI_OPTIONS))
def test_write_json_equals_dumps(tmp_path_factory, value, options):
    _assert_streams_like_dumps(tmp_path_factory.mktemp("json") / "out.json", value, options)


def test_write_json_every_member_count(tmp_path):
    for options in CLI_OPTIONS:
        _assert_streams_like_dumps(tmp_path / "out.json", {}, options)
        for count in MEMBER_COUNTS:
            value = {
                "é\x00": [{"k": i, "\n": "ü\x1f"} for i in range(count)],
                "d": {f"kéy\t{(i * 31) % count}": [i, None] for i in range(count)},
                "": {},
                "s": " \"\\",
                "l": [],
            }
            _assert_streams_like_dumps(tmp_path / "out.json", value, options)


def _traced_peak(write) -> int:
    """Peak bytes allocated by Python while ``write()`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Whole-text serialization peaks at over twice the output; streaming stays well below it."""

    def test_write_stage_peak_is_below_a_quarter_of_the_file(self, tmp_path):
        rng = random.Random(7)
        records = [gen_record(rng, i) for i in range(4000)]
        path = tmp_path / "stage.csv"
        peak = _traced_peak(lambda: write_stage(records, path))
        written = path.stat().st_size
        assert written > 1_000_000
        assert peak < written / 4, (peak, written)

    def test_one_pass_write_peak_is_below_a_quarter_of_the_file(self, tmp_path):
        """Writing a subset file beside the stage file, with the issues-cell memo, stays bounded."""
        rng = random.Random(7)
        records = [gen_record(rng, i) for i in range(4000)]
        _, rejected = route(records)
        path, rejects = tmp_path / "stage.csv", tmp_path / "rejects.csv"
        peak = _traced_peak(lambda: write_stage(records, path, (rejected, rejects)))
        written = path.stat().st_size
        assert written > 1_000_000 and rejects.stat().st_size > written / 4
        assert peak < written / 4, (peak, written)

    def test_dashboard_peak_is_below_a_quarter_of_the_file(self, tmp_path, capsys):
        """The command tallies the stage file's issue tuples; it holds no record."""
        rng = random.Random(7)
        tags = [make_issue(code, Stage.PARSE, "m") for code in ("E_DUP_PARAM", "W_NO_EXAMPLE")]
        tuples = [(), *((tag,) for tag in tags)]
        records = [gen_record(rng, i)._replace(issues=tuples[i % 3]) for i in range(4000)]
        path = tmp_path / "stage.csv"
        write_stage(records, path)
        peak = _traced_peak(lambda: cli.main(["dashboard", "--input", str(path)]))
        written = path.stat().st_size
        assert written > 800_000
        assert peak < written / 4, (peak, written)
        assert capsys.readouterr().out == render_dashboard_text(dashboard(records))

    def test_write_json_peak_is_below_the_file(self, tmp_path):
        raws = [f"get_v1_widget_{i}_parts" for i in range(20_000)]
        names = {
            "functions": {raw: f"getV1Widget{i}Parts" for i, raw in enumerate(raws)},
            "types": {f"Widget{i}": f"Widget{i}" for i in range(2000)},
            "fields": {f"Widget{i}": {"part_id": "partId"} for i in range(2000)},
            "params": {raw: ["id", "body"] for raw in raws},
        }
        path = tmp_path / "name_map.json"
        peak = _traced_peak(lambda: write_json(path, names, sort_keys=True))
        written = path.stat().st_size
        assert peak < written, (peak, written)

    def test_render_package_never_holds_the_package_whole(self):
        """Each module text goes to the sink as it is rendered; the sink drops it."""
        records = [
            cross_validate(parse_record(ApiCallRecord(
                id=RecordId.single(f"r{g}_{i}"),
                source_url=f"https://docs.example.com/{g}/{i}",
                http_method=HttpMethod.GET,
                raw_path=f"/v1/group{g}/item{i}",
                group=f"group{g}",
                response_example=json.dumps(
                    {f"field_{g}_{i}_{k}": {"id": k, "name": "x", "tags": ["a"]} for k in range(6)}
                ),
            )))
            for g in range(32)
            for i in range(8)
        ]
        ir = build_reference(records)
        names = apply_identifier_policy(ir, IdentifierPolicy())
        templates = TemplateSet.neutral()
        sizes: dict[str, int] = {}

        def drop(file_name: str, text: str) -> None:
            sizes[file_name] = len(text)

        peak = _traced_peak(lambda: render_package(ir, names, templates, drop))
        modules = sum(size for file_name, size in sizes.items() if file_name != "manifest.txt")
        assert len(sizes) == 33 and modules > 100_000
        assert peak < modules / 2, (peak, modules)


class TestCorpusDigest:
    """``corpus_digest`` is the SHA-256 of the bytes ``write_stage`` writes."""

    @staticmethod
    def assert_pinned(records: list[ApiCallRecord], path) -> None:
        write_stage(records, path)
        assert corpus_digest(records) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_corpus12(self, corpus12_path, tmp_path):
        records = [parse_record(record) for record in load_corpus(corpus12_path)]
        self.assert_pinned(records, tmp_path / "stage.csv")

    def test_awkward_cells(self, tmp_path):
        cells = ["unicode-é中\U0001f600", 'say "hi", then \'bye\'', "cr\rlf\r\nlf\n", '"\r\n"']
        records = [
            ApiCallRecord(
                id=RecordId.single(f"r{i}"),
                source_url="https://d/ü",
                http_method=HttpMethod.GET,
                raw_path=f"/v1/{cell}",
                description=cell,
                group=cell,
                issues=(make_issue("W_NO_EXAMPLE", Stage.PARSE, cell),),
            )
            for i, cell in enumerate(cells)
        ]
        self.assert_pinned(records, tmp_path / "stage.csv")
        self.assert_pinned([], tmp_path / "empty.csv")

    def test_hashlib_fallback(self, corpus12_path, tmp_path, monkeypatch):
        """An interpreter built without ``_sha2`` and ``_sha256`` hashes with ``hashlib``."""
        monkeypatch.setitem(sys.modules, "_sha2", None)  # None makes an import fail
        monkeypatch.setitem(sys.modules, "_sha256", None)
        made = []
        reference = hashlib.sha256

        def counted(*args):
            made.append(args)
            return reference(*args)

        monkeypatch.setattr(hashlib, "sha256", counted)
        records = [parse_record(record) for record in load_corpus(corpus12_path)]
        path = tmp_path / "stage.csv"
        write_stage(records, path)
        assert corpus_digest(records) == reference(path.read_bytes()).hexdigest()
        assert made == [()]


class TestOnePassStageWrite:
    """``analyze`` writes ``analyzed.csv`` and the rejects file in one pass; each holds
    the bytes ``write_stage`` writes for its own records."""

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_outputs_equal_separate_writes(self, strict, tmp_path):
        corpus = tmp_path / "corpus.csv"
        write_stage(gen_corpus(random.Random(5), 300), corpus)
        out = tmp_path / "out"
        argv = ["analyze", "--merge", *strict, "--input", str(corpus), "--out-dir", str(out)]
        assert cli.main(argv) == 0

        loaded = load_corpus(corpus)
        columns = parse_columns(loaded)
        records = merge_corpus([parse_record(record, columns) for record in loaded])
        assert len(records) < 300  # merge groups folded
        records = [cross_validate(record) for record in records]
        _, rejected = route(records, strict=bool(strict))
        assert 0 < len(rejected) < len(records)
        write_stage(records, tmp_path / "records.csv")
        write_stage(rejected, tmp_path / "rejected.csv")
        assert (out / "analyzed.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()
        assert (out / "rejects.csv").read_bytes() == (tmp_path / "rejected.csv").read_bytes()

    def test_subset_out_of_order_is_refused(self, tmp_path):
        records = [gen_record(random.Random(3), i) for i in range(4)]
        stranger = gen_record(random.Random(4), 9)
        for subset in ([records[2], records[1]], [records[0], records[0]], [stranger]):
            with pytest.raises(ValueError, match="not in order"):
                write_stage(records, tmp_path / "stage.csv", (subset, tmp_path / "subset.csv"))
