from __future__ import annotations

import csv
import errno
import gc
import json
import os
import random
import stat
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from apibind import cli, ingest, params, parse
from apibind.cli import main
from apibind.curl import HttpMethod
from apibind.ingest import STAGE_COLUMNS, load_corpus, record_id_census
from apibind.typeinfer import MAX_JSON_DEPTH, parse_json

from .gen import gen_corpus, gen_record, nested_json
from .output_matrix import GENERATOR


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def run(argv) -> int:
    return main([str(a) for a in argv])


def write_stage(path: Path, rows: list[tuple[str, str, str, list[dict]]]) -> Path:
    """Stage CSV of (record id, path, response example, issues) rows."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STAGE_COLUMNS)
        for rid, raw_path, response, issues in rows:
            writer.writerow(
                [rid, "https://d/x", "GET", raw_path, "", "", "", response, "", "", json.dumps(issues)]
            )
    return path


def write_cells(path: Path, rows: list[dict[str, str]]) -> Path:
    """Stage CSV of column -> cell dicts; GET and a fixed source URL unless given."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STAGE_COLUMNS)
        for cells in rows:
            cells = {"source_url": "https://d/x", "http_method": "GET", **cells}
            writer.writerow([cells.get(column, "") for column in STAGE_COLUMNS])
    return path


class TestAnalyze:
    def test_no_command_loads_openssl(self, corpus12_path, tmp_path):
        """``corpus_digest`` hashes with the interpreter's built-in SHA-256, so no
        command imports ``hashlib`` or maps libcrypto (``_hashlib``)."""
        out = tmp_path / "out"
        analyze = ["analyze", "--input", str(corpus12_path), "--out-dir", str(out)]
        dashboard = ["dashboard", "--input", str(out / "analyzed.csv")]
        generate = ["generate", "--input", str(corpus12_path), "--out-dir", str(out / "gen")]
        merged = ["generate", "--merge", "--input", str(corpus12_path)]
        merged += ["--out-dir", str(out / "merged")]
        script = (
            "import sys\n"
            "import apibind.cli as cli\n"
            f"assert cli.main({analyze!r}) == 0\n"
            f"assert cli.main({dashboard!r}) == 0\n"
            f"assert cli.main({generate!r}) == 0\n"
            f"assert cli.main({merged!r}) == 0\n"
            "print(sorted({'_hashlib', 'hashlib'} & set(sys.modules)), file=sys.stderr)\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == "[]\n"

    def test_fixture_corpus(self, corpus12_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus12_path, "--out-dir", out]) == 0
        assert (out / "analyzed.csv").is_file()
        assert (out / "rejects.csv").is_file()
        assert (out / "dashboard.txt").is_file()
        assert (out / "dashboard.json").is_file()

        stage = load_corpus(out / "analyzed.csv")
        assert len(stage) == 12
        rejects = load_corpus(out / "rejects.csv")
        assert sorted(str(r.id) for r in rejects) == ["r11", "r12"]

        doc = json.loads((out / "dashboard.json").read_text())
        assert doc["total_records"] == 12
        assert doc["valid_records"] == 10
        assert abs(doc["percent_valid"] - 83.3) < 0.1
        assert "83.3%" in capsys.readouterr().out

    def test_missing_input_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["analyze", "--input", tmp_path / "absent.csv", "--out-dir", out])
        assert code == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_unterminated_quote_aborts_the_run(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        # The quote opened in r1's first cell is never closed.
        rows = [",".join(STAGE_COLUMNS[:-1]), '"r1,https://x,GET,/a,,,,,,']
        rows += ["r2,https://x,GET,/b,,,,,,", "r3,https://x,GET,/c,,,,,,"]
        corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: malformed CSV in {corpus}: unexpected end of data\n"

    def test_all_records_erring_still_exits_zero(self, tmp_path):
        corpus = tmp_path / "bad.csv"
        corpus.write_text(
            "record_id,source_url,http_method,path,curl_example,parameters,"
            "request_example,response_example,description,group\n"
            "b1,https://d/x,GET,/v1/{x}/{x},,,,,,\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        doc = json.loads((out / "dashboard.json").read_text())
        assert doc["percent_valid"] == 0.0

    def test_empty_corpus_percent_absent(self, tmp_path):
        corpus = tmp_path / "empty.csv"
        corpus.write_text(
            "record_id,source_url,http_method,path,curl_example,parameters,"
            "request_example,response_example,description,group\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        doc = json.loads((out / "dashboard.json").read_text())
        assert "percent_valid" not in doc

    def test_out_dir_colliding_with_input_rejected(self, corpus12_path, capsys):
        assert run(["analyze", "--input", corpus12_path, "--out-dir", corpus12_path]) == 1

    def test_outputs_never_overwrite_an_input(self, corpus12_path, tmp_path, capsys):
        corpus = tmp_path / "c12.csv"
        corpus.write_bytes(corpus12_path.read_bytes())
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        stage = out / "analyzed.csv"
        inputs = {path: path.read_bytes() for path in (corpus, stage)}
        capsys.readouterr()
        for command in ("analyze", "generate"):
            for argv in (
                ["--input", corpus, "--out-dir", tmp_path / "o", "--rejects", corpus],
                ["--merge", "--input", stage, "--out-dir", out],
                ["--input", stage, "--out-dir", tmp_path / "o", "--rejects", stage],
            ):
                assert run([command, *argv]) == 1, (command, argv)
                assert "error:" in capsys.readouterr().err
                assert not (tmp_path / "o").exists()
        assert {path: path.read_bytes() for path in inputs} == inputs

    @pytest.mark.parametrize(
        "command, corpus_at, rejects_at",
        [
            ("analyze", "o/dashboard.txt", None),
            ("generate", "o/name_map.json", None),
            ("generate", "o/package/c.txt", None),
            ("analyze", "c12.csv", "o/dashboard.json"),
            ("generate", "c12.csv", "o/package/r.txt"),
            ("generate", "c12.csv", "o/build_report.json"),
        ],
    )
    def test_no_output_overwrites_or_deletes_an_input_or_the_rejects(
        self, command, corpus_at, rejects_at, corpus12_path, tmp_path, capsys
    ):
        corpus = tmp_path / corpus_at
        corpus.parent.mkdir(parents=True, exist_ok=True)
        corpus.write_bytes(corpus12_path.read_bytes())
        out = tmp_path / "o"
        before = read_tree(out) if out.exists() else None
        argv = [command, "--input", corpus, "--out-dir", out]
        if rejects_at is not None:
            argv += ["--rejects", tmp_path / rejects_at]
        assert run(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert corpus.read_bytes() == corpus12_path.read_bytes()
        assert (read_tree(out) if out.exists() else None) == before

    def test_corpus_inside_the_out_dir_under_its_own_name(self, corpus12_path, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        corpus = out / "corpus.csv"
        corpus.write_bytes(corpus12_path.read_bytes())
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        assert run(["generate", "--input", corpus, "--input", corpus, "--out-dir", out]) == 0
        assert corpus.read_bytes() == corpus12_path.read_bytes()
        assert {"analyzed.csv", "dashboard.json", "name_map.json", "package/manifest.txt"} < set(
            read_tree(out)
        )

    def test_idempotent(self, corpus12_path, tmp_path):
        out = tmp_path / "out"
        run(["analyze", "--input", corpus12_path, "--out-dir", out])
        first = read_tree(out)
        run(["analyze", "--input", corpus12_path, "--out-dir", out])
        assert read_tree(out) == first

    def test_reanalyzing_stage_output_adds_nothing(self, corpus12_path, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        run(["analyze", "--input", corpus12_path, "--out-dir", out1])
        run(["analyze", "--input", out1 / "analyzed.csv", "--out-dir", out2])
        first = load_corpus(out1 / "analyzed.csv")
        second = load_corpus(out2 / "analyzed.csv")
        assert [r.issues for r in second] == [r.issues for r in first]

    def test_merge_flag(self, tmp_path):
        corpus = tmp_path / "dup.csv"
        corpus.write_text(
            "record_id,source_url,http_method,path,curl_example,parameters,"
            "request_example,response_example,description,group\n"
            "m1,https://d/x,GET,/v1/thing,,,,,first,\n"
            "m2,https://d/x,GET,/v1/thing,,,,,second,\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus, "--merge", "--out-dir", out]) == 0
        stage = load_corpus(out / "analyzed.csv")
        assert len(stage) == 1
        assert str(stage[0].id) == "m1|m2"
        assert any(i.code == "W_MERGE_CONFLICT" for i in stage[0].issues)


class TestGenerate:
    def test_fixture_corpus(self, corpus12_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus12_path, "--out-dir", out]) == 0
        package = out / "package"
        assert sorted(p.name for p in package.iterdir()) == [
            "manifest.txt", "messages.txt", "misc.txt", "users.txt",
        ]
        rejects = load_corpus(out / "rejects.csv")
        assert len(rejects) == 2
        stdout = capsys.readouterr().out
        assert "rejected r11" in stdout and "rejected r12" in stdout

        report = json.loads((out / "build_report.json").read_text())
        assert len(report["functions"]) == 10
        # Both are streamed in pieces; each must equal one json.dumps of its content.
        for name, options in (
            ("name_map.json", {"sort_keys": True}),
            ("build_report.json", {"ensure_ascii": False}),
        ):
            data = (out / name).read_bytes()
            assert data == (json.dumps(json.loads(data), **options) + "\n").encode(), name

    def test_end_to_end_conservation(self, corpus12_path, tmp_path):
        out = tmp_path / "out"
        run(["generate", "--input", corpus12_path, "--out-dir", out])
        report = json.loads((out / "build_report.json").read_text())
        from collections import Counter

        package_ids = Counter(a for fn in report["functions"] for a in fn["record_id"])
        reject_ids = Counter(a for ids in report["rejected_record_ids"] for a in ids)
        input_ids = record_id_census(load_corpus(corpus12_path))
        assert package_ids + reject_ids == input_ids

    def test_strict_rejects_warning_only_records(self, corpus12_path, tmp_path):
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus12_path, "--strict", "--out-dir", out]) == 0
        report = json.loads((out / "build_report.json").read_text())
        assert len(report["functions"]) == 6
        rejects = load_corpus(out / "rejects.csv")
        assert len(rejects) == 6

    def test_zero_valid_records_fails(self, tmp_path, capsys):
        corpus = tmp_path / "bad.csv"
        corpus.write_text(
            "record_id,source_url,http_method,path,curl_example,parameters,"
            "request_example,response_example,description,group\n"
            "b1,https://d/x,GET,/v1/{x}/{x},,,,,,\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus, "--out-dir", out]) == 1
        assert "nothing to generate" in capsys.readouterr().err

    def test_custom_templates_and_policy(self, corpus12_path, tmp_path):
        tpl_dir = tmp_path / "tpl"
        tpl_dir.mkdir()
        from apibind.templates import NEUTRAL_TEMPLATES

        for name, source in NEUTRAL_TEMPLATES.items():
            (tpl_dir / name).write_text(source, encoding="utf-8")
        (tpl_dir / "module.tpl").write_text(
            "{{#functions}}def {{function_name}} -> {{response_type}}\n{{/functions}}",
            encoding="utf-8",
        )
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"casing_function": "snake"}), encoding="utf-8")

        out = tmp_path / "out"
        code = run([
            "generate", "--input", corpus12_path, "--out-dir", out,
            "--templates", tpl_dir, "--identifier-policy", policy,
        ])
        assert code == 0
        module = (out / "package" / "misc.txt").read_text()
        assert "def get_v1_ping -> GetV1PingResponse" in module

    def test_broken_template_fails_with_name(self, corpus12_path, tmp_path, capsys):
        tpl_dir = tmp_path / "tpl"
        tpl_dir.mkdir()
        from apibind.templates import NEUTRAL_TEMPLATES

        for name, source in NEUTRAL_TEMPLATES.items():
            (tpl_dir / name).write_text(source, encoding="utf-8")
        (tpl_dir / "manifest.tpl").write_text("{{mystery}}", encoding="utf-8")
        out = tmp_path / "out"
        code = run(["generate", "--input", corpus12_path, "--out-dir", out, "--templates", tpl_dir])
        assert code == 1
        err = capsys.readouterr().err
        assert "manifest.tpl" in err and "mystery" in err

    def test_list_placeholder_fails_with_one_line_naming_it(self, corpus12_path, tmp_path, capsys):
        tpl_dir = tmp_path / "tpl"
        tpl_dir.mkdir()
        from apibind.templates import NEUTRAL_TEMPLATES

        for name, source in NEUTRAL_TEMPLATES.items():
            (tpl_dir / name).write_text(source, encoding="utf-8")
        (tpl_dir / "module.tpl").write_text(
            "{{#types}}type {{type_name}} = {{fields}}\n{{/types}}", encoding="utf-8"
        )
        out = tmp_path / "out"
        code = run(["generate", "--input", corpus12_path, "--out-dir", out, "--templates", tpl_dir])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: template 'module.tpl': placeholder 'fields' is a list, not a value\n"
        )

    @pytest.mark.parametrize(
        "option, name, text",
        [
            ("--templates", "tpl", None),
            ("--identifier-policy", "policy.json", "[]"),
            ("--identifier-policy", "misspelt.json", '{"casing_fucntion": "snake"}'),
            ("--identifier-policy", "absent.json", None),
        ],
    )
    def test_configuration_error_writes_nothing(
        self, option, name, text, corpus12_path, tmp_path, capsys
    ):
        config = tmp_path / name
        if option == "--templates":
            config.mkdir()
            (config / "module.tpl").write_text("{{module_name}}\n", encoding="utf-8")
        elif text is not None:
            config.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus12_path, "--out-dir", out, option, config]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_stored_severity_cannot_pass_the_gate(self, tmp_path):
        forged = {"code": "E_PATH_SYNTAX", "severity": "Warning", "stage": "Parse", "message": "m"}
        stage = write_stage(
            tmp_path / "stage.csv",
            [("ok", "/v1/ok", '{"ok":true}', []), ("forged", "/v1/forged", '{"f":1}', [forged])],
        )
        out = tmp_path / "out"
        assert run(["generate", "--input", stage, "--out-dir", out]) == 0
        report = json.loads((out / "build_report.json").read_text())
        assert [fn["record_id"] for fn in report["functions"]] == [["ok"]]
        assert report["rejected_record_ids"] == [["forged"]]
        assert "forged" not in "".join(p.read_text() for p in (out / "package").iterdir())

    def test_non_standard_json_example_rejected_at_the_gate(self, tmp_path):
        stage = write_stage(
            tmp_path / "stage.csv",
            [("ok", "/v1/ok", '{"ok":true}', []), ("nan", "/v1/nan", '{"x": NaN}', [])],
        )
        out = tmp_path / "out"
        assert run(["generate", "--input", stage, "--out-dir", out]) == 0
        report = json.loads((out / "build_report.json").read_text())
        assert report["rejected_record_ids"] == [["nan"]]
        assert "nan" not in "".join(p.read_text() for p in (out / "package").iterdir())
        (rejected,) = load_corpus(out / "rejects.csv")
        assert ("E_JSON_CELL", "response_example") in [(i.code, i.field) for i in rejected.issues]

    def test_malformed_identifier_policy_fails_cleanly(self, corpus12_path, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        for text, complaint in (
            ("[]", "not a JSON object"),
            ('{"reserved_words": "def"}', "reserved_words"),
            ('{"reserved_words": ["def", 1]}', "reserved_words"),
            ('{"casing_fucntion": "snake"}', "unknown key 'casing_fucntion'"),
            (
                "[" * 100_000 + "]" * 100_000,
                f"not JSON: document nested deeper than {MAX_JSON_DEPTH} levels",
            ),
            ('{"reserved_words": [NaN]}', "not JSON: non-standard JSON token NaN"),
            ('{"reserved_words": ["\\udc00"]}', "not JSON: lone surrogate \\udc00"),
        ):
            policy.write_text(text, encoding="utf-8")
            argv = ["generate", "--input", corpus12_path, "--out-dir", tmp_path / "out"]
            assert run([*argv, "--identifier-policy", policy]) == 1, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and complaint in err, (text, err)

    def test_empty_arrays_tagged_once_at_their_type_path(self, tmp_path):
        table = [
            {"name": "nested", "in": "query", "example": [[], [2]]},
            {"name": "empty", "in": "query", "example": []},
        ]
        corpus = write_cells(
            tmp_path / "probe.csv",
            [
                {
                    "record_id": "p1",
                    "path": "/v1/items",
                    "parameters": json.dumps(table),
                    "response_example": '{"items": [{"tags": []}, {"tags": []}]}',
                },
                {"record_id": "p2", "path": "/v1/a", "response_example": '{"a": [[], [1]]}'},
            ],
        )
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus, "--out-dir", out]) == 0
        report = json.loads((out / "build_report.json").read_text())
        tagged = [
            (fn["record_id"], issue["message"])
            for fn in report["functions"]
            for issue in fn.get("issues", ())
            if issue["code"] == "W_EMPTY_ARRAY"
        ]
        assert tagged == [
            (["p1"], "parameter 'empty' example has an empty array at $"),
            (["p1"], "response_example has an empty array at $.items[].tags; element type unknown"),
        ]

    @pytest.mark.parametrize(
        "rows, lines",
        [
            (  # a rejected row's id once printed a "rejected" line of its own
                [
                    {"record_id": "r2\nrejected r8: E_FAKE", "path": "/v1/{x}"},
                    {"record_id": "ok", "path": "/v1/ok", "response_example": '{"ok": 1}'},
                ],
                ['rejected "r2\\nrejected r8: E_FAKE": E_PATHVAR_UNDECLARED,W_NO_EXAMPLE'],
            ),
            (  # so did a wire name in an empty array's path, and a valid row's id
                [
                    {
                        "record_id": "w",
                        "path": "/v1/w",
                        "response_example": '{"a\\nnote r9: E_FAKE forged": []}',
                    },
                    {"record_id": "n\u2028note r7: E_FAKE", "path": "/v1/n"},
                ],
                [
                    'note w: W_EMPTY_ARRAY response_example has an empty array at '
                    '$["a\\nnote r9: E_FAKE forged"]; element type unknown',
                    'note "n\\u2028note r7: E_FAKE": W_NO_EXAMPLE '
                    "no response example; response type is unconstrained",
                ],
            ),
        ],
    )
    def test_stdout_lines_are_never_forged(self, tmp_path, capsys, rows, lines):
        corpus = write_cells(tmp_path / "forge.csv", rows)
        assert run(["generate", "--input", corpus, "--out-dir", tmp_path / "out"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert all(line.startswith(("rejected ", "note ", "package: ")) for line in printed)
        assert printed[:-1] == lines

    def test_repeated_parameter_wires_render_distinct_names(self, tmp_path):
        corpus = write_cells(
            tmp_path / "probe.csv",
            [
                {
                    "record_id": "p1",
                    "http_method": "POST",
                    "path": "/v1/x",
                    "parameters": json.dumps([{"name": "body", "in": "query"}]),
                    "request_example": '{"a": 1}',
                },
                {
                    "record_id": "p2",
                    "path": "/v1/y",
                    "parameters": json.dumps(
                        [{"name": "id", "in": "query"}, {"name": "id", "in": "header", "type": "int"}]
                    ),
                },
            ],
        )
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus, "--out-dir", out]) == 0
        lines = (out / "package" / "misc.txt").read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith(("function ", "  param "))] == [
            "function postV1X(body: string, body_2: PostV1XRequest) -> any",
            "  param body via Query",
            "function getV1Y(id: string, id_2: int) -> any",
            "  param id via Query",
            "  param id_2 via Header (wire id)",
        ]
        name_map = json.loads((out / "name_map.json").read_text(encoding="utf-8"))
        assert name_map["params"] == {"post_v1_x": ["body", "body_2"], "get_v1_y": ["id", "id_2"]}

    def test_idempotent(self, corpus12_path, tmp_path):
        out = tmp_path / "out"
        run(["generate", "--input", corpus12_path, "--out-dir", out])
        first = read_tree(out)
        run(["generate", "--input", corpus12_path, "--out-dir", out])
        assert read_tree(out) == first

    def test_rerun_leaves_no_stale_modules(self, corpus12_path, tmp_path):
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus12_path, "--out-dir", out]) == 0
        package = out / "package"
        assert {p.name for p in package.iterdir()} > {"messages.txt", "users.txt"}
        (package / "notes").mkdir()
        (package / "notes" / "keep.txt").write_text("kept", encoding="utf-8")
        (package / "README").write_text("kept", encoding="utf-8")

        with corpus12_path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ungrouped = tmp_path / "ungrouped.csv"
        with ungrouped.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, "group": ""} for row in rows)
        assert run(["generate", "--input", ungrouped, "--out-dir", out]) == 0

        manifest = (package / "manifest.txt").read_text(encoding="utf-8").splitlines()
        modules = [line.strip() for line in manifest[manifest.index("modules") + 1 :]]
        assert modules == ["misc.txt"]
        modules_on_disk = {p.name for p in package.glob("*.txt")}
        assert modules_on_disk == {*modules, "manifest.txt"}
        assert (package / "notes" / "keep.txt").is_file() and (package / "README").is_file()


def duplicate_call_corpus(corpus12_path: Path, path: Path, rows: int) -> Path:
    """corpus12's r01 repeated ``rows`` times under distinct record ids."""
    with corpus12_path.open(encoding="utf-8", newline="") as fh:
        header, r01 = list(csv.reader(fh))[:2]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(rows):
            writer.writerow([f"d{i:05d}", *r01[1:]])
    return path


class TestFailedWrite:
    """A write the OS refuses ends the run with one ``error:`` line naming the path."""

    def assert_one_error_line(self, err: str, path: Path) -> None:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err
        assert "Traceback" not in err

    def test_generate_module_path_is_a_directory(self, corpus12_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus12_path, "--out-dir", out]) == 0
        blocked = out / "package" / "users.txt"
        blocked.unlink()
        blocked.mkdir()
        before = read_tree(out)
        capsys.readouterr()
        assert run(["generate", "--input", corpus12_path, "--out-dir", out]) == 1
        self.assert_one_error_line(capsys.readouterr().err, blocked)
        assert read_tree(out) == before
        assert blocked.is_dir()

    def test_analyze_rejects_path_is_a_directory(self, corpus12_path, tmp_path, capsys):
        rejects = tmp_path / "rejects"
        rejects.mkdir()
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus12_path, "--out-dir", out, "--rejects", rejects]) == 1
        self.assert_one_error_line(capsys.readouterr().err, rejects)


class TestFailedRunChangesNothing:
    """A run that exits nonzero leaves every file under the out dir and at
    ``--rejects`` as it was, and no temp file beside them."""

    @pytest.fixture
    def generated(self, corpus12_path, tmp_path) -> tuple[Path, Path]:
        """An out dir holding a generated package, and a rejects file outside it."""
        out, rejects = tmp_path / "out", tmp_path / "ext" / "rejects.csv"
        argv = ["generate", "--input", corpus12_path, "--out-dir", out, "--rejects", rejects]
        assert run(argv) == 0
        return out, rejects

    def assert_fails_changing_nothing(self, argv, out: Path, rejects: Path) -> None:
        before = read_tree(out), read_tree(rejects.parent)
        assert run([*argv, "--out-dir", out, "--rejects", rejects]) == 1
        assert (read_tree(out), read_tree(rejects.parent)) == before

    @pytest.mark.parametrize("broken", ["manifest.tpl", "module.tpl"])
    def test_unresolvable_placeholder(self, broken, generated, corpus12_path, tmp_path, capsys):
        tpl_dir = tmp_path / "tpl"
        tpl_dir.mkdir()
        from apibind.templates import NEUTRAL_TEMPLATES

        for name, source in NEUTRAL_TEMPLATES.items():
            (tpl_dir / name).write_text(source, encoding="utf-8")
        (tpl_dir / broken).write_text("{{mystery}}", encoding="utf-8")
        # --strict rejects more records, so a rejects file written early would differ.
        argv = ["generate", "--strict", "--input", corpus12_path, "--templates", tpl_dir]
        self.assert_fails_changing_nothing(argv, *generated)
        assert f"error: template {broken!r}: unknown placeholder 'mystery'" in capsys.readouterr().err
        # Into a fresh out dir, the directories made for the run are removed too.
        fresh = tmp_path / "fresh" / "out"
        assert run([*argv, "--out-dir", fresh]) == 1
        assert not (tmp_path / "fresh").exists()

    def test_zero_valid_records_write_nothing(self, generated, tmp_path, capsys):
        corpus = write_stage(
            tmp_path / "bad.csv",
            [("b1", "/v1/{x}/{x}", "", []), ("b2", "/v1/ok", "{", [])],
        )
        capsys.readouterr()
        self.assert_fails_changing_nothing(["generate", "--input", corpus], *generated)
        captured = capsys.readouterr()
        assert captured.out == "rejected b1: E_PATH_SYNTAX,W_NO_EXAMPLE\nrejected b2: E_JSON_CELL\n"
        assert captured.err == "no valid records; nothing to generate\n"

    @pytest.mark.parametrize("command", ["analyze", "generate"])
    def test_corpus_that_is_not_utf8(self, command, generated, corpus12_path, tmp_path, capsys):
        corpus = tmp_path / "latin.csv"
        header = ",".join(STAGE_COLUMNS[:-1]).encode()
        corpus.write_bytes(header + b"\nr1,https://d/caf\xe9,GET,/v1/x,,,,,,\n")
        capsys.readouterr()
        argv = [command, "--input", corpus12_path, "--input", corpus]
        self.assert_fails_changing_nothing(argv, *generated)
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read corpus {corpus}: not UTF-8 text: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "option, content, complaint",
        [
            ("--identifier-policy", b'{"casing_type": ', "not JSON: Expecting value"),
            ("--identifier-policy", b"\xff", "not UTF-8 text: "),
            ("--identifier-policy", b'{"casing_type": "kebab"}', "unknown casing 'kebab'"),
            ("--templates", b"\xff", "not UTF-8 text: "),
        ],
    )
    def test_unreadable_configuration_names_its_file(
        self, option, content, complaint, generated, corpus12_path, tmp_path, capsys
    ):
        if option == "--templates":
            from apibind.templates import NEUTRAL_TEMPLATES

            config = tmp_path / "tpl"
            config.mkdir()
            for name, source in NEUTRAL_TEMPLATES.items():
                (config / name).write_text(source, encoding="utf-8")
            bad = config / "module.tpl"
        else:
            config = bad = tmp_path / "policy.json"
        bad.write_bytes(content)
        capsys.readouterr()
        argv = ["generate", "--input", corpus12_path, option, config]
        self.assert_fails_changing_nothing(argv, *generated)
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(bad) in line and complaint in line, line

    @pytest.mark.parametrize(
        "broken, complaint",
        [
            (
                None,
                "template set incomplete, missing: manifest.tpl, module.tpl",
            ),
            ("{{#a}}", "template 'module.tpl': unclosed section 'a'"),
            (
                "{{ module_name }}",
                "template 'module.tpl': malformed tag '{{ module_name }}';"
                " a tag name is letters, digits and _",
            ),
        ],
    )
    def test_a_bad_template_set_names_its_directory(
        self, broken, complaint, generated, corpus12_path, tmp_path, capsys
    ):
        """A missing directory, or a template that does not parse, is refused
        with an error that names the directory."""
        from apibind.templates import NEUTRAL_TEMPLATES

        config = tmp_path / "tpl"
        if broken is not None:
            config.mkdir()
            for name, source in NEUTRAL_TEMPLATES.items():
                (config / name).write_text(source, encoding="utf-8")
            (config / "module.tpl").write_text(broken, encoding="utf-8")
        capsys.readouterr()
        argv = ["generate", "--input", corpus12_path, "--templates", config]
        self.assert_fails_changing_nothing(argv, *generated)
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: template directory {config}: {complaint}"

    def test_a_five_file_template_set_is_refused(
        self, generated, corpus12_path, tmp_path, capsys
    ):
        """A directory laid out as a five-file set (a manifest, a module header,
        and a type, doc comment and function template) lacks ``module.tpl``."""
        config = tmp_path / "tpl"
        config.mkdir()
        for name in ("manifest", "module_header", "function", "type", "doc_comment"):
            (config / f"{name}.tpl").write_text("{{package_name}}\n", encoding="utf-8")
        capsys.readouterr()
        argv = ["generate", "--input", corpus12_path, "--templates", config]
        self.assert_fails_changing_nothing(argv, *generated)
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            f"error: template directory {config}: template set incomplete, missing: module.tpl"
        )

    @pytest.mark.parametrize(
        "stem", ["evil\nfunction pwn() -> any", "tab\tstop", os.fsdecode(b"latin\xe9")]
    )
    def test_unprintable_package_name(self, stem, generated, corpus12_path, tmp_path, capsys):
        """The input's stem names the package in the manifest and every module
        header: one that would add a line, or that is no text, is refused."""
        corpus = tmp_path / f"{stem}.csv"
        corpus.write_bytes(corpus12_path.read_bytes())
        capsys.readouterr()
        self.assert_fails_changing_nothing(["generate", "--input", corpus], *generated)
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: package name {stem!r} ")
        # Refused before the corpus is read: an absent file gets the same error.
        absent = tmp_path / "gone" / f"{stem}.csv"
        assert run(["generate", "--input", absent, "--out-dir", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.startswith(f"error: package name {stem!r} ")
        assert not (tmp_path / "o").exists()

    def test_failed_write_of_the_second_module(
        self, generated, corpus12_path, tmp_path, capsys, monkeypatch
    ):
        package_writes = []
        write_text = Path.write_text

        def failing(path, *args, **kwargs):
            if path.parent.name == "package":
                package_writes.append(path)
                if len(package_writes) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        capsys.readouterr()
        argv = ["generate", "--strict", "--input", corpus12_path]
        self.assert_fails_changing_nothing(argv, *generated)
        assert len(package_writes) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 28] No space left on device") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, streamed",
        [
            ("generate", "rejects.csv"),
            ("generate", "build_report.json"),
            ("generate", "name_map.json"),
            ("analyze", "analyzed.csv"),
        ],
    )
    def test_failed_write_partway_through_a_streamed_output(
        self, command, streamed, generated, corpus12_path, capsys, monkeypatch
    ):
        # Two pieces reach the temp file of `streamed`, then the disk fills up.
        monkeypatch.setattr(cli, "JSON_SLICE", 2)
        writes = []
        open_path = Path.open

        class FillsUp:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return self.fh.__exit__(*exc_info)

            def write(self, text):
                writes.append(text)
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, "No space left on device", self.fh.name)
                return self.fh.write(text)

        def opening(path, *args, **kwargs):
            fh = open_path(path, *args, **kwargs)
            return FillsUp(fh) if path.name.startswith(f".{streamed}.") else fh

        monkeypatch.setattr(Path, "open", opening)
        capsys.readouterr()
        argv = [command, "--strict", "--input", corpus12_path]
        self.assert_fails_changing_nothing(argv, *generated)
        assert len(writes) == 3
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")

    def test_analyze_leaves_the_package_alone(self, generated, corpus12_path):
        out, _ = generated
        (out / "package" / "extra.txt").write_text("not a module of this run", encoding="utf-8")
        package = read_tree(out / "package")
        assert run(["analyze", "--input", corpus12_path, "--out-dir", out]) == 0
        assert read_tree(out / "package") == package
        assert {"analyzed.csv", "dashboard.txt", "dashboard.json"} < set(read_tree(out))

    def test_outputs_get_the_mode_open_would_give(self, generated):
        umask = os.umask(0)
        os.umask(umask)
        out, rejects = generated
        for path in (rejects, out / "name_map.json", out / "package" / "users.txt"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


class TestScale:
    def test_duplicate_calls_generate_in_linear_time(self, corpus12_path, tmp_path):
        # Every row renders the same function name and declaration names, so
        # each takes a suffix; probing suffixes from _2 each time is quadratic
        # (a ratio near 16 for 4x the rows), resuming is linear (near 4).
        def generate_seconds(rows: int) -> float:
            corpus = duplicate_call_corpus(corpus12_path, tmp_path / f"dup{rows}.csv", rows)
            start = time.perf_counter()
            assert run(["generate", "--input", corpus, "--out-dir", tmp_path / f"out{rows}"]) == 0
            return time.perf_counter() - start

        generate_seconds(50)  # warm imports and caches outside the timed runs
        small, large = generate_seconds(2000), generate_seconds(8000)
        assert large / small < 8, (small, large)


class TestCollectorState:
    """``main`` runs with the cyclic collector off and hands back the caller's state."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("case", ["success", "missing-corpus", "help", "unknown-option"])
    def test_main_restores_the_callers_gc_state(
        self, corpus12_path, tmp_path, monkeypatch, capsys, case, enabled
    ):
        argv = {
            "success": ["generate", "--input", corpus12_path, "--out-dir", tmp_path / "out"],
            "missing-corpus": ["analyze", "--input", tmp_path / "absent.csv", "--out-dir", tmp_path],
            "help": ["--help"],
            "unknown-option": ["generate", "--no-such-option"],
        }[case]
        during = []  # the collector's state when the command reads its corpus
        read_corpus = cli.load_corpus

        def load_corpus(*args, **kwargs):
            during.append(gc.isenabled())
            return read_corpus(*args, **kwargs)

        monkeypatch.setattr(cli, "load_corpus", load_corpus)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if case in ("help", "unknown-option"):
                with pytest.raises(SystemExit):
                    run(argv)
            else:
                assert run(argv) == (0 if case == "success" else 1)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert during == ([False] if case in ("success", "missing-corpus") else [])

    def test_cyclic_garbage_does_not_grow_with_the_corpus(self, tmp_path, capsys):
        def garbage(rows: int) -> int:
            corpus = tmp_path / f"gen{rows}.csv"
            ingest.write_stage(gen_corpus(random.Random(2), rows), corpus)
            gc.collect()
            before = gc.isenabled()
            gc.disable()  # so that nothing is collected between the run and the count
            try:
                assert run(["generate", "--input", corpus, "--out-dir", tmp_path / f"o{rows}"]) == 0
                return gc.collect()
            finally:
                (gc.enable if before else gc.disable)()

        assert garbage(30) == garbage(300)


class TestParseMemo:
    TABLE = '[{"name":"id","in":"path"}]'
    BROKEN = '{"ok": tru'
    ROWS = [
        {
            "record_id": "a1",
            "path": "/v1/t/{id}",
            "curl_example": "curl https://h/v1/t/1",
            "parameters": TABLE,
            "response_example": '{"ok":true}',
        },
        {
            "record_id": "a2",
            "path": "/v1/t/{id}",
            "curl_example": "curl https://h/v1/t/1",
            "parameters": TABLE,
            "response_example": BROKEN,
        },
        {
            "record_id": "a3",
            "http_method": "POST",
            "path": "/v1/t/{id}",
            "curl_example": "curl -X POST https://h/v1/t/1",
            "parameters": TABLE,
            "request_example": '{"ok":true}',
            "response_example": BROKEN,
        },
        {
            "record_id": "a4",
            "http_method": "POST",
            "path": "/v1/u",
            "request_example": BROKEN,
            "response_example": '{"ok":true}',
        },
    ]

    def test_each_distinct_cell_parsed_once_per_run(self, tmp_path, monkeypatch):
        calls: Counter = Counter()

        def counting(name):
            real = getattr(parse, name)

            def counted(*args):
                calls[(name, *args)] += 1
                return real(*args)

            return counted

        for name in ("parse_path_template", "parse_curl", "parse_parameter_table", "parse_json"):
            monkeypatch.setattr(parse, name, counting(name))
        distinct = {
            ("parse_path_template", "/v1/t/{id}"),
            ("parse_path_template", "/v1/u"),
            ("parse_curl", "curl https://h/v1/t/1"),
            ("parse_curl", "curl -X POST https://h/v1/t/1"),
            ("parse_parameter_table", self.TABLE, HttpMethod.GET),
            ("parse_parameter_table", self.TABLE, HttpMethod.POST),
            ("parse_json", '{"ok":true}'),  # in both example columns
            ("parse_json", self.BROKEN),
        }
        corpus = write_cells(tmp_path / "shared.csv", self.ROWS)
        out = tmp_path / "out"

        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        assert calls == Counter(distinct)
        # A second run in the same process starts from an empty memo.
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        assert calls == Counter({key: 2 for key in distinct})

        faults = {
            str(record.id): sorted(i.field for i in record.issues if i.code == "E_JSON_CELL")
            for record in load_corpus(out / "analyzed.csv")
        }
        assert faults == {
            "a1": [],
            "a2": ["response_example"],
            "a3": ["response_example"],
            "a4": ["request_example"],
        }


class TestDashboardCommand:
    def test_from_stage_csv(self, corpus12_path, tmp_path, capsys):
        out = tmp_path / "out"
        run(["analyze", "--input", corpus12_path, "--out-dir", out])
        capsys.readouterr()
        assert run(["dashboard", "--input", out / "analyzed.csv"]) == 0
        text = capsys.readouterr().out
        assert "records      12" in text
        assert "83.3%" in text

    def test_json_format(self, corpus12_path, tmp_path, capsys):
        out = tmp_path / "out"
        run(["analyze", "--input", corpus12_path, "--out-dir", out])
        capsys.readouterr()
        assert run(["dashboard", "--input", out / "analyzed.csv", "--dashboard-format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_records"] == 12

    def test_works_on_raw_input_too(self, corpus12_path, capsys):
        assert run(["dashboard", "--input", corpus12_path]) == 0
        assert "records      12" in capsys.readouterr().out

    def test_uncatalogued_code_becomes_json_cell_tag(self, tmp_path, capsys):
        bogus = {"code": "E_BOGUS", "severity": "Error", "stage": "Parse", "message": "m"}
        stage = write_stage(tmp_path / "stage.csv", [("b", "/v1/b", "", [bogus])])
        assert run(["dashboard", "--input", stage, "--dashboard-format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["code"] for e in doc["issue_frequency"]] == ["E_JSON_CELL"]


class TestHostileCells:
    def test_undecodable_file_stem_is_escaped_in_row_ids(self, corpus12_path, tmp_path, capsys):
        """A row without a record_id is named ``<file stem>:<row>``; a stem byte that is
        not UTF-8 is written as an escape, so the id can go into every output."""
        corpus = write_cells(
            tmp_path / os.fsdecode(b"bad\xff.csv"),
            [{"path": "/v1/ok", "response_example": '{"ok":true}'}, {"path": "/v1/{x}/{x}"}],
        )
        analyzed = tmp_path / "analyzed"
        assert run(["analyze", "--input", corpus, "--out-dir", analyzed]) == 0
        stage = load_corpus(analyzed / "analyzed.csv")
        assert [str(r.id) for r in stage] == ["bad\\xff:1", "bad\\xff:2"]
        assert [str(r.id) for r in load_corpus(analyzed / "rejects.csv")] == ["bad\\xff:2"]
        # The stem names the package only as the first input.
        generated = tmp_path / "generated"
        capsys.readouterr()
        argv = ["generate", "--input", corpus12_path, "--input", corpus, "--out-dir", generated]
        assert run(argv) == 0
        assert "rejected bad\\xff:2: E_PATH_SYNTAX" in capsys.readouterr().out
        rejects = [str(r.id) for r in load_corpus(generated / "rejects.csv")]
        assert rejects == ["r11", "r12", "bad\\xff:2"]

    def test_a_long_group_still_names_a_module_file(self, tmp_path, capsys):
        """A module's name is cut to 200 characters, so its file, and the temp
        file staged beside it, fit a 255-byte file name."""
        group = "a" * 300
        corpus = write_cells(
            tmp_path / "long.csv", [{"path": "/v1/a", "group": group, "response_example": "{}"}]
        )
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus, "--out-dir", out]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in (out / "package").iterdir()) == [
            f"{'a' * 200}.txt",
            "manifest.txt",
        ]

    def test_id_separator_in_file_stem_is_escaped_in_row_ids(self, tmp_path):
        """A stem's ``|``, the id separator, is written ``\\x7c``: a synthesized id
        stays one atom, and the stage file of ``analyze --merge``, saved under
        the corpus's name, gives ``generate`` the same ids as the corpus."""
        rows = [
            {"path": "/v1/a", "response_example": '{"a":1}'},
            {"path": "/v1/b", "response_example": '{"b":2}'},
        ]
        corpus = write_cells(tmp_path / "x|y.csv", rows)
        expected = [["x\\x7cy:1"], ["x\\x7cy:2"]]
        analyzed = tmp_path / "analyzed"
        assert run(["analyze", "--merge", "--input", corpus, "--out-dir", analyzed]) == 0
        census = record_id_census(load_corpus(analyzed / "analyzed.csv"))
        assert census == Counter(atom for (atom,) in expected)

        restaged = tmp_path / "restaged" / corpus.name
        restaged.parent.mkdir()
        restaged.write_bytes((analyzed / "analyzed.csv").read_bytes())
        assert record_id_census(load_corpus(restaged)) == census
        for source in (corpus, restaged):
            out = tmp_path / "generated" / source.parent.name
            assert run(["generate", "--input", source, "--out-dir", out]) == 0
            report = json.loads((out / "build_report.json").read_text(encoding="utf-8"))
            assert [fn["record_id"] for fn in report["functions"]] == expected

    @pytest.mark.parametrize("merge", [[], ["--merge"]])
    def test_inputs_with_one_file_stem_get_distinct_row_ids(self, merge, tmp_path):
        """The first input with a stem names its rows ``<stem>:<row>``; a later one
        takes the stem's next free form, so no two rows share an id atom."""
        rows = [{"path": "/v1/x", "response_example": '{"ok":true}'}, {"path": "/v1/{y}"}]
        inputs = []
        for directory in ("d1", "d2"):
            (tmp_path / directory).mkdir()
            inputs += ["--input", write_cells(tmp_path / directory / "a.csv", rows)]
        expected = Counter(["a:1", "a:2", "a_2:1", "a_2:2"])

        analyzed = tmp_path / "analyzed"
        assert run(["analyze", *merge, *inputs, "--out-dir", analyzed]) == 0
        assert record_id_census(load_corpus(analyzed / "analyzed.csv")) == expected
        rejected = record_id_census(load_corpus(analyzed / "rejects.csv"))
        assert rejected == Counter(["a:2", "a_2:2"])

        generated = tmp_path / "generated"
        assert run(["generate", *merge, *inputs, "--out-dir", generated]) == 0
        report = json.loads((generated / "build_report.json").read_text(encoding="utf-8"))
        ids = [fn["record_id"] for fn in report["functions"]] + report["rejected_record_ids"]
        assert Counter(atom for atoms in ids for atom in atoms) == expected

    def test_deep_json_is_tagged_not_fatal(self, tmp_path):
        deep = nested_json(3000)
        at_bound = nested_json(MAX_JSON_DEPTH)
        ok = '{"ok":true}'
        corpus = write_cells(
            tmp_path / "deep.csv",
            [
                {"record_id": "p", "path": "/v1/p", "parameters": deep, "response_example": ok},
                {"record_id": "q", "path": "/v1/q", "request_example": deep},
                {"record_id": "r", "path": "/v1/r", "response_example": deep},
                {"record_id": "i", "path": "/v1/i", "response_example": ok, "issues": deep},
                {
                    "record_id": "c",
                    "http_method": "POST",
                    "path": "/v1/c",
                    "curl_example": f"curl -d '{deep}' https://api.example.com/v1/c",
                    "response_example": ok,
                },
                {"record_id": "at", "path": "/v1/at", "response_example": at_bound},
            ],
        )
        assert run(["analyze", "--input", corpus, "--out-dir", tmp_path / "a"]) == 0
        assert run(["generate", "--input", corpus, "--out-dir", tmp_path / "g"]) == 0

        stage = {str(r.id): r for r in load_corpus(tmp_path / "a" / "analyzed.csv")}
        for rid, column in (
            ("p", "parameters"),
            ("q", "request_example"),
            ("r", "response_example"),
            ("i", "issues"),
        ):
            assert ("E_JSON_CELL", column) in [(i.code, i.field) for i in stage[rid].issues], rid
        report = json.loads((tmp_path / "g" / "build_report.json").read_text())
        passed = Counter(a for fn in report["functions"] for a in fn["record_id"])
        rejected = Counter(a for ids in report["rejected_record_ids"] for a in ids)
        assert passed + rejected == record_id_census(load_corpus(corpus))
        assert set(passed) == {"c", "at"}

    def test_line_break_in_a_path_writes_no_module_line(self, tmp_path):
        corpus = write_cells(
            tmp_path / "paths.csv",
            [
                {"record_id": "ok", "path": "/v1/ok", "response_example": '{"ok":true}'},
                {
                    "record_id": "evil",
                    "path": "/u\nfunction evil() -> any/x",
                    "response_example": '{"a":1}',
                },
                {
                    "record_id": "var",
                    "path": "/v/{a\nb}",
                    "parameters": json.dumps([{"name": "a\nb", "in": "path"}]),
                    "response_example": '{"b":1}',
                },
            ],
        )
        out = tmp_path / "out"
        assert run(["generate", "--input", corpus, "--out-dir", out]) == 0
        lines = [
            line
            for module in sorted((out / "package").iterdir())
            for line in module.read_text(encoding="utf-8").splitlines()
        ]
        assert "function evil() -> any/x" not in lines and "b}" not in lines
        rejected = load_corpus(out / "rejects.csv")
        parse_tags = [
            (str(r.id), i.code, i.message) for r in rejected for i in r.issues if i.stage.value == "Parse"
        ]
        assert parse_tags == [
            ("evil", "E_PATH_SYNTAX", "control character '\\n' at offset 2"),
            ("var", "E_PATH_SYNTAX", "control character '\\n' at offset 5"),
        ]

    def test_lone_surrogate_is_tagged_not_fatal(self, tmp_path):
        """A JSON cell whose ``\\u`` escape decodes to half a surrogate pair is
        E_JSON_CELL; no output has to carry the surrogate, and the other rows
        come out exactly as they do without these."""
        lone = '{"\\ud800x": 1}'
        ok = '{"ok":true}'
        kept = [
            {"record_id": "ok", "path": "/v1/ok", "response_example": ok},
            {
                "record_id": "curl",
                "http_method": "POST",
                "path": "/v1/curl",
                "curl_example": f"curl -d '{lone}' https://api.example.com/v1/curl",
                "response_example": ok,
            },
        ]
        surrogates = [
            {"record_id": "resp", "path": "/v1/resp", "response_example": lone},
            {"record_id": "req", "path": "/v1/req", "request_example": lone, "response_example": ok},
            {
                "record_id": "par",
                "path": "/v1/par",
                "parameters": '[{"name": "\\ud800q", "in": "path"}]',
                "response_example": ok,
            },
            {
                "record_id": "iss",
                "path": "/v1/iss",
                "response_example": ok,
                "issues": '[{"code": "W_NO_EXAMPLE", "stage": "Infer", "message": "\\udc80"}]',
            },
        ]
        (tmp_path / "all").mkdir()
        (tmp_path / "kept").mkdir()
        corpus = write_cells(tmp_path / "all" / "c.csv", kept + surrogates)
        control = write_cells(tmp_path / "kept" / "c.csv", kept)
        for name, path in (("all", corpus), ("kept", control)):
            assert run(["analyze", "--input", path, "--out-dir", tmp_path / name / "a"]) == 0
            assert run(["generate", "--input", path, "--out-dir", tmp_path / name / "g"]) == 0

        rejected = {str(r.id): r for r in load_corpus(tmp_path / "all" / "a" / "rejects.csv")}
        assert sorted(rejected) == ["iss", "par", "req", "resp"]
        for rid, column in (
            ("resp", "response_example"),
            ("req", "request_example"),
            ("par", "parameters"),
            ("iss", "issues"),
        ):
            tags = [(i.code, i.field) for i in rejected[rid].issues]
            assert ("E_JSON_CELL", column) in tags, rid
            assert any("lone surrogate" in i.message for i in rejected[rid].issues), rid
        stage = (tmp_path / "all" / "a" / "analyzed.csv").read_text(encoding="utf-8")
        control_stage = (tmp_path / "kept" / "a" / "analyzed.csv").read_text(encoding="utf-8")
        assert stage.splitlines()[: len(kept) + 1] == control_stage.splitlines()
        assert read_tree(tmp_path / "all" / "g" / "package") == read_tree(
            tmp_path / "kept" / "g" / "package"
        )
        names = [(tmp_path / d / "g" / "name_map.json").read_bytes() for d in ("all", "kept")]
        assert names[0] == names[1]

    def test_cells_over_128_kib(self, tmp_path):
        big = json.dumps({"blob": "x" * (200 * 1024)})
        corpus = write_cells(
            tmp_path / "big.csv", [{"record_id": "b", "path": "/v1/b", "response_example": big}]
        )
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        assert run(["dashboard", "--input", out / "analyzed.csv"]) == 0

    @pytest.mark.parametrize("command", ["analyze", "generate"])
    @pytest.mark.parametrize(
        "entry",
        [
            {"code": "W_NO_EXAMPLE", "stage": "Parse", "message": ["x"]},
            {"code": "W_NO_EXAMPLE", "stage": "Parse", "message": "m", "field": 7},
            "W_NO_EXAMPLE",
        ],
    )
    def test_issue_entry_that_is_not_an_issue_tags_its_row(self, command, entry, tmp_path):
        """An ``issues`` entry that is not an object, or whose message or field is not
        text, rejects its row with E_JSON_CELL; the run goes on."""
        corpus = write_cells(
            tmp_path / "c.csv",
            [
                {"record_id": "ok", "path": "/v1/ok", "response_example": '{"ok":true}'},
                {
                    "record_id": "bad",
                    "path": "/v1/bad",
                    "response_example": '{"ok":true}',
                    "issues": json.dumps([entry]),
                },
            ],
        )
        out = tmp_path / "out"
        assert run([command, "--input", corpus, "--out-dir", out]) == 0
        (rejected,) = load_corpus(out / "rejects.csv")
        assert str(rejected.id) == "bad"
        assert [(i.code, i.field) for i in rejected.issues] == [("E_JSON_CELL", "issues")]


class TestParseBeforeMerge:
    def test_dropped_row_keeps_its_curl_fault(self, tmp_path):
        corpus = write_cells(
            tmp_path / "dup.csv",
            [
                {
                    "record_id": "m1",
                    "path": "/v1/m",
                    "curl_example": "curl https://api.example.com/v1/m",
                    "response_example": '{"ok":true}',
                },
                {"record_id": "m2", "path": "/v1/m", "curl_example": "curl 'https://h/v1/m"},
            ],
        )
        out = tmp_path / "out"
        assert run(["analyze", "--merge", "--input", corpus, "--out-dir", out]) == 0
        (rejected,) = load_corpus(out / "rejects.csv")
        assert str(rejected.id) == "m1|m2"
        assert rejected.raw_curl == "curl https://api.example.com/v1/m"
        assert "E_CURL_TOKENIZE" in [i.code for i in rejected.issues]

    def test_bad_parameter_table_tagged_once(self, tmp_path):
        corpus = write_cells(
            tmp_path / "p.csv", [{"record_id": "p", "path": "/v1/p", "parameters": "not-json"}]
        )
        out = tmp_path / "out"
        assert run(["analyze", "--input", corpus, "--out-dir", out]) == 0
        (record,) = load_corpus(out / "analyzed.csv")
        assert [i.code for i in record.issues].count("E_JSON_CELL") == 1

    def test_second_row_examples_count_after_merge(self, tmp_path):
        corpus = write_cells(
            tmp_path / "dup.csv",
            [
                {"record_id": "m1", "path": "/v1/m"},
                {"record_id": "m2", "path": "/v1/m", "response_example": '{"ok":true}'},
            ],
        )
        out = tmp_path / "out"
        assert run(["analyze", "--merge", "--input", corpus, "--out-dir", out]) == 0
        (record,) = load_corpus(out / "analyzed.csv")
        assert "W_NO_EXAMPLE" not in [i.code for i in record.issues]

    def test_each_cell_decoded_once(self, tmp_path, monkeypatch):
        decoded: Counter = Counter()

        def counting(text):
            decoded[text] += 1
            return parse_json(text)

        for module in (ingest, parse, params):
            monkeypatch.setattr(module, "parse_json", counting)
        stored = {"code": "W_BODY_ON_GET", "stage": "Validate", "message": "m"}
        rows = [
            {
                "record_id": "a",
                "path": "/v1/a",
                "parameters": '[{"name":"q","in":"query"}]',
                "request_example": '{"r":1}',
                "response_example": '{"s":2}',
                "issues": json.dumps([stored]),
            },
            {
                "record_id": "b",
                "path": "/v1/b",
                "parameters": "not-json",
                "request_example": "[1",
                "response_example": '{"t":3}',
                "issues": "[]",
            },
            {"record_id": "a2", "path": "/v1/a", "response_example": '{"s":"dup"}'},
            {"record_id": "c", "path": "/v1/c"},
        ]
        corpus = write_cells(tmp_path / "cells.csv", rows)
        columns = ("parameters", "request_example", "response_example", "issues")
        out = tmp_path / "out"
        assert run(["analyze", "--merge", "--input", corpus, "--out-dir", out]) == 0
        assert decoded == Counter(row[c] for row in rows for c in columns if row.get(c))

        decoded.clear()
        assert run(["dashboard", "--input", out / "analyzed.csv"]) == 0
        with (out / "analyzed.csv").open(encoding="utf-8", newline="") as fh:
            stage = list(csv.DictReader(fh))
        assert decoded == Counter(row["issues"] for row in stage)


class TestStageIsAFixedPoint:
    """``generate`` from the stage file of ``analyze --merge``, saved under the
    corpus's own stem (the package name), does what ``generate --merge`` does
    from the corpus itself."""

    def generate(self, argv, out_dir: Path, capsys) -> tuple[int, str, dict[str, bytes]]:
        capsys.readouterr()
        code = run([*argv, "--out-dir", out_dir])
        stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
        return code, stdout, read_tree(out_dir) if out_dir.exists() else {}

    def restaged_equals_direct(self, corpus: Path, tmp_path: Path, capsys) -> tuple:
        """``generate --merge``'s result, once ``generate`` on the restaged corpus equals it."""
        direct = self.generate(["generate", "--merge", "--input", corpus], tmp_path / "a", capsys)

        assert run(["analyze", "--merge", "--input", corpus, "--out-dir", tmp_path / "s"]) == 0
        restaged = tmp_path / "restaged" / corpus.name
        restaged.parent.mkdir()
        restaged.write_bytes((tmp_path / "s" / "analyzed.csv").read_bytes())
        again = self.generate(["generate", "--input", restaged], tmp_path / "b", capsys)

        assert again == direct
        return direct

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_generated_corpus(self, seed, tmp_path, capsys):
        # Cells with commas, quotes, line breaks, non-ASCII text and prior issue tags.
        rng = random.Random(seed)
        corpus = tmp_path / "raw" / "corpus.csv"
        corpus.parent.mkdir()
        ingest.write_stage([gen_record(rng, i) for i in range(60)], corpus)
        # A run with zero valid records exits 1 and writes nothing, on both sides alike.
        code, _, tree = self.restaged_equals_direct(corpus, tmp_path, capsys)
        assert code == (0 if "package/manifest.txt" in tree else 1)

    def test_fixture_corpus(self, corpus12_path, tmp_path, capsys):
        code, _, _ = self.restaged_equals_direct(corpus12_path, tmp_path, capsys)
        assert code == 0

    def test_dirty_corpus(self, tmp_path, capsys):
        # Mostly defective rows, with merge groups.
        corpus = tmp_path / "raw" / "dirty.csv"
        subprocess.run(
            [sys.executable, str(GENERATOR), "dirty", "400", "7", str(corpus)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        code, _, _ = self.restaged_equals_direct(corpus, tmp_path, capsys)
        assert code == 0
