"""Each command imports only the modules it runs, and the package resolves its names lazily."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import apibind
from apibind import cli

SRC = Path(apibind.__file__).resolve().parent.parent

#: Every public name ``apibind`` has ever exported, by the module it was first exported from.
PUBLIC = {
    "codegen": (
        "BindingFunction", "BindingIr", "IdentifierPolicy", "apply_identifier_policy",
        "build_reference", "render_package",
    ),
    "curl": ("BodyKind", "CurlRequest", "HttpMethod", "parse_curl", "tokenize_shell"),
    "ingest": ("CorpusError", "load_corpus", "merge_corpus", "record_id_census", "write_stage"),
    "issues": ("CATALOG", "Issue", "Severity", "Stage", "make_issue"),
    "params": ("Convention", "Parameter", "parse_parameter_table"),
    "parse": ("parse_columns", "parse_record"),
    "pathtemplate": ("PathTemplate", "parse_path_template"),
    "records": ("ApiCallRecord", "RecordId"),
    "templates": ("TemplateSet",),
    "typeinfer": (
        "DeclRegistry", "TypeDecl", "inhabits", "lift_declarations", "parse_json",
        "type_of_parameter", "unify",
    ),
    "validate": ("cross_validate", "dashboard", "route"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter over this checkout's ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )


def imported(stderr: str) -> set[str]:
    """The modules a ``-X importtime`` report lists."""
    return set(re.findall(r"^import time:.*\|\s*(\S+)$", stderr, re.MULTILINE))


class TestCommandImports:
    PARSERS = {"apibind.parse", "apibind.curl", "apibind.params", "apibind.pathtemplate"}
    GENERATOR = {"apibind.typeinfer", "apibind.codegen", "apibind.templates", "dataclasses"}

    def test_analyze_and_dashboard_load_only_what_they_run(self, corpus12_path, tmp_path):
        out = tmp_path / "out"
        analyze = run_python(
            "-X", "importtime", "-m", "apibind.cli",
            "analyze", "--merge", "--input", str(corpus12_path), "--out-dir", str(out),
        )
        assert analyze.returncode == 0, analyze.stderr
        dashboard = run_python(
            "-X", "importtime", "-m", "apibind.cli",
            "dashboard", "--input", str(out / "analyzed.csv"),
        )
        assert dashboard.returncode == 0, dashboard.stderr

        analyze_loads, dashboard_loads = imported(analyze.stderr), imported(dashboard.stderr)
        assert {"apibind.ingest", "apibind.validate", *self.PARSERS} <= analyze_loads
        assert analyze_loads.isdisjoint(self.GENERATOR)
        assert {"apibind.ingest", "apibind.validate"} <= dashboard_loads
        assert dashboard_loads.isdisjoint(self.PARSERS | self.GENERATOR)

    def test_a_template_error_is_a_run_error_in_a_fresh_process(self, corpus12_path, tmp_path):
        templates = tmp_path / "tpl"
        templates.mkdir()
        done = run_python(
            "-m", "apibind.cli", "generate", "--input", str(corpus12_path),
            "--out-dir", str(tmp_path / "out"), "--templates", str(templates),
        )
        assert done.returncode == 1
        assert done.stderr == (
            f"error: template directory {templates}: "
            "template set incomplete, missing: manifest.tpl, module.tpl\n"
        )

    def test_benchmark_setup_code_runs(self):
        setup = (
            "import apibind, apibind.cli\n"
            "apibind.cli.TemplateSet.neutral()\n"
            "apibind.cli.IdentifierPolicy()\n"
            "print(apibind.__file__)\n"
        )
        done = run_python("-c", setup)
        assert done.returncode == 0, done.stderr
        assert Path(done.stdout.strip()) == SRC / "apibind" / "__init__.py"

    def test_a_name_bound_before_the_command_runs_is_the_one_it_calls(
        self, corpus12_path, tmp_path, monkeypatch, capsys
    ):
        calls = []
        real = cli.parse_record

        def parse_record(*args):
            calls.append(args[0].id)
            return real(*args)

        monkeypatch.setattr(cli, "parse_record", parse_record)
        argv = ["analyze", "--input", str(corpus12_path), "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert len(calls) == 12
        assert cli.parse_record is parse_record

    @pytest.mark.parametrize(
        "home, name",
        [
            ("parse", "parse_columns"),
            ("codegen", "IdentifierPolicy"),
            ("codegen", "build_reference"),
            ("templates", "TemplateError"),
            ("templates", "TemplateSet"),
        ],
    )
    def test_deferred_names_read_from_outside(self, home, name):
        assert getattr(cli, name) is getattr(getattr(apibind, home), name)

    def test_unknown_cli_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name  # noqa: B018


class TestLazyPackage:
    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_each_name_is_its_modules_object(self, module, name):
        assert getattr(apibind, name) is getattr(getattr(apibind, module), name)

    def test_all_and_dir_list_every_name(self):
        public = {name for _, name in NAMES} | {"__version__"}
        assert set(apibind.__all__) == public
        assert len(apibind.__all__) == len(public) == 42
        assert public <= set(dir(apibind))

    def test_star_import(self):
        namespace: dict = {}
        exec("from apibind import *", namespace)
        assert {name for _, name in NAMES} <= namespace.keys()
        assert namespace["parse_json"] is apibind.typeinfer.parse_json

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            apibind.no_such_name  # noqa: B018
        assert not hasattr(apibind, "_private")

    def test_importing_the_package_imports_no_module(self):
        done = run_python(
            "-c",
            "import sys, apibind\n"
            "print(sorted(m for m in sys.modules if m.startswith('apibind')))\n",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "['apibind']\n"
