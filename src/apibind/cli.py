"""Pipeline driver: ``analyze``, ``generate`` and ``dashboard`` subcommands.

Data-quality problems are report content, not process failures: ``analyze``
exits zero even when every record errs. A nonzero exit means the run itself
failed (unreadable corpus, broken templates, nothing to generate).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .codegen import (
    BindingIr,
    GenerationError,
    IdentifierPolicy,
    apply_identifier_policy,
    build_reference,
    render_package,
)
from .ingest import CorpusError, load_corpus, merge_corpus, write_stage
from .parse import parse_record
from .records import ApiCallRecord
from .templates import RenderError, TemplateError, TemplateSet
from .validate import (
    cross_validate,
    dashboard,
    dashboard_to_json,
    render_dashboard_text,
    route,
)


@dataclass
class PipelineConfig:
    inputs: list[Path]
    out_dir: Path
    rejects_path: Path
    merge: bool = False
    strict: bool = False
    templates_dir: Path | None = None
    identifier_policy: Path | None = None
    dashboard_formats: tuple[str, ...] = ("text", "json")

    def validate(self) -> None:
        """Refuse, before anything is written, a run that would overwrite an input."""
        inputs = {path.resolve(): path for path in self.inputs}
        stage = self.out_dir / "analyzed.csv"
        for output in (self.out_dir, stage, self.rejects_path):
            if output.resolve() in inputs:
                raise ValueError(f"output {output} collides with input {inputs[output.resolve()]}")
        if self.rejects_path.resolve() == stage.resolve():
            raise ValueError("--rejects must be distinct from the stage output")


def _analyze_records(config: PipelineConfig) -> list[ApiCallRecord]:
    """Load, parse every row, merge (with ``--merge``), then cross-validate."""
    records = [parse_record(record) for path in config.inputs for record in load_corpus(path)]
    if config.merge:
        records = merge_corpus(records)
    return [cross_validate(record) for record in records]


def cmd_analyze(config: PipelineConfig) -> int:
    config.validate()
    records = _analyze_records(config)
    valid, rejected = route(records, strict=config.strict)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    write_stage(records, config.out_dir / "analyzed.csv")
    config.rejects_path.parent.mkdir(parents=True, exist_ok=True)
    write_stage(rejected, config.rejects_path)

    report = dashboard(records)
    text = render_dashboard_text(report)
    if "text" in config.dashboard_formats:
        (config.out_dir / "dashboard.txt").write_text(text, encoding="utf-8")
    if "json" in config.dashboard_formats:
        (config.out_dir / "dashboard.json").write_text(dashboard_to_json(report), encoding="utf-8")
    sys.stdout.write(text)
    sys.stdout.write(
        f"stage written: {config.out_dir / 'analyzed.csv'} "
        f"({len(valid)} valid, {len(rejected)} rejected)\n"
    )
    return 0


def cmd_generate(config: PipelineConfig) -> int:
    config.validate()
    records = _analyze_records(config)
    valid, rejected = route(records, strict=config.strict)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    config.rejects_path.parent.mkdir(parents=True, exist_ok=True)
    write_stage(rejected, config.rejects_path)
    for record in rejected:
        codes = ",".join(sorted({i.code for i in record.issues})) or "-"
        sys.stdout.write(f"rejected {record.id}: {codes}\n")
    if not valid:
        sys.stderr.write("no valid records; nothing to generate\n")
        return 1

    templates = (
        TemplateSet.load_dir(config.templates_dir)
        if config.templates_dir is not None
        else TemplateSet.neutral()
    )
    policy = (
        IdentifierPolicy.from_json_file(config.identifier_policy)
        if config.identifier_policy is not None
        else IdentifierPolicy()
    )

    package_name = config.inputs[0].stem
    ir = build_reference(valid, package_name=package_name)
    names = apply_identifier_policy(ir, policy)
    written = render_package(ir, names, templates, config.out_dir / "package")

    _write_build_report(config.out_dir, ir, rejected)
    (config.out_dir / "name_map.json").write_text(
        json.dumps(names, sort_keys=True) + "\n", encoding="utf-8"
    )

    for issue_record, issue in ir.report:
        sys.stdout.write(f"note {issue_record}: {issue.code} {issue.message}\n")
    sys.stdout.write(
        f"package: {len(ir.functions)} functions, {len(ir.decls)} types, "
        f"{len(written)} files in {config.out_dir / 'package'}\n"
    )
    return 0


def _write_build_report(out_dir: Path, ir: BindingIr, rejected: list[ApiCallRecord]) -> None:
    report = {
        "package": {
            "name": ir.package_meta.name,
            "version": ir.package_meta.version,
            "corpus_digest": ir.package_meta.corpus_digest,
        },
        "functions": [
            {"raw_name": fn.raw_name, "record_id": list(fn.record.id.ids)} for fn in ir.functions
        ],
        "issues": [
            {"record_id": record_id, **issue.to_json()} for record_id, issue in ir.report
        ],
        "rejected_record_ids": [list(record.id.ids) for record in rejected],
    }
    (out_dir / "build_report.json").write_text(
        json.dumps(report, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def cmd_dashboard(config: PipelineConfig) -> int:
    records: list[ApiCallRecord] = []
    for path in config.inputs:
        records.extend(load_corpus(path))
    report = dashboard(records)
    if "text" in config.dashboard_formats:
        sys.stdout.write(render_dashboard_text(report))
    if "json" in config.dashboard_formats:
        sys.stdout.write(dashboard_to_json(report))
    return 0


def _add_common(parser: argparse.ArgumentParser, *, outputs: bool) -> None:
    parser.add_argument(
        "--input", action="append", required=True, type=Path, metavar="PATH",
        help="input CSV corpus (repeatable)",
    )
    if outputs:
        parser.add_argument("--out-dir", required=True, type=Path)
        parser.add_argument(
            "--rejects", type=Path, default=None,
            help="rejects CSV path (default: <out-dir>/rejects.csv)",
        )
        parser.add_argument("--merge", action="store_true", help="merge records describing the same call")
        parser.add_argument("--strict", action="store_true", help="treat warnings as errors at the gate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apibind",
        description="Turn scraped API-documentation CSVs into validated, typed binding packages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="load, parse and cross-validate; write stage CSV and dashboard")
    _add_common(p_analyze, outputs=True)
    p_analyze.add_argument("--dashboard-format", choices=("text", "json", "both"), default="both")

    p_generate = sub.add_parser("generate", help="route valid records and render the binding package")
    _add_common(p_generate, outputs=True)
    p_generate.add_argument("--templates", type=Path, default=None, metavar="DIR")
    p_generate.add_argument("--identifier-policy", type=Path, default=None, metavar="FILE")

    p_dashboard = sub.add_parser("dashboard", help="recompute and print the dashboard from any stage CSV")
    _add_common(p_dashboard, outputs=False)
    p_dashboard.add_argument("--dashboard-format", choices=("text", "json", "both"), default="text")

    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    out_dir = getattr(args, "out_dir", None) or Path(".")
    rejects = getattr(args, "rejects", None) or out_dir / "rejects.csv"
    fmt = getattr(args, "dashboard_format", "both")
    formats = ("text", "json") if fmt == "both" else (fmt,)
    return PipelineConfig(
        inputs=list(args.input),
        out_dir=out_dir,
        rejects_path=rejects,
        merge=getattr(args, "merge", False),
        strict=getattr(args, "strict", False),
        templates_dir=getattr(args, "templates", None),
        identifier_policy=getattr(args, "identifier_policy", None),
        dashboard_formats=formats,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _config_from_args(args)
    commands = {"analyze": cmd_analyze, "generate": cmd_generate, "dashboard": cmd_dashboard}
    try:
        return commands[args.command](config)
    except (CorpusError, TemplateError, RenderError, GenerationError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
