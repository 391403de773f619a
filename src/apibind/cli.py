"""Pipeline driver: ``analyze``, ``generate`` and ``dashboard`` subcommands.

``analyze`` and ``generate`` share one gate (``_gate``) and one out-dir
layout (``OUT_FILES`` beside ``PACKAGE_DIR``). A run whose outputs would
overwrite or remove an input or its rejects file is refused before anything
is written, and so is a bad ``--templates`` or ``--identifier-policy``, or
a ``generate`` input whose file stem, the package name, is not printable.

Every file either command writes goes through one ``_AllOrNone`` writer:
each output is streamed into a temp file beside its target, the stage CSVs
row by row (``write_stage``) and the JSON reports member by member
(``write_json``), so no large output is ever held whole as text. ``analyze``
writes ``analyzed.csv`` and the rejects file in one pass: each row is
formatted once, and a rejected record's line goes to both files. The targets
are replaced only once every write has succeeded; a run that fails, even
partway through a file, therefore changes no file. Only after a successful
``generate`` are the earlier ``package/*.txt`` modules it did not write
removed.

``dashboard`` builds no record: it sums the issue tallies
(``issue_tally``) of its inputs, each streamed from two columns of the
file, and prints the dashboard of that sum (``dashboard_of_tally``).

Data-quality problems are report content, not process failures: ``analyze``
exits zero even when every record errs. A nonzero exit means the run itself
failed (unreadable corpus, broken templates, colliding paths, nothing to
generate).

Each command imports only the modules it runs (``_DEFERRED``): ``dashboard``
never imports the parsers, and ``analyze`` never imports the type lattice,
the code generator or the template engine. No command imports
``dataclasses``, whose import loads ``inspect``, ``ast``, ``dis`` and
``tokenize``. Every run is a fresh process, so the imports a command skips
are start-up time it saves.
"""

from __future__ import annotations

import argparse
import errno
import gc
import itertools
import json
import os
import sys
import tempfile
from collections import Counter
from collections.abc import Collection
from pathlib import Path

from .ingest import CorpusError, issue_tally, load_corpus, merge_corpus, write_stage
from .records import ApiCallRecord
from .text import SURROGATE, UNPRINTABLE, wire_text
from .validate import (
    cross_validate,
    dashboard,
    dashboard_of_tally,
    dashboard_to_json,
    render_dashboard_text,
    route,
)

#: The names only some commands call, each by the module that defines it:
#: ``analyze`` and ``generate`` parse, and only ``generate`` builds and
#: renders. ``_load`` binds them here when a command starts.
_DEFERRED = {
    "parse_columns": "parse",
    "parse_record": "parse",
    "BindingFunction": "codegen",
    "IdentifierPolicy": "codegen",
    "apply_identifier_policy": "codegen",
    "build_reference": "codegen",
    "render_package": "codegen",
    "TemplateError": "templates",
    "TemplateSet": "templates",
}

#: The files ``analyze`` and ``generate`` write into ``--out-dir``. They sit
#: beside ``PACKAGE_DIR``, whose ``*.txt`` files ``generate`` replaces.
OUT_FILES = (
    "analyzed.csv", "dashboard.txt", "dashboard.json", "build_report.json", "name_map.json"
)
STAGE, DASHBOARD_TEXT, DASHBOARD_JSON, BUILD_REPORT, NAME_MAP = OUT_FILES
PACKAGE_DIR = "package"

#: Entries per ``encode`` call when ``write_json`` streams a list or dict
#: member: a few kilobytes of text at a time, each one C-encoder call.
JSON_SLICE = 256


def _load(*modules: str) -> None:
    """Import ``modules`` and bind their ``_DEFERRED`` names here.

    A name already bound is kept: a wrapper put in its place before the
    command ran (by a test or a tracer) is the one the command calls.
    """
    for module in modules:
        qualified = f"{__package__}.{module}"
        __import__(qualified)  # not importlib.import_module: ``-X importtime`` lists only this
        for name, home in _DEFERRED.items():
            if home == module:
                globals().setdefault(name, getattr(sys.modules[qualified], name))


def __getattr__(name: str):
    """A ``_DEFERRED`` name read from outside before any command bound it."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_DEFERRED[name])
    return globals()[name]


def _refuse_overwrites(inputs: list[Path], out_dir: Path, rejects: Path) -> None:
    """Raise ``ValueError`` if the run would write over or delete an input or ``rejects``."""
    package = (out_dir / PACKAGE_DIR).resolve()
    written = {out_dir.resolve(), package, *((out_dir / name).resolve() for name in OUT_FILES)}
    for path in (*inputs, rejects):
        target = path.resolve()
        if target in written or (target.parent == package and target.name.endswith(".txt")):
            raise ValueError(f"{path} would be overwritten or removed by a run into {out_dir}")
    if rejects.resolve() in {path.resolve() for path in inputs}:
        raise ValueError(f"rejects path {rejects} is an input")


def _package_name(path: Path) -> str:
    """``path``'s stem, which names the package; ``ValueError`` if it is not printable text.

    The name is written into the manifest and every module header, so a stem
    with a line break or another control character would add lines to them,
    and one with a surrogate (from a file-name byte that is not UTF-8) could
    not be written at all.
    """
    name = path.stem
    if UNPRINTABLE.search(name) or SURROGATE.search(name):
        raise ValueError(f"package name {name!r} (the stem of {str(path)!r}) is not printable text")
    return name


def _remove_stale_modules(out_dir: Path, written: Collection[str]) -> None:
    """Remove the ``PACKAGE_DIR/*.txt`` files a successful ``generate`` did not write."""
    for stale in (out_dir / PACKAGE_DIR).glob("*.txt"):
        if stale.name not in written and stale.is_file():
            stale.unlink()


def write_json(path: Path, value: dict[str, object], **options) -> None:
    """Write ``json.dumps(value, **options) + "\\n"`` to ``path``, never holding it whole.

    ``value`` is a dict with ``str`` keys, written one member at a time; a
    member that is a list or dict is written in slices of ``JSON_SLICE``
    entries. Each slice is one ``encode`` call of one reused ``JSONEncoder``
    (the C encoder, which ``json.dump`` and ``iterencode`` do not use) with
    its brackets stripped, so the bytes equal ``json.dumps``'s.
    """
    encoder = json.JSONEncoder(**options)
    sep = encoder.item_separator
    with path.open("w", encoding="utf-8") as fh:
        fh.write("{")
        for index, key in enumerate(sorted(value) if encoder.sort_keys else value):
            member = value[key]
            fh.write((sep if index else "") + encoder.encode(key) + encoder.key_separator)
            if not isinstance(member, (dict, list)):
                fh.write(encoder.encode(member))
                continue
            brackets = "{}" if isinstance(member, dict) else "[]"
            fh.write(brackets[0])
            for position, piece in enumerate(_json_slices(member, encoder.sort_keys)):
                fh.write((sep if position else "") + encoder.encode(piece)[1:-1])
            fh.write(brackets[1])
        fh.write("}\n")


def _json_slices(member: dict | list, sort_keys: bool):
    """``member``'s entries in order, ``JSON_SLICE`` at a time, as dicts or lists like it."""
    if isinstance(member, dict):
        keys = sorted(member) if sort_keys else list(member)
        for start in range(0, len(keys), JSON_SLICE):
            yield {key: member[key] for key in keys[start:start + JSON_SLICE]}
    else:
        for start in range(0, len(member), JSON_SLICE):
            yield member[start:start + JSON_SLICE]


class _AllOrNone:
    """Write a run's outputs so that a failed run changes no file.

    ``path(target)`` creates a temp file beside ``target`` (``tempfile.mkstemp``,
    so it never collides with an existing file) and returns its path for the
    caller to stream into; ``text(target, text)`` writes ``text`` there. A target
    that is a directory is refused at once. When the ``with`` block ends
    normally, every temp file replaces its target; on any exception, the temp
    files and the directories made for them are removed and every target
    stays as it was.
    """

    def __init__(self) -> None:
        self.staged: list[tuple[Path, Path]] = []  # (temp file, target)
        self.made_dirs: list[Path] = []
        umask = os.umask(0)
        os.umask(umask)
        self.mode = 0o666 & ~umask  # what a plain open() would have created

    def __enter__(self) -> _AllOrNone:
        return self

    def path(self, target: Path) -> Path:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        parent = target.parent
        missing = list(itertools.takewhile(lambda d: not d.exists(), (parent, *parent.parents)))
        self.made_dirs += reversed(missing)
        parent.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=parent)
        os.close(fd)
        temp = Path(name)
        self.staged.append((temp, target))
        temp.chmod(self.mode)
        return temp

    def text(self, target: Path, text: str) -> None:
        self.path(target).write_text(text, encoding="utf-8")

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            for temp, target in self.staged:
                os.replace(temp, target)
            return
        for temp, _ in self.staged:
            temp.unlink(missing_ok=True)
        for made in reversed(self.made_dirs):
            try:
                made.rmdir()
            except OSError:
                pass


def _parse_inputs(paths: list[Path]) -> list[ApiCallRecord]:
    """Load and parse every row; each distinct cell is parsed once per call."""
    stems: dict[str, int] = {}
    records = [record for path in paths for record in load_corpus(path, taken_stems=stems)]
    columns = parse_columns(records)
    for index, record in enumerate(records):  # a raw record is let go once it is parsed
        records[index] = parse_record(record, columns)
    return records


def _gate(
    args: argparse.Namespace,
) -> tuple[Path, list[ApiCallRecord], list[ApiCallRecord], list[ApiCallRecord]]:
    """Check the paths and run every record to the gate.

    Returns ``(rejects, records, valid, rejected)``: the rejects path, every
    record after cross-validation, and the two sides of ``route``.
    """
    rejects = args.rejects or args.out_dir / "rejects.csv"
    _refuse_overwrites(args.input, args.out_dir, rejects)
    records = _parse_inputs(args.input)
    if args.merge:
        records = merge_corpus(records)
    records = [cross_validate(record) for record in records]
    valid, rejected = route(records, strict=args.strict)
    return rejects, records, valid, rejected


def cmd_analyze(args: argparse.Namespace) -> int:
    _load("parse")
    rejects, records, valid, rejected = _gate(args)
    with _AllOrNone() as out:
        write_stage(records, out.path(args.out_dir / STAGE), (rejected, out.path(rejects)))
        report = dashboard(records)
        text = render_dashboard_text(report)
        out.text(args.out_dir / DASHBOARD_TEXT, text)
        out.text(args.out_dir / DASHBOARD_JSON, dashboard_to_json(report))
    sys.stdout.write(text)
    sys.stdout.write(
        f"stage written: {args.out_dir / STAGE} ({len(valid)} valid, {len(rejected)} rejected)\n"
    )
    return 0


def _function_entry(fn: BindingFunction) -> dict:
    """``fn``'s entry in ``build_report.json``; ``issues`` only when the build found some."""
    entry = {"raw_name": fn.raw_name, "record_id": list(fn.record.id)}
    if fn.issues:
        entry["issues"] = [issue.to_json() for issue in fn.issues]
    return entry


def cmd_generate(args: argparse.Namespace) -> int:
    _load("parse", "codegen", "templates")
    package_name = _package_name(args.input[0])
    templates = (
        TemplateSet.load_dir(args.templates)
        if args.templates is not None
        else TemplateSet.neutral()
    )
    policy = (
        IdentifierPolicy.from_json_file(args.identifier_policy)
        if args.identifier_policy is not None
        else IdentifierPolicy()
    )
    rejects, _, valid, rejected = _gate(args)
    for record in rejected:
        codes = ",".join(sorted({i.code for i in record.issues})) or "-"
        sys.stdout.write(f"rejected {wire_text(str(record.id))}: {codes}\n")
    if not valid:  # nothing is written, not even the rejects
        sys.stderr.write("no valid records; nothing to generate\n")
        return 1

    with _AllOrNone() as out:
        write_stage(rejected, out.path(rejects))
        ir = build_reference(valid, package_name=package_name)
        names = apply_identifier_policy(ir, policy)
        write_json(
            out.path(args.out_dir / BUILD_REPORT),
            {
                "package": {
                    "name": ir.package_name,
                    "version": ir.version,
                    "corpus_digest": ir.corpus_digest,
                },
                "functions": [_function_entry(fn) for fn in ir.functions],
                "rejected_record_ids": [list(record.id) for record in rejected],
            },
            ensure_ascii=False,
        )
        write_json(out.path(args.out_dir / NAME_MAP), names, sort_keys=True)
        package = args.out_dir / PACKAGE_DIR
        files = render_package(
            ir, names, templates, lambda file_name, text: out.text(package / file_name, text)
        )
    _remove_stale_modules(args.out_dir, set(files))

    for record_id, issue in ir.report:
        sys.stdout.write(f"note {wire_text(record_id)}: {issue.code} {issue.message}\n")
    sys.stdout.write(
        f"package: {len(ir.functions)} functions, {len(ir.decls)} types, "
        f"{len(files)} files in {package}\n"
    )
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    report = dashboard_of_tally(sum(map(issue_tally, args.input), Counter()))
    render = dashboard_to_json if args.dashboard_format == "json" else render_dashboard_text
    sys.stdout.write(render(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apibind",
        description="Turn scraped API-documentation CSVs into validated, typed binding packages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument(
        "--input", action="append", required=True, type=Path, metavar="PATH",
        help="input CSV corpus (repeatable)",
    )
    gate = argparse.ArgumentParser(add_help=False, parents=[inputs])
    gate.add_argument("--out-dir", required=True, type=Path)
    gate.add_argument(
        "--rejects", type=Path, default=None,
        help="rejects CSV path (default: <out-dir>/rejects.csv)",
    )
    gate.add_argument("--merge", action="store_true", help="merge records describing the same call")
    gate.add_argument("--strict", action="store_true", help="treat warnings as errors at the gate")

    p_analyze = sub.add_parser(
        "analyze", parents=[gate],
        help="load, parse and cross-validate; write stage CSV and dashboard",
    )
    p_analyze.set_defaults(run=cmd_analyze)

    p_generate = sub.add_parser(
        "generate", parents=[gate], help="route valid records and render the binding package"
    )
    p_generate.add_argument("--templates", type=Path, default=None, metavar="DIR")
    p_generate.add_argument("--identifier-policy", type=Path, default=None, metavar="FILE")
    p_generate.set_defaults(run=cmd_generate)

    p_dashboard = sub.add_parser(
        "dashboard", parents=[inputs], help="recompute and print the dashboard from any stage CSV"
    )
    p_dashboard.add_argument("--dashboard-format", choices=("text", "json"), default="text")
    p_dashboard.set_defaults(run=cmd_dashboard)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the cyclic collector is off meanwhile.

    A run's objects form no cycles that grow with the corpus, so collection
    passes would only re-scan live data. The caller's collector state is
    restored however the run ends, ``SystemExit`` from argument parsing included.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.run(args)
        except (CorpusError, ValueError, OSError) as exc:  # a TemplateError is a ValueError
            sys.stderr.write(f"error: {exc}\n")
            return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
