"""Span tracing around the names ``apibind.cli`` calls, and self-time arithmetic.

Run as a script, this is the traced child process: it wraps each name in
``WRAPPED`` with a span-recording wrapper, calls ``apibind.cli.main(argv)``
once, and writes the spans and boundary counts as JSON. A wrapped name that
is missing (a module or function renamed, fused or removed) is reported as
absent and its layer reads zero; it never stops the run.

    python3 perfbench/tracing.py EXPECTED_INIT OUT.json -- ARGV...

``EXPECTED_INIT`` is the ``apibind/__init__.py`` the child must import; any
other resolution aborts before the pipeline runs.

Imported, it gives the parent process the span-tree arithmetic and the map
from span names to per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

#: (module, attribute, span name). The ``apibind.cli`` names are the layer
#: boundaries the CLI crosses; the others are calls nested inside them.
WRAPPED = (
    ("apibind.cli", "load_corpus", "load_corpus"),
    ("apibind.cli", "merge_corpus", "merge_corpus"),
    ("apibind.cli", "parse_record", "parse_record"),
    ("apibind.cli", "cross_validate", "cross_validate"),
    ("apibind.cli", "route", "route"),
    ("apibind.cli", "dashboard", "dashboard"),
    ("apibind.cli", "write_stage", "write_stage"),
    ("apibind.cli", "build_reference", "build_reference"),
    ("apibind.cli", "apply_identifier_policy", "apply_identifier_policy"),
    ("apibind.cli", "render_package", "render_package"),
    ("apibind.parse", "parse_curl", "parse_curl"),
    ("apibind.parse", "parse_path_template", "parse_path_template"),
    ("apibind.parse", "parse_parameter_table", "parse_parameter_table"),
    ("apibind.codegen", "parse_json", "parse_json"),
    ("apibind.codegen", "infer_from_examples", "infer_from_examples"),
    ("apibind.codegen", "lift_declarations", "lift_declarations"),
    ("apibind.codegen", "type_of_parameter", "type_of_parameter"),
    ("apibind.templates", "Template.render", "Template.render"),
)

ROOT_SPAN = "main"

#: Span name -> per-layer self-time metric. ``load_corpus`` in a
#: ``dashboard`` command is the stage-file re-read (see ``span_metric``).
SPAN_METRICS = {
    "load_corpus": "ingest.load_s",
    "merge_corpus": "ingest.merge_s",
    "write_stage": "ingest.stage_write_s",
    "parse_record": "parse.busy_s",
    "parse_path_template": "parse.pathtemplate_s",
    "parse_curl": "parse.curl_s",
    "parse_parameter_table": "parse.params_s",
    "cross_validate": "validate.cross_validate_s",
    "route": "validate.route_s",
    "dashboard": "validate.dashboard_s",
    "parse_json": "typeinfer.parse_json_s",
    "infer_from_examples": "typeinfer.infer_s",
    "lift_declarations": "typeinfer.lift_s",
    "type_of_parameter": "typeinfer.param_type_s",
    "build_reference": "codegen.build_reference_self_s",
    "apply_identifier_policy": "codegen.identifiers_s",
    "render_package": "codegen.render_self_s",
    "Template.render": "templates.render_s",
    ROOT_SPAN: "cli.unattributed_s",
}


def span_metric(span_name: str, command: str) -> str:
    if span_name == "load_corpus" and command == "dashboard":
        return "ingest.stage_read_s"
    return SPAN_METRICS[span_name]


def layer_of(metric: str) -> str:
    return metric.split(".", 1)[0]


# --- span arithmetic ----------------------------------------------------------


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"]) - covered((span["start"], span["end"]), kids)
        for span, kids in zip(spans, children)
    ]


# --- the traced child ---------------------------------------------------------


class Tracer:
    """Records spans in memory: name, start, end, parent index, RSS at the edges."""

    def __init__(self, hooks: dict | None = None) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.counters: dict[str, float] = {}
        self.hooks = hooks or {}  # span name -> boundary counter over (args, result)

    def wrap(self, module_name: str, attribute: str, span_name: str) -> None:
        owner_path, _, leaf = attribute.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            target = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attribute}")
            return
        setattr(owner, leaf, self.traced(span_name, target))

    def traced(self, span_name: str, target):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            top = parent is not None and self.spans[parent]["parent"] is None
            span = {"name": span_name, "parent": parent, "start": 0.0, "end": 0.0}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            if top:
                span["rss_before_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span["start"] = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                if top:
                    span["rss_after_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if span_name in self.hooks:
                self.count(span_name, self.hooks[span_name], args, result)
            return result

        return wrapper

    def count(self, span_name: str, hook, args, result) -> None:
        """Run a boundary counter; a renamed field marks the counter absent."""
        try:
            for key, value in hook(args, result).items():
                self.counters[key] = self.counters.get(key, 0) + value
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            label = f"counter@{span_name}"
            if label not in self.absent:
                self.absent.append(label)


def _count_parse_record(args, record):
    return {"parse.issues_out": len(record.issues) - len(args[0].issues)}


def _count_route(args, result):
    valid, rejected = result
    return {"validate.valid": len(valid), "validate.routed": len(valid) + len(rejected)}


def _count_build_reference(args, ir):
    shared = sum(1 for _, issue in ir.report if issue.code == "W_DECL_SHARED")
    return {
        "codegen.functions": len(ir.functions),
        "codegen.decls": len(ir.decls),
        "codegen.decl_shared_tags": shared,
    }


def _count_render_package(args, written):
    return {"templates.package_bytes": sum(Path(path).stat().st_size for path in written)}


HOOKS = {
    "parse_record": _count_parse_record,
    "route": _count_route,
    "build_reference": _count_build_reference,
    "render_package": _count_render_package,
}


def _unify_memo(tracer: Tracer) -> None:
    """Hits and entries of the unify memo, while it is a functools cache."""
    try:
        info = importlib.import_module("apibind.typeinfer")._unify_cached.cache_info()
    except (ImportError, AttributeError):
        tracer.absent.append("apibind.typeinfer._unify_cached.cache_info")
        return
    tracer.counters["typeinfer.unify_hits"] = info.hits
    tracer.counters["typeinfer.unify_calls"] = info.hits + info.misses
    tracer.counters["typeinfer.unify_memo_entries"] = info.currsize


def run_traced(expected_init: Path, argv: list[str]) -> dict:
    import apibind
    import apibind.cli

    found = Path(apibind.__file__).resolve()
    if found != expected_init.resolve():
        raise SystemExit(f"apibind resolves to {found}, not {expected_init}")

    tracer = Tracer(HOOKS)
    for module_name, attribute, span_name in WRAPPED:
        tracer.wrap(module_name, attribute, span_name)
    main = tracer.traced(ROOT_SPAN, apibind.cli.main)
    # A crash or an argument error is a failed operation, judged by the caller.
    try:
        exit_code = main(argv)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        exit_code = 1
    _unify_memo(tracer)
    return {
        "exit_code": exit_code,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "absent": tracer.absent,
    }


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracing.py EXPECTED_INIT OUT.json -- ARGV...")
    report = run_traced(Path(sys.argv[1]), sys.argv[4:])
    Path(sys.argv[2]).write_text(json.dumps(report), encoding="utf-8")
    sys.exit(report["exit_code"])
