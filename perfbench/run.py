"""End-to-end and per-layer benchmark of the ``apibind`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program measured is always the
checkout's own ``src/apibind``. The seed picks the generated corpus (cached
under ``.perfbench/corpora``). Every batch is a fresh ``python -m
apibind.cli`` process, so caches start cold as they do for a user, and the
run repeats batches for ``--seconds`` seconds and reports medians. With
``--trace 1`` it then runs each command once more in a traced process (see
``tracing.py``) and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything above it
is the human-readable report. Exit status 2 means the benchmark could not
measure this checkout (no ``src/apibind``, or ``apibind`` resolving
elsewhere) and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import corpora
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_INIT = SRC / "apibind" / "__init__.py"
WORK = ROOT / ".perfbench"

#: Fresh-interpreter set-up samples taken before each batch, so that they
#: spread over the run like the batches do. One untimed warm-up comes first;
#: it also leaves the bytecode cache as an installed package would have it.
SETUP_PER_BATCH = 2
MIN_BATCHES = 5

SETUP_CODE = (
    "import apibind, apibind.cli\n"
    "apibind.cli.TemplateSet.neutral()\n"
    "apibind.cli.IdentifierPolicy()\n"
    "print(apibind.__file__)\n"
)

#: Fixed pure-Python work in a fresh interpreter, independent of apibind: it
#: builds, serializes, parses and sorts nested records, the same mix of work
#: the pipeline does. Run before and after each batch, its wall time measures
#: the machine's speed at that moment, and ``records_per_ref`` divides it out.
REFERENCE_CODE = (
    "import json\n"
    "docs = [{f'k{i}': [i, str(i), {'x': i * 0.5}] for i in range(j, j + 40)}\n"
    "        for j in range(250)]\n"
    "for _ in range(3):\n"
    "    json.loads(json.dumps(docs))\n"
    "    sorted(str(doc) for doc in docs)\n"
)


@dataclass(frozen=True)
class Workload:
    shape: str
    size: int
    merge: bool
    analyze: bool  # analyze, then dashboard over the stage file; else generate


#: Why each workload exists, and its measured properties: BENCHMARK.json and
#: README.md. Sizes are input rows before duplicates (high-sharing adds ~10%).
WORKLOADS = {
    "generate-low-sharing": Workload("low-sharing", 400, merge=False, analyze=False),
    "generate-high-sharing": Workload("high-sharing", 3000, merge=True, analyze=False),
    "analyze-dirty": Workload("dirty", 4000, merge=True, analyze=True),
}

E2E_UNITS = {"records_per_ref": "records/ref", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "ingest.load_s": "s",
    "ingest.merge_s": "s",
    "ingest.stage_write_s": "s",
    "ingest.stage_read_s": "s",
    "ingest.rss_growth_mb": "MB",
    "parse.busy_s": "s",
    "parse.pathtemplate_s": "s",
    "parse.curl_s": "s",
    "parse.params_s": "s",
    "parse.issues_out": "count",
    "validate.cross_validate_s": "s",
    "validate.route_s": "s",
    "validate.dashboard_s": "s",
    "validate.valid_ratio": "ratio",
    "typeinfer.parse_json_s": "s",
    "typeinfer.infer_s": "s",
    "typeinfer.lift_s": "s",
    "typeinfer.param_type_s": "s",
    "typeinfer.unify_memo_hit_ratio": "ratio",
    "typeinfer.unify_memo_entries": "count",
    "codegen.build_reference_self_s": "s",
    "codegen.identifiers_s": "s",
    "codegen.render_self_s": "s",
    "codegen.rss_growth_mb": "MB",
    "codegen.functions": "count",
    "codegen.decls": "count",
    "codegen.decl_share_ratio": "ratio",
    "templates.render_s": "s",
    "templates.renders": "count",
    "templates.package_bytes": "bytes",
    "cli.unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}


class MeasureError(Exception):
    """This checkout cannot be measured; no result is printed."""


# --- child processes ----------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, log_stem: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, max RSS in MB)."""
    with open(f"{log_stem}.stdout", "wb") as out, open(f"{log_stem}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def setup_sample(run_dir: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds its defaults.

    Also the guard against measuring the wrong program: the child runs with
    the batches' interpreter, environment and working directory, and must
    import ``apibind`` from this checkout.
    """
    stem = run_dir / "setup"
    wall, code, _ = spawn([sys.executable, "-c", SETUP_CODE], run_dir, stem)
    found = Path(f"{stem}.stdout").read_text(encoding="utf-8").strip()
    if code != 0 or Path(found).resolve() != EXPECTED_INIT.resolve():
        detail = Path(f"{stem}.stderr").read_text(encoding="utf-8").strip()
        raise MeasureError(f"apibind resolves to {found!r}, not {EXPECTED_INIT} {detail}")
    return wall


def reference_sample(run_dir: Path) -> float:
    """Wall time of the fixed reference job in a fresh interpreter."""
    wall, code, _ = spawn([sys.executable, "-c", REFERENCE_CODE], run_dir, run_dir / "reference")
    if code != 0:
        raise MeasureError(f"reference job exited {code}")
    return wall


# --- one batch ------------------------------------------------------------------


@dataclass
class Op:
    argv: list[str]  # apibind CLI arguments
    log_stem: Path  # where the child's stdout and stderr go


def batch_ops(workload: Workload, corpus: Path, batch_dir: Path) -> list[Op]:
    out = batch_dir / "out"
    merge = ["--merge"] if workload.merge else []
    if not workload.analyze:
        argv = ["generate", *merge, "--input", str(corpus), "--out-dir", str(out)]
        return [Op(argv, batch_dir / "generate")]
    return [
        Op(
            ["analyze", *merge, "--input", str(corpus), "--out-dir", str(out)],
            batch_dir / "analyze",
        ),
        Op(
            ["dashboard", "--input", str(out / "analyzed.csv"), "--dashboard-format", "json"],
            batch_dir / "dashboard",
        ),
    ]


def check_ops(ops: list[Op], codes: list[int], oracle: dict, out: Path):
    """Failure messages per op, and the doubled Ingest tags seen on re-read."""
    failures: list[list[str]] = []
    doubled = 0
    for op, code in zip(ops, codes):
        problems = []
        try:
            if code != 0:
                tail = Path(f"{op.log_stem}.stderr").read_text(encoding="utf-8")[-300:]
                problems.append(f"{op.argv[0]} exited {code}: {tail.strip()}")
            elif op.argv[0] == "generate":
                problems += checks.check_generate(out, oracle)
            elif op.argv[0] == "analyze":
                problems += checks.check_analyze(out, oracle)
            elif op.argv[0] == "dashboard":
                text = Path(f"{op.log_stem}.stdout").read_text(encoding="utf-8")
                found, doubled = checks.check_dashboard_reread(out, text)
                problems += found
        except (OSError, ValueError, LookupError, TypeError) as exc:
            problems.append(f"{op.argv[0]} outputs unreadable: {exc!r}")
        failures.append(problems)
    return failures, doubled


# --- statistics -------------------------------------------------------------------


def describe(values: list[float], unit: str) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} {unit}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


# --- the traced run ------------------------------------------------------------------


def traced_run(workload: Workload, corpus: Path, run_dir: Path, oracle: dict):
    """One fresh traced process per command; returns reports, walls and failures."""
    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    ops = batch_ops(workload, corpus, trace_dir)
    reports, walls, codes = [], [], []
    script = Path(tracing.__file__).resolve()
    for index, op in enumerate(ops):
        spans_path = trace_dir / f"spans-{index}.json"
        argv = [sys.executable, str(script), str(EXPECTED_INIT), str(spans_path), "--", *op.argv]
        wall, code, _ = spawn(argv, run_dir, op.log_stem)
        walls.append(wall)
        codes.append(code)
        if not spans_path.is_file():
            detail = Path(f"{op.log_stem}.stderr").read_text(encoding="utf-8")[-300:]
            raise MeasureError(f"traced {op.argv[0]} wrote no spans: {detail.strip()}")
        reports.append((op.argv[0], json.loads(spans_path.read_text(encoding="utf-8"))))
    failures, _ = check_ops(ops, codes, oracle, trace_dir / "out")
    return reports, walls, failures


def layer_metrics(reports: list[tuple[str, dict]], records: int) -> tuple[dict, dict]:
    """Per-layer metric values, plus the extra facts the text report prints."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    counters: Counter = Counter()
    absent: list[str] = []
    seen_spans: set[str] = set()
    rss_growth = {"ingest": 0.0, "codegen": 0.0}
    for command, report in reports:
        spans = report["spans"]
        for span, own in zip(spans, tracing.self_times(spans)):
            metric = tracing.span_metric(span["name"], command)
            values[metric] += own
            seen_spans.add(span["name"])
            layer = tracing.layer_of(metric)
            if layer in rss_growth and "rss_after_kb" in span:
                rss_growth[layer] += (span["rss_after_kb"] - span["rss_before_kb"]) / 1024
            if span["name"] == "Template.render":
                values["templates.renders"] += 1
        counters.update(report["counters"])
        absent += [name for name in report["absent"] if name not in absent]

    values["ingest.rss_growth_mb"] = rss_growth["ingest"]
    values["codegen.rss_growth_mb"] = rss_growth["codegen"]
    for name in (
        "parse.issues_out",
        "typeinfer.unify_memo_entries",
        "codegen.functions",
        "codegen.decls",
        "templates.package_bytes",
    ):
        values[name] = counters[name]
    lifted = counters["codegen.decls"] + counters["codegen.decl_shared_tags"]
    ratios = {
        "validate.valid_ratio": (
            counters["validate.valid"], counters["validate.routed"], "routed records pass the gate"
        ),
        "typeinfer.unify_memo_hit_ratio": (
            counters["typeinfer.unify_hits"],
            counters["typeinfer.unify_calls"],
            "unify calls hit the memo",
        ),
        "codegen.decl_share_ratio": (
            counters["codegen.decl_shared_tags"],
            lifted,
            "lifted object nodes (declarations + W_DECL_SHARED tags) are shared",
        ),
    }
    bases = {}
    for name, (part, base, label) in ratios.items():
        values[name] = ratio(part, base)
        bases[name] = f"{part:g} of {base:g} {label}"

    layer_time: dict[str, float] = {}
    for name, value in values.items():
        if name.endswith("_s") and not name.startswith("cli."):
            layer_time[tracing.layer_of(name)] = layer_time.get(tracing.layer_of(name), 0.0) + value
    facts = {
        "bases": bases,
        "absent": absent,
        "seen_spans": seen_spans,
        "layer_time": layer_time,
        "pipeline_s": sum(layer_time.values()),
        "records": records,
    }
    return values, facts


def ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def workload_properties(name: str, values: dict, facts: dict) -> list[tuple[str, bool]]:
    """Does the workload stress what it was chosen for? Reported, not gated."""
    share = {layer: ratio(t, facts["pipeline_s"]) for layer, t in facts["layer_time"].items()}
    if name == "generate-low-sharing":
        build = share.get("typeinfer", 0) + share.get("codegen", 0) + share.get("templates", 0)
        return [
            (f"typeinfer+codegen+templates share of pipeline {build:.3f} >= 0.9", build >= 0.9),
            (
                f"codegen.decl_share_ratio {values['codegen.decl_share_ratio']:.4f} < 0.1",
                values["codegen.decl_share_ratio"] < 0.1,
            ),
        ]
    if name == "generate-high-sharing":
        return [
            (
                f"codegen.decl_share_ratio {values['codegen.decl_share_ratio']:.4f} >= 0.9",
                values["codegen.decl_share_ratio"] >= 0.9,
            )
        ]
    codegen_spans = {"build_reference", "apply_identifier_policy", "render_package"}
    front = share.get("ingest", 0) + share.get("parse", 0) + share.get("validate", 0)
    return [
        ("no codegen span", not (codegen_spans & facts["seen_spans"])),
        (f"ingest+parse+validate share of pipeline {front:.3f} > 0.5", front > 0.5),
    ]


# --- reporting -------------------------------------------------------------------------


def print_layers(name: str, values: dict, facts: dict) -> None:
    print(f"per layer ({name}; one traced process per command; *_s are self times)")
    records = facts["records"]
    for metric, unit in PER_LAYER_UNITS.items():
        value = values[metric]
        note = ""
        if unit == "s":
            note = f"  ({ratio(records, value):.1f} records/s)" if value else "  (not run)"
        elif metric in facts["bases"]:
            note = f"  ({facts['bases'][metric]})"
        print(f"  {metric:<34} {value:>14.6g} {unit:<6}{note}")
    print(f"  pipeline time (sum of layer self times) {facts['pipeline_s']:.4f} s")
    for layer, seconds in sorted(facts["layer_time"].items()):
        print(f"    {layer:<10} {ratio(seconds, facts['pipeline_s']):7.1%}")
    if facts["absent"]:
        print(f"  absent (not wrapped, layer reads 0): {', '.join(facts['absent'])}")
    for label, ok in workload_properties(name, values, facts):
        print(f"  property {'holds' if ok else 'FAILS'}: {label}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, run_dir: Path) -> dict:
    workload = WORKLOADS[args.workload]
    corpus = WORK / "corpora" / f"{workload.shape}-{workload.size}-{args.seed}.csv"
    oracle = corpora.write_corpus(workload.shape, workload.size, args.seed, corpus)
    records = oracle["records"]

    setup_sample(run_dir)
    setup: list[float] = []
    walls: list[float] = []
    # Reference samples bracket every batch: one before its first batch, one
    # after each. A batch's cost is its wall time over the mean of the two.
    references = [reference_sample(run_dir)]
    costs: list[float] = []
    peaks: list[float] = []
    attempted = failed = 0
    out_digests: set[str] = set()
    # Outputs byte-identical to a batch already checked need no second check.
    checked: dict[tuple, list[list[str]]] = {}
    doubled = 0
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_BATCHES or time.perf_counter() < deadline:
        setup += [setup_sample(run_dir) for _ in range(SETUP_PER_BATCH)]
        batch_dir = run_dir / "batch"
        shutil.rmtree(batch_dir, ignore_errors=True)
        batch_dir.mkdir()
        ops = batch_ops(workload, corpus, batch_dir)
        wall = peak = 0.0
        codes = []
        for op in ops:
            op_wall, code, rss = spawn(
                [sys.executable, "-m", "apibind.cli", *op.argv], run_dir, op.log_stem
            )
            wall += op_wall
            peak = max(peak, rss)
            codes.append(code)
        walls.append(wall)
        references.append(reference_sample(run_dir))
        costs.append(wall / statistics.fmean(references[-2:]))
        peaks.append(peak)
        out_digests.add(checks.tree_digest(batch_dir / "out"))
        key = (checks.tree_digest(batch_dir), tuple(codes))
        if key not in checked:
            checked[key], doubled = check_ops(ops, codes, oracle, batch_dir / "out")
            for op, problems in zip(ops, checked[key]):
                for problem in problems:
                    print(f"FAILED {op.argv[0]}: {problem}")
        attempted += len(ops)
        failed += sum(1 for problems in checked[key] if problems)
    if len(out_digests) != 1:
        print(f"FAILED: output trees differ across batches ({len(out_digests)} distinct digests)")
        failed += 1

    median_wall = statistics.median(walls)
    print(
        f"workload {args.workload}: {records} input records "
        f"({workload.shape}, size {workload.size}, seed {args.seed})"
    )
    print(
        f"  oracle: {len(oracle['passed_ids'])} ids pass, {len(oracle['rejected_ids'])} rejected, "
        f"{oracle['records_after_merge']} records after merge, {oracle['functions']} valid; "
        f"merge groups {len(oracle['merge_group_sizes'])} "
        f"(sizes {sorted(set(oracle['merge_group_sizes']))})"
    )
    print(
        f"  records_per_ref {records / statistics.median(costs):.2f} records/ref  "
        f"(batch cost {describe(costs, 'ref')})"
    )
    print(
        f"  records_per_s  {records / median_wall:.2f} records/s  "
        f"(batch wall {describe(walls, 's')})"
    )
    print(f"  reference      {describe(references, 's')}")
    print(f"  peak_rss_mb    {statistics.median(peaks):.2f} MB  ({describe(peaks, 'MB')})")
    print(f"  setup_s        {statistics.median(setup):.4f} s  ({describe(setup, 's')})")
    print(f"  failed_op_ratio {failed}/{attempted} = {ratio(failed, attempted):.4f}")
    if doubled:
        print(
            f"  known defect: re-reading analyzed.csv counts {doubled} Ingest tags twice "
            "(tolerated by the dashboard check; see perfbench/README.md)"
        )

    if not args.trace:
        metrics = {
            "records_per_ref": records / statistics.median(costs),
            "peak_rss_mb": statistics.median(peaks),
            "setup_s": statistics.median(setup),
        }
        units = E2E_UNITS
    else:
        reports, traced_walls, trace_failures = traced_run(workload, corpus, run_dir, oracle)
        attempted += len(trace_failures)
        failed += sum(1 for problems in trace_failures if problems)
        for problems in trace_failures:
            for problem in problems:
                print(f"FAILED traced op: {problem}")
        metrics, facts = layer_metrics(reports, records)
        metrics["trace_overhead_ratio"] = sum(traced_walls) / median_wall
        facts["bases"]["trace_overhead_ratio"] = (
            f"traced wall {sum(traced_walls):.4f} s over median batch wall {median_wall:.4f} s"
        )
        print_layers(args.workload, metrics, facts)
        units = PER_LAYER_UNITS

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "apibind" / "cli.py").is_file():
        print(f"error: no apibind sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    run_dir.mkdir()
    try:
        result = run(args, run_dir)
    except MeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
