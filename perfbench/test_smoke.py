"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Checks that the generator is deterministic, that its oracle agrees with the
program at this commit, that the span arithmetic holds on a hand-built
tree, and that the tracer survives a wrapped name that does not exist.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
import types
import unittest
from unittest import mock
from pathlib import Path

import corpora
import run
import tracing

TINY = {"low-sharing": 30, "high-sharing": 60, "dirty": 120}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for shape, size in TINY.items():
            with self.subTest(shape=shape):
                self.assertEqual(corpora.generate(shape, size, 7), corpora.generate(shape, size, 7))
                self.assertNotEqual(
                    corpora.generate(shape, size, 7)[0], corpora.generate(shape, size, 8)[0]
                )

    def test_oracle_covers_every_id_once(self):
        for shape, size in TINY.items():
            with self.subTest(shape=shape):
                text, oracle = corpora.generate(shape, size, 7)
                rows = list(csv.DictReader(io.StringIO(text, newline="")))
                self.assertEqual(len(rows), oracle["records"])
                self.assertEqual(
                    sorted(row["record_id"] for row in rows),
                    sorted(oracle["passed_ids"] + oracle["rejected_ids"]),
                )


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json names exactly the workloads and metrics run.py reports."""

    def test_names_and_units_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for key, units in (("end_to_end", run.E2E_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, units)


class OracleAgreesTest(unittest.TestCase):
    """Every workload's commands pass every output check at a tiny size."""

    def test_workloads(self):
        for name, workload in run.WORKLOADS.items():
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                tmp_path = Path(tmp)
                corpus = tmp_path / "corpus.csv"
                oracle = corpora.write_corpus(workload.shape, TINY[workload.shape], 7, corpus)
                batch_dir = tmp_path / "batch"
                batch_dir.mkdir()
                ops = run.batch_ops(workload, corpus, batch_dir)
                codes = [
                    run.spawn(
                        [sys.executable, "-m", "apibind.cli", *op.argv], tmp_path, op.log_stem
                    )[1]
                    for op in ops
                ]
                failures, _ = run.check_ops(ops, codes, oracle, batch_dir / "out")
                self.assertEqual(failures, [[] for _ in ops])


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


class GuardTest(unittest.TestCase):
    def test_apibind_from_elsewhere_aborts(self):
        with tempfile.TemporaryDirectory() as tmp:
            elsewhere = Path(tmp) / "src" / "apibind" / "__init__.py"
            with mock.patch.object(run, "EXPECTED_INIT", elsewhere):
                with self.assertRaises(run.MeasureError):
                    run.setup_sample(Path(tmp))


class SpanArithmeticTest(unittest.TestCase):
    SPANS = [
        span("main", 0.0, 10.0, None),  # 0
        span("build_reference", 1.0, 4.0, 0),  # 1
        span("parse_json", 2.0, 3.0, 1),  # 2
        span("render_package", 5.0, 9.0, 0),  # 3
        span("Template.render", 6.0, 7.0, 3),  # 4
        span("Template.render", 6.5, 8.0, 3),  # 5: overlaps 4; the union counts once
    ]

    def test_self_times(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 2.0, 1.0, 1.5])

    def test_layer_metrics(self):
        counters = {"codegen.decls": 3, "codegen.decl_shared_tags": 1}
        report = {"spans": self.SPANS, "counters": counters, "absent": []}
        values, facts = run.layer_metrics([("generate", report)], records=10)
        self.assertEqual(values["codegen.build_reference_self_s"], 2.0)
        self.assertEqual(values["typeinfer.parse_json_s"], 1.0)
        self.assertEqual(values["codegen.render_self_s"], 2.0)
        self.assertEqual(values["templates.render_s"], 2.5)
        self.assertEqual(values["templates.renders"], 2)
        self.assertEqual(values["cli.unattributed_s"], 3.0)
        self.assertEqual(values["codegen.decl_share_ratio"], 0.25)
        self.assertEqual(facts["pipeline_s"], 7.5)  # layer self times, main excluded

    def test_load_in_dashboard_is_stage_read(self):
        spans = [span("main", 0.0, 2.0, None), span("load_corpus", 0.5, 1.5, 0)]
        report = {"spans": spans, "counters": {}, "absent": []}
        values, _ = run.layer_metrics([("dashboard", report)], records=1)
        self.assertEqual(values["ingest.stage_read_s"], 1.0)
        self.assertEqual(values["ingest.load_s"], 0.0)


class TracerTest(unittest.TestCase):
    def test_missing_name_is_absent_and_present_name_is_traced(self):
        module = types.ModuleType("perfbench_fake")
        module.present = lambda x: x + 1
        sys.modules[module.__name__] = module
        try:
            tracer = tracing.Tracer()
            tracer.wrap(module.__name__, "renamed_away", "renamed_away")
            tracer.wrap("perfbench_no_such_module", "anything", "anything")
            tracer.wrap(module.__name__, "present", "present")
            self.assertEqual(module.present(1), 2)
        finally:
            del sys.modules[module.__name__]
        self.assertEqual(
            tracer.absent, ["perfbench_fake.renamed_away", "perfbench_no_such_module.anything"]
        )
        self.assertEqual([s["name"] for s in tracer.spans], ["present"])


if __name__ == "__main__":
    unittest.main()
