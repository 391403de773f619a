"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import time
import urllib.parse
from collections import Counter
from pathlib import Path

from apibind.cli import main
from apibind.curl import HttpMethod, parse_curl, tokenize_shell
from apibind.ingest import load_corpus, record_id_census, write_stage
from apibind.issues import CATALOG, Severity, Stage, make_issue, severity_of
from apibind.parse import parse_record
from apibind.pathtemplate import parse_path_template
from apibind.records import ApiCallRecord, RecordId
from apibind.typeinfer import BOTTOM, T_ANY, finalize, fold_examples, inhabits, unify
from apibind.validate import cross_validate, dashboard, route

from .echoserver import EchoServer
from .gen import gen_corpus, gen_json_doc, gen_record, gen_template
from .universe import enumerate_universe, lattice_le

DATA = Path(__file__).parent / "data"


def verdict(number: int, name: str, ok: bool = True) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_lattice_laws():
    universe = enumerate_universe()
    started = time.time()

    for a in universe:
        assert unify(a, a) == a, ("idempotence", a)
        assert unify(BOTTOM, a) == a and unify(a, BOTTOM) == a, ("bottom identity", a)
        assert unify(T_ANY, a) == T_ANY and unify(a, T_ANY) == T_ANY, ("any absorption", a)

    for a, b in itertools.product(universe, repeat=2):
        assert unify(a, b) == unify(b, a), ("commutativity", a, b)

    for a, b, c in itertools.product(universe, repeat=3):
        assert unify(a, unify(b, c)) == unify(unify(a, b), c), ("associativity", a, b, c)

    elapsed = time.time() - started
    assert elapsed < 60.0, f"exhaustive check took {elapsed:.1f}s"
    verdict(1, f"lattice laws over {len(universe)} types in {elapsed:.1f}s")


def test_criterion_2_soundness_and_minimality():
    universe = enumerate_universe()
    rng = random.Random(20_24)
    trials = 1000
    for _ in range(trials):
        docs = [gen_json_doc(rng, 2) for _ in range(rng.randint(1, 4))]
        inferred = finalize(fold_examples(docs))[0]
        for doc in docs:
            assert inhabits(doc, inferred), ("soundness", docs, inferred)
        for candidate in universe:
            if candidate != inferred and lattice_le(candidate, inferred):
                assert not all(inhabits(doc, candidate) for doc in docs), (
                    "minimality", docs, inferred, candidate,
                )
    verdict(2, f"inference soundness+minimality on {trials} document sets")


def test_criterion_3_record_conservation():
    rng = random.Random(33)
    corpora = 500
    for _ in range(corpora):
        records = gen_corpus(rng, rng.randint(0, 15))
        census = record_id_census(records)

        parsed = [parse_record(r) for r in records]
        assert record_id_census(parsed) == census
        for before, after in zip(records, parsed):
            assert len(after.issues) >= len(before.issues)

        validated = [cross_validate(r) for r in parsed]
        assert record_id_census(validated) == census
        for before, after in zip(parsed, validated):
            assert len(after.issues) >= len(before.issues)

        valid, rejected = route(validated)
        assert record_id_census(valid) + record_id_census(rejected) == census
    verdict(3, f"record conservation through parse/validate/route on {corpora} corpora")


# headers curl adds on its own; only compared when we did not parse one
_CURL_IMPLICIT = {
    "host", "user-agent", "accept", "content-length", "content-type",
    "expect", "connection", "accept-encoding",
}
# headers the parser reads the option of (-b, -u) but does not model
_CURL_UNMODELLED = {"cookie", "authorization"}


def _decode_query(raw: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in raw.split("&"):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        pairs.append((urllib.parse.unquote_plus(key), urllib.parse.unquote_plus(value)))
    return tuple(pairs)


def _check_line(line: str, server: EchoServer) -> list[str]:
    request, issues = parse_curl(line)
    assert request is not None, (line, issues)
    tokens = tokenize_shell(line)
    proc = subprocess.run(
        ["curl", *tokens[1:]], capture_output=True, timeout=30, check=False
    )
    assert proc.returncode == 0, (line, proc.stderr)
    observed = server.take()

    problems = []
    if observed.method != request.method.value:
        problems.append(f"method: parsed {request.method.value}, server saw {observed.method}")
    if observed.path != urllib.parse.urlsplit(request.url).path:
        problems.append(f"path: parsed {request.url}, server saw {observed.path}")
    if _decode_query(observed.query) != request.query:
        problems.append(f"query: parsed {request.query}, server saw {observed.query!r}")

    expected_body = request.body[1].encode("utf-8") if request.body else b""
    if observed.body != expected_body:
        problems.append(f"body: parsed {expected_body!r}, server saw {observed.body!r}")

    seen = {name.lower(): value for name, value in observed.headers}
    parsed_names = set()
    for name, value in request.headers:
        parsed_names.add(name.lower())
        if seen.get(name.lower()) != value:
            problems.append(f"header {name}: parsed {value!r}, server saw {seen.get(name.lower())!r}")
    for name, _ in observed.headers:
        if name.lower() not in parsed_names | _CURL_IMPLICIT | _CURL_UNMODELLED:
            problems.append(f"server saw unexplained header {name}")
    return problems


def test_criterion_4_curl_echo_oracle():
    lines = [
        line.strip()
        for line in (DATA / "curl_lines.txt").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    assert len(lines) >= 25
    failures = []
    with EchoServer() as server:
        for line_template in lines:
            line = line_template.replace("PORT", str(server.port))
            problems = _check_line(line, server)
            if problems:
                failures.append((line_template, problems))
    assert not failures, failures
    verdict(4, f"curl echo oracle agreed on {len(lines)}/{len(lines)} fixture lines")


def test_criterion_4_lines_curl_does_not_send_are_unsupported():
    """A line curl refuses (``-I`` with a body), or sends with a method token
    the server does not know (``-X post``: method names are case-sensitive),
    is recorded as no request; the parser tags it ``E_CURL_UNSUPPORTED`` and
    claims none."""
    lines = [
        "curl -I -d a=1 http://127.0.0.1:PORT/refused/head-data",
        "curl --head --json '[1]' http://127.0.0.1:PORT/refused/head-json",
        "curl -X post http://127.0.0.1:PORT/refused/lower-method",
    ]
    with EchoServer() as server:
        for line_template in lines:
            line = line_template.replace("PORT", str(server.port))
            request, issues = parse_curl(line)
            assert request is None, line
            assert "E_CURL_UNSUPPORTED" in [issue.code for issue in issues], line
            argv = ["curl", "-s", "-o", os.devnull, *tokenize_shell(line)[1:]]
            subprocess.run(argv, capture_output=True, timeout=30, check=False)
            assert server.observations == [], line


def test_criterion_5_round_trips(tmp_path):
    rng = random.Random(55)
    template_trials = 1000
    for _ in range(template_trials):
        template = gen_template(rng)
        parsed, issues = parse_path_template(template.text)
        assert not [i for i in issues if i.severity is Severity.ERROR]
        assert parsed == template

    record_trials = 200
    records = [gen_record(rng, i) for i in range(record_trials)]
    stage = tmp_path / "stage.csv"
    write_stage(records, stage)
    loaded = load_corpus(stage)
    assert loaded == records
    verdict(5, f"round-trips: {template_trials} templates, {record_trials} records")


def test_criterion_6_dashboard_homomorphism(analyzed12):
    rng = random.Random(66)
    splits = 200
    for _ in range(splits):
        records = [cross_validate(parse_record(r)) for r in gen_corpus(rng, rng.randint(0, 18))]
        indices = [i for i in range(len(records)) if rng.random() < 0.5]
        left = [records[i] for i in indices]
        right = [records[i] for i in range(len(records)) if i not in indices]
        whole, parts = dashboard(records), (dashboard(left), dashboard(right))
        for key in ("total_records", "valid_records"):
            assert whole[key] == sum(part[key] for part in parts)
        code_counts = [Counter({e["code"]: e["count"] for e in d["issue_frequency"]}) for d in parts]
        assert code_counts[0] + code_counts[1] == {
            e["code"]: e["count"] for e in whole["issue_frequency"]
        }
        for stage, count in whole["per_stage_counts"].items():
            assert count == sum(part["per_stage_counts"][stage] for part in parts)

    golden = dashboard(analyzed12)
    assert "percent_valid" in golden
    assert abs(golden["percent_valid"] - 83.3) <= 0.1
    verdict(6, f"dashboard homomorphism on {splits} splits; golden corpus at "
               f"{golden['percent_valid']:.1f}%")


def test_criterion_7_golden_generation(tmp_path, corpus12_path):
    golden_dir = DATA / "golden_package"
    out = tmp_path / "out"
    code = main(["generate", "--input", str(corpus12_path), "--out-dir", str(out)])
    assert code == 0
    package = out / "package"

    generated = {p.name: p.read_bytes() for p in package.iterdir()}
    golden = {p.name: p.read_bytes() for p in golden_dir.iterdir()}
    assert sorted(generated) == sorted(golden)
    for name in golden:
        assert generated[name] == golden[name], f"{name} differs from golden"

    modules = "".join(
        (package / name).read_text(encoding="utf-8")
        for name in generated
        if name != "manifest.txt"
    )
    valid, _ = route(
        [cross_validate(parse_record(r)) for r in load_corpus(corpus12_path)]
    )
    assert modules.count("\nfunction ") + modules.count("function ") >= len(valid)
    function_lines = [l for l in modules.splitlines() if l.startswith("function ")]
    assert len(function_lines) == len(valid) == 10
    for record in valid:
        assert record.source_url in modules, f"{record.id} doc link missing"
    verdict(7, "golden generation byte-identical; one stub per valid record with doc link")


def _single_issue_record(code: str) -> ApiCallRecord:
    return ApiCallRecord(
        id=RecordId.single(f"sweep-{code}"),
        source_url="https://d/x",
        http_method=HttpMethod.GET,
        raw_path="/x",
    ).with_issues(make_issue(code, Stage.VALIDATE, f"synthetic {code}"))


def test_criterion_8_gate_semantics():
    for code in sorted(CATALOG):
        record = _single_issue_record(code)
        valid, rejected = route([record])
        if severity_of(code) is Severity.ERROR:
            assert valid == [] and rejected == [record], code
        else:
            assert valid == [record] and rejected == [], code
        strict_valid, strict_rejected = route([record], strict=True)
        assert strict_valid == [] and strict_rejected == [record], code

    clean = ApiCallRecord(
        id=RecordId.single("sweep-clean"),
        source_url="https://d/x",
        http_method=HttpMethod.GET,
        raw_path="/x",
    )
    assert route([clean]) == ([clean], [])
    assert route([clean], strict=True) == ([clean], [])
    verdict(8, f"gate semantics verified across all {len(CATALOG)} catalog codes")
