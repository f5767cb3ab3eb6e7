"""Checks of the benchmark itself.

    python3 -m pytest perfbench -q

The traced and untraced passes here run on small groups so that the file
finishes in seconds; they reach every wrapped function all the same.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import ops
import tracing
from p2qbrace import groups, holomorph

SMALL = [
    ops.Op("small-verify-3-2-pq", "verify", 3, 2, pq=True),
    ops.Op("small-structured-type4-3-2", "structured", 3, 2, family="P2Q-Type4"),
    ops.Op("small-oracle-pqmeta-7-3", "oracle", 7, 3, family="PQ-Metacyclic"),
]
DECLARED = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in DECLARED["per_layer"] if m["unit"] in ("count", "bytes")]


def traced_pass(todo):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcomes = [ops.run_op(op, tracer) for op in todo]
    finally:
        tracer.restore()
    return tracer.metrics(outcomes), outcomes


def test_tracing_changes_no_output_and_restores_every_wrapper():
    originals = {(m, a): getattr(m, a) for m, a in tracing.WRAPPED}
    plain = [ops.run_op(op) for op in SMALL]
    metrics, traced = traced_pass(SMALL)
    assert all(getattr(m, a) is originals[(m, a)] for m, a in tracing.WRAPPED)
    assert [(o.digest, o.checks) for o in traced] == [(o.digest, o.checks) for o in plain]
    for name in ("brace.records", "holomorph.closure_attempts", "enumerate.orbits",
                 "brace.lifts", "brace.conjugations", "cli.checks_passed"):
        assert metrics[name] > 0, name


def test_traced_pass_reports_every_declared_layer_metric():
    metrics, _ = traced_pass(SMALL[:1])
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert metrics["trace.overhead_s"] > 0


def test_count_metrics_repeat_exactly():
    first, _ = traced_pass(SMALL)
    second, _ = traced_pass(SMALL)
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_operations_start_cold():
    spec = groups.make_group("P2Q-Type4", 3, 2)
    holomorph.holo(spec).fixed_point_free_mask
    ops.clear_caches()
    assert all(fn.cache_info().currsize == 0 for fn in ops.CACHED)


def test_seed_only_permutes_the_operations():
    for name, todo in ops.WORKLOADS.items():
        assert ops.operations(name, 7) == ops.operations(name, 7)
        for seed in range(5):
            assert sorted(ops.operations(name, seed), key=lambda op: op.op_id) == \
                sorted(todo, key=lambda op: op.op_id)


def test_every_operation_has_pinned_output():
    expected = ops.load_expected()
    assert set(expected) == {op.op_id for todo in ops.WORKLOADS.values() for op in todo}
    assert {d["workload"] for d in expected.values()} == set(ops.WORKLOADS)
    assert [w["name"] for w in DECLARED["workloads"]] == list(ops.WORKLOADS)


def test_output_checks_catch_changed_bytes_and_gated_work():
    expected = ops.load_expected()
    digest = expected["oracle-type4-3-2"]["sha256"]
    assert ops.check_outcome(ops.Outcome("oracle-type4-3-2", 1.0, 56, digest=digest), expected) == []
    assert ops.check_outcome(ops.Outcome("oracle-type4-3-2", 1.0, 56, digest="0" * 64), expected)

    pinned = expected["verify-3-7"]["checks"]
    assert pinned["type1/gfe-search-agrees"] == "pass"
    assert pinned["type1/closure-oracle-agrees"] == "skipped"

    def verify(changes, ok=True):
        checks = [[name, changes.get(name, status)] for name, status in pinned.items()]
        return ops.check_outcome(ops.Outcome("verify-3-7", 1.0, 0, checks=checks, ok=ok),
                                 expected)

    assert verify({}) == []
    assert verify({"type1/closure-oracle-agrees": "pass"}) == []
    assert verify({"type1/gfe-search-agrees": "skipped"})
    assert verify({"type1/closure-oracle-agrees": "fail"}, ok=False)
    assert verify({}, ok=False)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ops.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ops.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-closure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
