"""Tests for the benchmark's own code: metric names, arithmetic, seeding,
the verdict gate and the class-level layer probe.

Run with ``python3 -m pytest huntbench/tests -q`` from the repository root.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from huntbench import gate, layers, metrics
from huntbench.workloads import WORKLOADS, pass_order

ROOT = Path(__file__).resolve().parents[2]


def _hunt(name, **overrides):
    record = {
        "scenario": name,
        "setup_s": 0.001,
        "hunt_s": 0.5,
        "found": False,
        "explored": 100,
        "crashed": False,
        "quarantined": 0,
        "violating": None,
        "verdict_digest": None,
        "worker_stats": None,
        "coordination": None,
        "journal_bytes": 0,
        "parent_cpu_s": 0.5,
        "worker_cpu_s": 0.0,
        "layers": None,
    }
    record.update(overrides)
    return record


# ------------------------------------------------------------- metric names

def test_metric_names_match_the_allowed_alphabet():
    names = [name for name, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.METRIC_NAME.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------- arithmetic

def test_geomean():
    assert metrics.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert metrics.geomean([4.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        metrics.geomean([])
    with pytest.raises(ValueError):
        metrics.geomean([1.0, 0.0])


def test_pass_end_to_end():
    hunts = [
        _hunt("a", hunt_s=0.001, explored=10, setup_s=0.002),
        _hunt("b", hunt_s=1.0, explored=990, setup_s=0.003),
    ]
    out = metrics.pass_end_to_end(hunts)
    assert out["time_to_verdict_s"] == pytest.approx(1.001)
    assert out["time_to_verdict_geomean_ms"] == pytest.approx(math.sqrt(0.001) * 1e3)
    assert out["replays"] == 1000
    assert out["replays_per_s"] == pytest.approx(1000 / 1.001)
    assert out["setup_s"] == pytest.approx(0.005)


def test_percentile_interpolates_like_statistics_quantiles():
    assert metrics.percentile([1, 2, 3, 4], 0.5) == pytest.approx(2.5)
    assert metrics.percentile([5], 0.99) == 5
    assert metrics.percentile([], 0.5) == 0.0


def _span(span_id, parent_id, name, duration):
    return SimpleNamespace(span_id=span_id, parent_id=parent_id, name=name, duration_s=duration)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(3, 2, "net.sync", 0.5),
        _span(4, 2, "assert", 1.0),
        _span(2, 1, "replay", 4.0),
        _span(5, 1, "generate", 2.0),
        _span(6, 5, "prune:event_independence", 0.75),
        _span(7, 5, "prune:dpor", 0.25),
        _span(1, 0, "explore", 10.0),
    ]
    own = layers.self_times(spans)
    assert own[2] == pytest.approx(2.5)
    assert own[5] == pytest.approx(1.0)
    assert own[1] == pytest.approx(4.0)
    busy = layers.busy_by_layer(spans)
    assert busy == pytest.approx(
        {"replay": 2.5, "assert": 1.0, "generate": 1.0, "prune": 0.75, "semantic": 0.25}
    )
    assert layers.inclusive_by_name(spans)["net.sync"] == (1, 0.5)


def test_inclusive_time_counts_nested_calls_of_one_name_once():
    spans = [
        _span(3, 2, "net.digest", 0.25),
        _span(2, 1, "rdl.materialize", 0.5),
        _span(1, 0, "net.digest", 1.0),
        _span(4, 0, "net.digest", 2.0),
    ]
    assert layers.inclusive_by_name(spans)["net.digest"] == (3, 3.0)


# ------------------------------------------------------------------- seeding

def test_pass_order_is_a_pure_function_of_seed_and_pass():
    names = WORKLOADS["hunt"].names
    first = pass_order(names, 7, 0)
    assert first == pass_order(names, 7, 0)
    assert sorted(first) == sorted(names)
    orders = {tuple(pass_order(names, seed, 0)) for seed in range(10)}
    assert len(orders) > 1


# ---------------------------------------------------------------------- gate

HUNT = WORKLOADS["hunt"]
PROC = WORKLOADS["sweep-proc2"]
ACCEL = WORKLOADS["sweep-accel"]


def _pass(kind, index, hunts):
    return {"kind": kind, "index": index, "order": [h["scenario"] for h in hunts], "hunts": hunts}


def test_gate_accepts_a_reproduced_bug():
    reference = _hunt("OrbitDB-2", found=True, explored=4, violating="e2|e1")
    hunt = _hunt("OrbitDB-2", found=True, explored=4, violating="e2|e1")
    assert gate.check_hunt(HUNT, hunt, reference) is None


def test_gate_fails_a_defective_scenario_reported_not_found():
    reference = _hunt("OrbitDB-2", found=True, explored=4, violating="e2|e1")
    missed = _hunt("OrbitDB-2", found=False, explored=10_000)
    assert "not reproduced" in gate.check_hunt(HUNT, missed, reference)
    attempted, failures = gate.run_gate(
        HUNT, [_pass("untraced", 0, [missed])], {"OrbitDB-2": reference}
    )
    assert (attempted, len(failures)) == (1, 1)


def test_gate_fails_a_bug_found_after_more_replays_than_the_reference():
    reference = _hunt("OrbitDB-2", found=True, explored=4, violating="e2|e1")
    late = _hunt("OrbitDB-2", found=True, explored=5, violating="e2|e1")
    assert gate.check_hunt(HUNT, late, reference) is not None


def test_gate_fails_a_proc_verdict_map_that_differs():
    serial = gate.verdict_digest([("e1|e2", "ok"), ("e2|e1", "ok")])
    reordered = gate.verdict_digest([("e2|e1", "ok"), ("e1|e2", "ok")])
    reference = _hunt("Roshi-2", explored=2, verdict_digest=serial)
    assert gate.check_hunt(PROC, _hunt("Roshi-2", explored=2, verdict_digest=serial), reference) is None
    problem = gate.check_hunt(PROC, _hunt("Roshi-2", explored=2, verdict_digest=reordered), reference)
    assert "verdict map" in problem


def test_gate_fails_a_fixed_sweep_with_a_violation_or_quarantine():
    reference = _hunt("Roshi-2", explored=100)
    assert gate.check_hunt(ACCEL, _hunt("Roshi-2", found=True), reference) is not None
    assert gate.check_hunt(ACCEL, _hunt("Roshi-2", quarantined=1), reference) is not None
    assert gate.check_hunt(ACCEL, _hunt("Roshi-2", crashed=True), reference) is not None


def test_gate_bounds_accelerated_replays_by_the_reference():
    reference = _hunt("Roshi-2", explored=100)
    assert gate.check_hunt(ACCEL, _hunt("Roshi-2", explored=60), reference) is None
    assert gate.check_hunt(ACCEL, _hunt("Roshi-2", explored=101), reference) is not None


def test_gate_fails_a_traced_pass_that_commits_something_else():
    reference = _hunt("Roshi-2", explored=100)
    passes = [
        _pass("untraced", 0, [_hunt("Roshi-2", explored=60)]),
        _pass("traced", 0, [_hunt("Roshi-2", explored=61)]),
    ]
    attempted, failures = gate.run_gate(ACCEL, passes, {"Roshi-2": reference})
    assert attempted == 2
    assert len(failures) == 1 and failures[0].startswith("traced pass 0")


# ------------------------------------------------------------ layer probe

def test_probe_is_class_level_and_keeps_the_hunt_path():
    from repro.bench.harness import hunt, record_scenario
    from repro.bugs.registry import scenario
    from repro.net.cluster import Cluster
    from repro.obs import MetricsRegistry, Tracer

    def run(observe):
        kwargs = {}
        if observe is not None:
            kwargs = {"tracer": observe, "metrics": MetricsRegistry()}
        recorded = record_scenario(scenario("OrbitDB-2"))
        result = hunt(recorded, "erpi", **kwargs)
        return result.found, result.explored, result.violating.interleaving

    plain = run(None)
    send_sync = Cluster.__dict__["send_sync"]
    probe = layers.LayerProbe()
    probe.tracer = Tracer()
    with probe.installed():
        assert Cluster.__dict__["send_sync"] is not send_sync
        traced = run(probe.tracer)
    assert Cluster.__dict__["send_sync"] is send_sync
    assert traced == plain
    names = {span.name for span in probe.tracer.spans}
    assert {"proxy.record", "net.sync", "rdl.materialize", "assert", "replay"} <= names
    assert probe.fast_copy_calls > 0

