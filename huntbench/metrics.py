"""Metric definitions and the arithmetic that turns hunt records into them.

A *hunt record* is the dict :mod:`huntbench.measure` emits for one
``hunt()`` call; a *pass* is the list of records of one pass over a
workload's scenarios.  End-to-end metrics are computed per untraced pass
and reported as the median over the run's passes; per-layer metrics come
from the traced passes.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Any, Dict, Iterable, Mapping, Sequence

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: (name, unit) of every end-to-end metric, reported by untraced runs.
END_TO_END = (
    ("time_to_verdict_s", "s"),
    ("time_to_verdict_geomean_ms", "ms"),
    ("replays_per_s", "1/s"),
    ("replays", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported by traced runs.  A
#: layer the workload does not exercise reports 0.
PER_LAYER = (
    ("proxy.record_s", "s"),
    ("proxy.events", "count"),
    ("faults.compile_s", "s"),
    ("faults.events", "count"),
    ("faults.quarantined", "count"),
    ("generate.busy_s", "s"),
    ("generate.candidates", "count"),
    ("generate.invalid", "count"),
    ("generate.us_per_candidate", "us"),
    ("prune.busy_s", "s"),
    ("prune.pruned", "count"),
    ("prune.replay_yield", "ratio"),
    ("semantic.busy_s", "s"),
    ("semantic.us_per_candidate", "us"),
    ("semantic.dpor_pruned", "count"),
    ("semantic.memo_pruned", "count"),
    ("digest.cache_hit_ratio", "ratio"),
    ("replay.busy_s", "s"),
    ("replay.us_p50", "us"),
    ("replay.us_p99", "us"),
    ("replay.samples", "count"),
    ("replay.restore_s", "s"),
    ("replay.cache_hit_ratio", "ratio"),
    ("replay.cache_retained_bytes", "bytes"),
    ("rdl.fast_copy_calls", "count"),
    ("rdl.materialize_s", "s"),
    ("net.sync_s", "s"),
    ("net.messages_sent", "count"),
    ("net.messages_suppressed", "count"),
    ("net.digest_s", "s"),
    ("assert.busy_s", "s"),
    ("assert.calls", "count"),
    ("procpool.startup_s", "s"),
    ("procpool.ipc_bytes_per_replay", "bytes"),
    ("procpool.useful_ratio", "ratio"),
    ("procpool.max_worker_share", "ratio"),
    ("procpool.parent_cpu_s", "s"),
    ("procpool.worker_cpu_s", "s"),
    ("procpool.cpu_utilization", "ratio"),
    ("coordinator.checkpoints", "count"),
    ("coordinator.lease_events", "count"),
    ("coordinator.steals", "count"),
    ("journal.bytes", "bytes"),
    ("coordinator.overhead", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("resources.charged_bytes", "bytes"),
    ("verdict_fail_ratio", "ratio"),
)

#: Additive per-hunt layer quantities (see ``layers.hunt_sums``).
_SUMMED = (
    "proxy.record_s", "proxy.events", "faults.compile_s", "faults.events",
    "faults.quarantined", "generate.busy_s", "generate.candidates",
    "generate.invalid", "prune.busy_s", "prune.pruned", "replayed",
    "semantic.busy_s", "semantic.dpor_pruned", "semantic.memo_pruned",
    "digest.hits", "digest.misses", "replay.busy_s", "replay.restore_s",
    "replay.cache_hits", "replay.cache_misses", "rdl.fast_copy_calls",
    "rdl.materialize_s", "net.sync_s", "net.messages_sent",
    "net.messages_suppressed", "net.digest_s", "assert.busy_s",
    "assert.calls", "procpool.startup_s",
)
#: Per-hunt layer quantities whose pass value is the largest hunt's.
_PEAK = ("replay.cache_retained_bytes", "resources.charged_bytes")


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_end_to_end(hunts: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics of one pass (all but ``peak_rss_mb``)."""
    time_to_verdict = sum(hunt["hunt_s"] for hunt in hunts)
    replays = sum(hunt["explored"] for hunt in hunts)
    return {
        "time_to_verdict_s": time_to_verdict,
        "time_to_verdict_geomean_ms": geomean([hunt["hunt_s"] for hunt in hunts]) * 1e3,
        "replays_per_s": _ratio(replays, time_to_verdict),
        "replays": replays,
        "setup_s": sum(hunt["setup_s"] for hunt in hunts),
    }


def pass_layers(
    hunts: Sequence[Mapping[str, Any]], uses_processes: bool, cpu_count: int
) -> Dict[str, float]:
    """The per-layer metrics of one layered pass (run-level ratios aside)."""
    sums = {key: sum(hunt["layers"][key] for hunt in hunts) for key in _SUMMED}
    reported = {name for name, _ in PER_LAYER}
    out: Dict[str, float] = {key: sums[key] for key in _SUMMED if key in reported}
    for key in _PEAK:
        out[key] = max(hunt["layers"][key] for hunt in hunts)
    candidates = sums["generate.candidates"]
    out["generate.us_per_candidate"] = _ratio(sums["generate.busy_s"] * 1e6, candidates)
    out["prune.replay_yield"] = _ratio(sums["replayed"], candidates)
    out["semantic.us_per_candidate"] = _ratio(sums["semantic.busy_s"] * 1e6, candidates)
    out["digest.cache_hit_ratio"] = _ratio(
        sums["digest.hits"], sums["digest.hits"] + sums["digest.misses"]
    )
    out["replay.cache_hit_ratio"] = _ratio(
        sums["replay.cache_hits"], sums["replay.cache_hits"] + sums["replay.cache_misses"]
    )
    samples = [us for hunt in hunts for us in hunt["layers"]["replay.us"]]
    out["replay.us_p50"] = percentile(samples, 0.50)
    out["replay.us_p99"] = percentile(samples, 0.99)
    out["replay.samples"] = len(samples)
    out.update(_procpool_metrics(hunts, uses_processes, cpu_count))
    out.update(_coordinator_metrics(hunts))
    return out


def _procpool_metrics(
    hunts: Sequence[Mapping[str, Any]], uses_processes: bool, cpu_count: int
) -> Dict[str, float]:
    names = [name for name, _ in PER_LAYER if name.startswith("procpool.")]
    out = {name: 0.0 for name in names if name != "procpool.startup_s"}
    if not uses_processes:
        return out
    per_slot: Dict[str, int] = {}
    ipc = 0
    for hunt in hunts:
        for slot, stats in (hunt["worker_stats"] or {}).items():
            per_slot[slot] = per_slot.get(slot, 0) + stats["materialized"]
            ipc += stats["ipc_bytes"]
    committed = sum(hunt["explored"] for hunt in hunts)
    materialized = sum(per_slot.values())
    parent_cpu = sum(hunt["parent_cpu_s"] for hunt in hunts)
    worker_cpu = sum(hunt["worker_cpu_s"] for hunt in hunts)
    wall = sum(hunt["hunt_s"] for hunt in hunts)
    out.update({
        "procpool.ipc_bytes_per_replay": _ratio(ipc, committed),
        "procpool.useful_ratio": _ratio(committed, materialized),
        "procpool.max_worker_share": _ratio(max(per_slot.values(), default=0), materialized),
        "procpool.parent_cpu_s": parent_cpu,
        "procpool.worker_cpu_s": worker_cpu,
        "procpool.cpu_utilization": _ratio(parent_cpu + worker_cpu, wall * cpu_count),
    })
    return out


def _coordinator_metrics(hunts: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    coordinated = [hunt["coordination"] for hunt in hunts if hunt["coordination"]]
    return {
        "coordinator.checkpoints": sum(c["checkpoints"] for c in coordinated),
        "coordinator.lease_events": sum(len(c["lease_events"]) for c in coordinated),
        "coordinator.steals": sum(c["steals"] for c in coordinated),
        "journal.bytes": sum(hunt["journal_bytes"] for hunt in hunts),
    }


def run_layers(
    layered_passes: Sequence[Sequence[Mapping[str, Any]]],
    *,
    uses_processes: bool,
    cpu_count: int,
    untraced_ttv: Sequence[float],
    traced_ttv: Sequence[float],
    proc2_ttv: Sequence[float],
    verdict_fail_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric of a traced run: medians over layered passes,
    plus the run-level ratios."""
    per_pass = [pass_layers(hunts, uses_processes, cpu_count) for hunts in layered_passes]
    out = {name: median(values[name] for values in per_pass) for name in per_pass[0]}
    out["obs.trace_overhead"] = _ratio(median(traced_ttv), median(untraced_ttv))
    out["coordinator.overhead"] = (
        _ratio(median(untraced_ttv), median(proc2_ttv)) if proc2_ttv else 0.0
    )
    out["verdict_fail_ratio"] = verdict_fail_ratio
    return out


def metric_block(
    values: Mapping[str, float], spec: Sequence[tuple]
) -> Dict[str, Dict[str, Any]]:
    """``{"name": {"value": v, "unit": u}}`` for every metric in ``spec``."""
    missing = [name for name, _ in spec if name not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}

