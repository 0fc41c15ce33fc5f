"""Measurement process: hunts one workload and prints its hunt records.

``run.py`` starts this module twice per run, each time in a fresh process
from the checkout root with ``src`` on ``PYTHONPATH``:

* ``--reference`` hunts the workload's scenarios once, serially with
  default flags, and records each hunt's full verdict map (the gate's
  reference).  It runs in its own process so that it adds nothing to the
  measured process's peak RSS.
* Otherwise it runs an untimed warm-up pass, then measured passes until
  ``--seconds`` have elapsed, and prints every pass's hunt records plus
  the process's peak RSS as one JSON line.

With ``--trace 1`` each cycle runs three passes over the same scenario
order: untraced, traced (the program's Tracer and MetricsRegistry) and
layered (traced, plus the class-level wrappers of ``huntbench.layers``).
Traced ÷ untraced is the tracing overhead; the layered pass gives the
per-layer numbers.  On ``sweep-journal`` a fourth pass hunts without the
journal, which gives the coordinator's overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

from huntbench import layers
from huntbench.gate import verdict_digest
from huntbench.workloads import WORKLOADS, Workload, faults_for, pass_order


#: Recordings per hunt; ``setup_s`` takes their median.
SETUP_REPEATS = 3


class _Observed:
    """The observability objects attached to one pass's hunts."""

    def __init__(self, probe: Optional[layers.LayerProbe]) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.probe = probe
        if probe is not None:
            probe.tracer = self.tracer


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def hunt_one(
    workload: Workload,
    name: str,
    cap: int,
    seed: int,
    tmp_dir: str,
    observed: Optional[_Observed] = None,
    journal: bool = True,
) -> Dict[str, Any]:
    """Record and hunt one scenario; return its hunt record."""
    from repro.bench.harness import hunt, record_scenario
    from repro.bugs.registry import scenario
    from repro.obs import MetricsRegistry

    kwargs: Dict[str, Any] = dict(workload.flags)
    kwargs["faults"] = faults_for(name)
    journal_path = None
    if workload.journal and journal:
        journal_path = os.path.join(tmp_dir, f"{name}.jsonl")
        kwargs["journal"] = journal_path
    metrics = None
    if observed is not None:
        metrics = MetricsRegistry()
        kwargs["tracer"] = observed.tracer
        kwargs["metrics"] = metrics
    bug = scenario(name)

    # Set-up is a few milliseconds per scenario, so one recording is mostly
    # timer noise: record SETUP_REPEATS times, report the median, and hunt
    # (and trace) the last recording.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        first_span = len(observed.tracer) if observed is not None else 0
        fast_copies = observed.probe.fast_copy_calls if observed and observed.probe else 0
        started = time.perf_counter()
        recorded = record_scenario(bug, fixed=workload.fixed)
        setup_times.append(time.perf_counter() - started)
    setup_s = statistics.median(setup_times)
    parent_cpu = _cpu(resource.RUSAGE_SELF)
    worker_cpu = _cpu(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    result = hunt(recorded, "erpi", cap=cap, seed=seed, **kwargs)
    hunt_s = time.perf_counter() - started
    parent_cpu = _cpu(resource.RUSAGE_SELF) - parent_cpu
    worker_cpu = _cpu(resource.RUSAGE_CHILDREN) - worker_cpu

    journal_bytes = 0
    if journal_path is not None:
        journal_bytes = os.path.getsize(journal_path)
        os.remove(journal_path)
    coordination = None
    if result.coordination is not None:
        coordination = {
            key: result.coordination[key]
            for key in ("checkpoints", "lease_events", "steals")
        }
    record: Dict[str, Any] = {
        "scenario": name,
        "setup_s": setup_s,
        "hunt_s": hunt_s,
        "found": result.found,
        "explored": result.explored,
        "crashed": result.crashed,
        "quarantined": len(result.quarantined),
        "violating": _schedule(result.violating),
        "verdict_digest": (
            verdict_digest(result.verdicts.items()) if result.verdicts is not None else None
        ),
        "worker_stats": result.worker_stats,
        "coordination": coordination,
        "journal_bytes": journal_bytes,
        "parent_cpu_s": parent_cpu,
        "worker_cpu_s": worker_cpu,
        "layers": None,
    }
    if observed is not None:
        probe = observed.probe
        record["layers"] = layers.hunt_sums(
            observed.tracer.spans[first_span:],
            metrics,
            result,
            fast_copy_calls=(probe.fast_copy_calls - fast_copies) if probe else 0,
        )
    return record


def _schedule(outcome: Any) -> Optional[str]:
    if outcome is None:
        return None
    return "|".join(getattr(event, "event_id", event) for event in outcome.interleaving)


def run_pass(
    workload: Workload,
    order: List[str],
    seed: int,
    tmp_dir: str,
    observed: Optional[_Observed] = None,
    journal: bool = True,
) -> List[Dict[str, Any]]:
    gc.collect()
    return [
        hunt_one(
            workload, name, workload.cap(name), seed, tmp_dir,
            observed=observed, journal=journal,
        )
        for name in order
    ]


def reference(workload: Workload, seed: int, tmp_dir: str) -> Dict[str, Any]:
    """Serial default-flag hunts of the workload's scenarios, verdict maps
    recorded through a class-level wrapper on ``ReplayEngine.replay``."""
    from repro.core.replay import ReplayEngine
    from repro.core.errors import ResourceExhausted

    serial = Workload(workload.name, workload.scenarios, fixed=workload.fixed)
    verdicts: List[tuple] = []
    original = ReplayEngine.replay

    def replay(engine: Any, interleaving: Any, assertions: Any = ()) -> Any:
        schedule = "|".join(event.event_id for event in interleaving)
        try:
            outcome = original(engine, interleaving, assertions)
        except ResourceExhausted:
            raise
        except Exception:
            verdicts.append((schedule, "quarantine"))
            raise
        verdicts.append((schedule, "violation" if outcome.violated else "ok"))
        return outcome

    out = {}
    ReplayEngine.replay = replay
    try:
        for name in workload.names:
            verdicts.clear()
            record = hunt_one(serial, name, workload.cap(name), seed, tmp_dir)
            record["verdict_digest"] = verdict_digest(verdicts)
            out[name] = record
    finally:
        ReplayEngine.replay = original
    return out


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, tmp_dir: str,
    trace_path: Optional[str],
) -> Dict[str, Any]:
    # Untimed warm-up: lazy imports and first-touch costs land in no
    # metric.  A short pass is not enough: the first full-cap pass of a
    # process workload runs about a third slower than later ones.
    run_pass(workload, list(workload.names), seed, tmp_dir)
    kinds = ["untraced"]
    if trace:
        kinds += ["traced", "layered"]
        if workload.journal:
            kinds.append("proc2")
    probe = layers.LayerProbe()
    passes: List[Dict[str, Any]] = []
    last_layered: Optional[_Observed] = None
    started = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - started < seconds:
        order = pass_order(workload.names, seed, cycle)
        for kind in kinds:
            if kind == "layered":
                observed = _Observed(probe)
                with probe.installed():
                    hunts = run_pass(workload, order, seed, tmp_dir, observed)
                last_layered = observed
            else:
                observed = _Observed(None) if kind == "traced" else None
                hunts = run_pass(
                    workload, order, seed, tmp_dir, observed, journal=kind != "proc2"
                )
            passes.append({"kind": kind, "index": cycle, "order": order, "hunts": hunts})
        cycle += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.uses_processes:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if last_layered is not None and trace_path is not None:
        last_layered.tracer.write_jsonl(trace_path)
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024, "cpu_count": os.cpu_count() or 1}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--tmp-dir", required=True)
    parser.add_argument("--trace-path")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(args.tmp_dir, exist_ok=True)
    try:
        if args.reference:
            payload = reference(workload, args.seed, args.tmp_dir)
        else:
            payload = measure(
                workload, args.seed, args.seconds, bool(args.trace), args.tmp_dir,
                args.trace_path,
            )
    finally:
        shutil.rmtree(args.tmp_dir, ignore_errors=True)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
