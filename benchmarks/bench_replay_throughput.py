"""Replay-throughput benchmark for incremental prefix-reuse replay.

Measures interleavings/second on the paper's motivating town-reports
workload (section 2.3): the ungrouped 7-unit event set enumerated in SJT
minimal-change order, capped at 1500 candidates.  The arms:

* ``seed``      — the baseline engine semantics the repo seeded with:
                  ``legacy_deepcopy()`` restores ``copy.deepcopy``-based
                  checkpoint/restore/sync payloads, no prefix cache;
* ``fast``      — current serial engine, structural fast-copy, no cache;
* ``cache``     — current serial engine with the prefix snapshot cache;
* ``memo``      — the cache arm plus the semantic pruners
                  (:class:`~repro.core.pruning.semantic.StateMemoPruner` and
                  :class:`~repro.core.pruning.semantic.DPORPruner`): each
                  candidate is first checked against the DPOR trace normal
                  form and the state-digest memo, and only survivors replay.
                  The arm verifies per-candidate verdicts against an untimed
                  cache-only reference pass — pruning must replay strictly
                  fewer interleavings while reporting identical verdicts;
* ``traced``    — the cache arm with a live :class:`~repro.obs.tracer.Tracer`
                  and :class:`~repro.obs.metrics.MetricsRegistry` attached to
                  the engine (reports the observability overhead over plain
                  caching — the acceptance criterion is < 10%);
* ``sanitized`` — the cache arm with the differential soundness sanitizer
                  shadow-replaying 25% of cached results from scratch
                  (reports the sanitizer's overhead over plain caching);
* ``proc1/2/4`` — the shared-nothing multiprocess backend
                  (:class:`~repro.core.procpool.ProcessParallelExplorer`)
                  as a 1/2/4-worker scaling sweep with prefix-shard
                  scheduling and per-worker prefix caches.  Workers run a
                  real ER-pi explorer so the **sharded enumeration** fast
                  path engages (each worker flattens only its own shards)
                  and verdicts ship over **columnar IPC**; the arms report
                  ``ipc_bytes_per_replay``, per-worker ``enumerated_per_worker``
                  materialisation counts and the ``steals`` count.  Pool
                  bootstrap runs before the timer (``prestart``), so the
                  arms measure steady-state replay throughput, not process
                  spawn.

Every parallel arm reports ``speedup_vs_seed`` and ``efficiency``
(speedup divided by workers).  Arms are interleaved across repetitions and
the best rep per arm is kept, which suppresses machine noise.  Results
land in ``BENCH_replay.json`` at the repo root (``BENCH_replay_smoke.json``
for ``--smoke`` runs, so a CI sanity pass never clobbers the recorded
full-run numbers).  In full mode the run
asserts the acceptance criteria: cached replay sustains >= 3x the seed
arm's interleavings/sec, and — when the machine actually has >= 4 usable
cores — ``proc4`` sustains >= 2.5x the serial cache arm.  On smaller boxes
the multiprocess sweep still runs (correctness and overhead are visible)
but the scaling assertion is skipped: there is nothing to scale onto, and
the report records ``cpu_count`` so the reader can tell.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay_throughput.py [--smoke]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.core.explorers import Explorer
from repro.core.interleavings import Interleaving, group_events, interleaving_stream
from repro.core.procpool import CallableWorkerTask, ProcessParallelExplorer
from repro.core.pruning import DPORPruner, StateMemoPruner
from repro.core.assertions import assert_read_equals
from repro.core.replay import ReplayEngine
from repro.core.sanitizer import Sanitizer
from repro.fastcopy import legacy_deepcopy
from repro.misconceptions.seeds import CRDTsNoCoordination
from repro.obs import MetricsRegistry, Tracer
from repro.proxy.recorder import EventRecorder

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_replay.json"
OUTPUT_SMOKE = REPO_ROOT / "BENCH_replay_smoke.json"

#: The recorded-order read of the town-reports workload: B removed
#: "trash-bin" and synced back to A before A's final read.
MEMO_ASSERTION_VALUE = frozenset({"pothole"})


class _FixedStreamExplorer(Explorer):
    """Feed a pre-enumerated candidate list (the proc arms' parent side)."""

    mode = "bench-stream"

    def __init__(self, events, candidates: List[Interleaving]) -> None:
        super().__init__(events)
        self._candidates = candidates

    def candidates(self) -> Iterator[Interleaving]:
        return iter(self._candidates)


def build_workload(limit: int):
    """Record the motivating workload; return (seed, events, candidates)."""
    seed = CRDTsNoCoordination()
    cluster = seed.build_cluster()
    engine = ReplayEngine(cluster)
    engine.checkpoint()
    recorder = EventRecorder(cluster)
    recorder.start()
    seed.workload(cluster)
    events = tuple(recorder.stop())
    units = group_events(events).units
    candidates = list(interleaving_stream(units, "sjt", limit=limit))
    return seed, engine, events, candidates


def proc_worker_stack(limit: int):
    """Rebuild the bench stack inside a process worker (CallableWorkerTask).

    Module-level so the task pickles as a name under both fork and spawn.
    The worker gets a *real* ER-pi explorer (SJT order, no pruners) rather
    than a pre-enumerated list: its candidate stream is bit-for-bit the
    parent's ``interleaving_stream(units, "sjt")``, and with no pruners the
    sharded-enumeration fast path engages — the worker derives shard keys
    from leading units and never flattens foreign candidates.
    """
    from repro.core.explorers import ERPiExplorer

    _, engine, events, _candidates = build_workload(limit)
    explorer = ERPiExplorer(events, order="sjt")
    return explorer, engine, (), events


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@contextmanager
def gc_quiesced():
    """Collect pending garbage, then keep the collector out of the timing.

    The cache arm retains thousands of small trie entries; without this,
    collector pauses from one arm land in another arm's measurement.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def timed_serial(engine: ReplayEngine, candidates: List[Interleaving]) -> float:
    with gc_quiesced():
        started = time.perf_counter()
        for candidate in candidates:
            engine.replay(candidate)
        return time.perf_counter() - started


def run_arm(name: str, limit: int) -> Tuple[float, dict]:
    """One repetition of one arm; returns (elapsed_s, extra-info)."""
    seed, engine, events, candidates = build_workload(limit)
    extra: dict = {}
    if name == "seed":
        with legacy_deepcopy():
            elapsed = timed_serial(engine, candidates)
    elif name == "fast":
        elapsed = timed_serial(engine, candidates)
    elif name == "cache":
        cache = engine.enable_prefix_cache()
        elapsed = timed_serial(engine, candidates)
        stats = cache.stats
        extra = {
            "reuse_fraction": round(stats.reuse_fraction, 4),
            "hits": stats.hits,
            "entries": stats.entries,
            "evictions": stats.evictions,
        }
    elif name == "memo":
        assertions = (assert_read_equals("e10", MEMO_ASSERTION_VALUE),)
        # Untimed reference pass: the cache arm's semantics (no semantic
        # pruning) over the identical candidate list, to diff verdicts.
        ref_engine = ReplayEngine(seed.build_cluster())
        ref_engine.checkpoint()
        ref_engine.enable_prefix_cache()
        reference = [
            bool(ref_engine.replay(candidate, assertions).violated)
            for candidate in candidates
        ]
        engine.enable_prefix_cache()
        dpor = DPORPruner()
        memo = StateMemoPruner()
        dpor.bind((engine,), assertions)
        memo.bind((engine,), assertions)
        verdicts: List[bool] = []
        class_verdicts: dict = {}
        with gc_quiesced():
            started = time.perf_counter()
            for candidate in candidates:
                if dpor.is_redundant(candidate):
                    # Equal trace normal form => the representative's
                    # verdict is this candidate's verdict.
                    verdicts.append(class_verdicts.get(dpor.last_key, False))
                    continue
                dpor_key = dpor.last_key
                if memo.is_redundant(candidate):
                    # Memo never prunes a stitched violation.
                    verdicts.append(False)
                    class_verdicts.setdefault(dpor_key, False)
                    continue
                violated = bool(engine.replay(candidate, assertions).violated)
                verdicts.append(violated)
                class_verdicts.setdefault(dpor_key, violated)
            elapsed = time.perf_counter() - started
        pruned = dpor.stats.pruned + memo.stats.pruned
        extra = {
            "replayed": limit - pruned,
            "pruned": pruned,
            "dpor_pruned": dpor.stats.pruned,
            "memo_hits": memo.hits,
            "stitched_violations_replayed": memo.stitched_violations,
            "verdicts_match_cache": verdicts == reference,
        }
    elif name == "traced":
        cache = engine.enable_prefix_cache()
        engine.tracer = Tracer()
        engine.metrics = MetricsRegistry()
        elapsed = timed_serial(engine, candidates)
        extra = {
            "spans": len(engine.tracer.spans),
            "cache_hits": engine.metrics.counter("replay.cache_hits"),
            "replay_p95_us": round(
                engine.metrics.histogram("replay.duration_us").percentile(0.95), 2
            ),
        }
    elif name == "sanitized":
        cache = engine.enable_prefix_cache()
        sanitizer = Sanitizer(rate=0.25, seed=0)
        sanitizer.watch_engine(engine)
        elapsed = timed_serial(engine, candidates)
        extra = {
            "rate": sanitizer.checker.rate,
            "shadow_checks": sanitizer.checker.checks,
            "shadow_overhead_s": round(sanitizer.checker.overhead_s, 6),
            "divergences": len(sanitizer.log),
        }
    elif name.startswith("proc"):
        nworkers = int(name[len("proc"):])
        base = _FixedStreamExplorer(events, candidates)
        pool = ProcessParallelExplorer(
            base,
            CallableWorkerTask(proc_worker_stack, (limit,)),
            workers=nworkers,
            prefix_cache=True,
        )
        # Bootstrap (spawn + per-worker workload rebuild) happens here,
        # outside the timed region: the arm measures replay throughput.
        pool.prestart(cap=len(candidates))
        with gc_quiesced():
            started = time.perf_counter()
            result = pool.explore(engine, assertions=(), cap=len(candidates))
            elapsed = time.perf_counter() - started
        stats = result.worker_stats or {}
        total_ipc = sum(s["ipc_bytes"] for s in stats.values())
        extra = {
            "explored": result.explored,
            "mode": result.mode,
            "ipc_bytes_per_replay": round(
                total_ipc / max(1, result.explored), 1
            ),
            # Sharded enumeration: how many candidates each worker actually
            # flattened (vs the full stream it walks positions of).
            "enumerated_per_worker": {
                str(widx): s["materialized"] for widx, s in sorted(stats.items())
            },
            "steals": (getattr(result, "coordination", None) or {}).get(
                "steals", 0
            ),
        }
    else:
        raise ValueError(name)
    return elapsed, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small candidate cap and no ratio assertion (CI sanity run)",
    )
    parser.add_argument("--limit", type=int, default=None, help="candidate cap")
    parser.add_argument("--reps", type=int, default=None, help="repetitions per arm")
    args = parser.parse_args()

    limit = args.limit or (200 if args.smoke else 1500)
    reps = args.reps or (2 if args.smoke else 5)

    arms = (
        "seed",
        "fast",
        "cache",
        "memo",
        "traced",
        "sanitized",
        "proc1",
        "proc2",
        "proc4",
    )
    best = {name: float("inf") for name in arms}
    info = {name: {} for name in arms}
    for rep in range(reps):
        for name in arms:
            elapsed, extra = run_arm(name, limit)
            if elapsed < best[name]:
                best[name] = elapsed
                info[name] = extra
            per_replay_us = elapsed / limit * 1e6
            print(f"rep{rep} {name:<9} {per_replay_us:8.1f} us/replay")

    cores = usable_cores()
    report = {
        "workload": "CRDTsNoCoordination (town reports, section 2.3)",
        "order": "sjt",
        "candidates": limit,
        "reps": reps,
        "smoke": args.smoke,
        "cpu_count": cores,
        "arms": {
            name: {
                "best_s": round(best[name], 6),
                "us_per_replay": round(best[name] / limit * 1e6, 2),
                "interleavings_per_sec": round(limit / best[name], 1),
                **info[name],
            }
            for name in arms
        },
    }
    workers_by_arm = {"proc1": 1, "proc2": 2, "proc4": 4}
    for name, nworkers in workers_by_arm.items():
        arm = report["arms"][name]
        arm["workers"] = nworkers
        arm["speedup_vs_seed"] = round(best["seed"] / best[name], 2)
        arm["efficiency"] = round(best["seed"] / best[name] / nworkers, 3)
    # Worker counts stay ints here (JSON object keys would stringify them,
    # diverging from the typed "workers" field in the arms themselves).
    report["proc_scaling_sweep"] = [
        {
            "workers": nworkers,
            "interleavings_per_sec": round(limit / best[f"proc{nworkers}"], 1),
        }
        for nworkers in (1, 2, 4)
    ]
    speedup = best["seed"] / best["cache"]
    report["cached_speedup_vs_seed"] = round(speedup, 2)
    memo_info = info["memo"]
    report["memo_replays_vs_cache"] = round(memo_info["replayed"] / limit, 4)
    traced_overhead = best["traced"] / best["cache"]
    report["traced_overhead_vs_cache"] = round(traced_overhead, 2)
    sanitizer_overhead = best["sanitized"] / best["cache"]
    report["sanitizer_overhead_vs_cache"] = round(sanitizer_overhead, 2)
    proc4_vs_cache = best["cache"] / best["proc4"]
    report["proc4_speedup_vs_cache"] = round(proc4_vs_cache, 2)
    output = OUTPUT_SMOKE if args.smoke else OUTPUT
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\ncached speedup vs seed engine: {speedup:.2f}x, "
        f"memo arm replayed {memo_info['replayed']}/{limit}, "
        f"tracing overhead vs cache: {traced_overhead:.2f}x, "
        f"sanitizer overhead vs cache: {sanitizer_overhead:.2f}x, "
        f"proc4 vs cache: {proc4_vs_cache:.2f}x ({cores} cores)  -> {output.name}"
    )

    failed = False
    # Semantic-pruning correctness holds in smoke mode too: the memo arm
    # must replay strictly fewer candidates than the cache arm while its
    # per-candidate verdicts stay bit-for-bit identical.
    if not memo_info.get("verdicts_match_cache", False):
        print("FAIL: memo arm verdicts diverge from the cache arm")
        failed = True
    if memo_info.get("replayed", limit) >= limit:
        print("FAIL: memo arm must replay strictly fewer than the cache arm")
        failed = True
    # Sharded-enumeration/columnar-IPC schema: every proc arm must report
    # its wire and materialisation accounting (smoke mode included).
    for name in ("proc1", "proc2", "proc4"):
        missing = [
            key
            for key in ("ipc_bytes_per_replay", "enumerated_per_worker", "steals")
            if key not in report["arms"][name]
        ]
        if missing:
            print(f"FAIL: {name} arm is missing report fields {missing}")
            failed = True
    if not args.smoke and speedup < 3.0:
        print("FAIL: acceptance criterion is >= 3x cached vs seed engine")
        failed = True
    if not args.smoke and traced_overhead >= 1.10:
        print("FAIL: acceptance criterion is < 10% observability overhead")
        failed = True
    if not args.smoke and cores >= 4 and proc4_vs_cache < 2.5:
        print("FAIL: acceptance criterion is >= 2.5x proc4 vs serial cache")
        failed = True
    elif cores < 4:
        print(
            f"note: {cores} usable core(s) — proc scaling assertion skipped "
            "(shared-nothing workers cannot beat serial without cores to run on)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
