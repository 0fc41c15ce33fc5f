"""Benchmark harness: record a bug scenario once, then hunt it with each
exploration mode (ER-pi / DFS / Rand) under the paper's 10K cap.

This is the engine behind Figures 8a, 8b, 9 and 10 and Table 1.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bugs.registry import BugScenario
from repro.core.explorers import DEFAULT_CAP, ExplorationResult
# The recording and explorer builders live in the pipeline module; they are
# re-exported here, where the benches, tests and CLI import them from.
from repro.core.pipeline import (
    HuntConfig,
    RecordedScenario,
    arm,
    build_pipeline,
    make_explorer,
    record_scenario,
    scenario_pruners,
)
from repro.core.resources import ResourceMeter
from repro.core.sanitizer import Sanitizer
from repro.obs import NULL_METRICS, NULL_TRACER

MODES = ("erpi", "dfs", "rand")


def hunt(
    recorded: RecordedScenario,
    mode: str,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    meter: Optional[ResourceMeter] = None,
    workers: int = 1,
    prefix_cache: bool = False,
    memo: bool = False,
    dpor: bool = False,
    sanitize: Optional[float] = None,
    sanitize_sample_k: int = 2,
    faults: bool = False,
    replay_timeout_s: Optional[float] = None,
    stop_on_violation: bool = True,
    tracer: Optional[object] = None,
    metrics: Optional[object] = None,
    progress: Optional[object] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    checkpoint_every: int = 64,
) -> ExplorationResult:
    """Explore until the scenario's invariant breaks (bug reproduced).

    The hunt's :class:`~repro.core.pipeline.HuntConfig` is assembled by
    :func:`~repro.core.pipeline.build_pipeline` and
    :func:`~repro.core.pipeline.arm`, as a process worker's stack is.

    ``prefix_cache=True`` enables incremental prefix-reuse replay;
    ``workers > 1`` shards candidates across shared-nothing
    ``multiprocessing`` workers with prefix-shard scheduling
    (:class:`~repro.core.procpool.ProcessParallelExplorer`) while keeping
    the reported first violation identical to a serial hunt (a ``meter``
    budget crash included).
    ``sanitize`` runs the differential soundness sanitizer alongside the
    hunt: a ``sanitize`` fraction of cache-accelerated replays are
    shadow-replayed from scratch, and every pruner's equivalence classes
    are sampled and differentially replayed afterwards.  The report lands
    on ``result.sanitizer``.

    ``faults=True`` compiles the scenario's :meth:`BugScenario.fault_plan`
    into the schedule: the crash/recover (and partition/heal) events are
    permuted alongside the recorded events, constrained by the plan's
    anchors.  ``replay_timeout_s`` arms the per-replay watchdog; a replay
    that exceeds it is quarantined rather than hanging the hunt.

    ``tracer`` / ``metrics`` / ``progress`` attach a
    :class:`~repro.obs.tracer.Tracer`, a
    :class:`~repro.obs.metrics.MetricsRegistry` and a
    :class:`~repro.obs.progress.ProgressLine` to the whole hunt (explorer,
    replay engine, pruners and — via the engine — the sanitizer).  A
    process-backed hunt traces the parent only (``explore`` and the
    coordinator's spans); its worker processes run untraced.

    ``journal`` (a path) upgrades a process-backed hunt to a **coordinated**
    one (:class:`~repro.core.coordinator.CoordinatedHuntExplorer`):
    verdicts checkpointed to the journal as they commit (a durability
    barrier every ``checkpoint_every`` commits), crashed workers re-leased
    (respawned at the commit watermark).  ``resume`` (a path to an existing
    journal) continues a previously killed hunt: the committed prefix is
    replayed from the checkpoint, workers skip past it, and the final
    verdict map is identical to an uninterrupted run's.  A journal whose
    :meth:`~repro.core.pipeline.HuntConfig.identity` differs from this
    hunt's is refused.
    """
    config = HuntConfig(
        scenario_name=recorded.scenario.name, mode=mode, seed=seed,
        fixed=recorded.fixed, faults=faults, replay_timeout_s=replay_timeout_s,
        memo=memo, dpor=dpor, cap=cap, workers=workers, prefix_cache=prefix_cache,
        budget_bytes=meter.budget_bytes if meter is not None else None,
        coordinated=journal is not None or resume is not None,
    )
    tracer = tracer if tracer is not None else NULL_TRACER
    explorer = build_pipeline(recorded, config, meter=meter, tracer=tracer)
    assertions = recorded.scenario.make_assertions()
    sanitizer = None if sanitize is None else Sanitizer(
        rate=sanitize, sample_k=sanitize_sample_k, seed=seed)
    on_pool = config.on_pool
    arm(
        explorer, recorded.engine, None if on_pool else assertions,
        prefix_cache=prefix_cache and not on_pool, sanitizer=sanitizer,
        audit_events=recorded.events, tracer=tracer,
        metrics=metrics if metrics is not None else NULL_METRICS, progress=progress,
    )
    if on_pool:
        from repro.core.coordinator import CoordinatedHuntExplorer
        from repro.core.procpool import ProcessParallelExplorer

        pool, coordination = ProcessParallelExplorer, {}
        if config.coordinated:
            pool = CoordinatedHuntExplorer
            coordination = dict(journal=config.open_journal(journal, resume),
                                checkpoint_every=checkpoint_every)
        explorer = pool(
            explorer, config, workers=workers, prefix_cache=prefix_cache,
            sanitize=sanitize, sanitize_sample_k=sanitize_sample_k, seed=seed,
            parent_sanitizer=sanitizer, **coordination,
        )
    result = explorer.explore(
        recorded.engine, assertions, cap=cap, stop_on_violation=stop_on_violation
    )
    if sanitizer is not None:
        result.sanitizer = sanitizer.finish(recorded.engine)
    return result


def hunt_all_modes(
    scenario: BugScenario,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> Dict[str, ExplorationResult]:
    """One Figure-8 row: the same recorded scenario hunted by every mode."""
    results: Dict[str, ExplorationResult] = {}
    for mode in MODES:
        recorded = record_scenario(scenario)
        results[mode] = hunt(recorded, mode, cap=cap, seed=seed)
    return results
