"""Benchmark harness: record a bug scenario once, then hunt it with each
exploration mode (ER-pi / DFS / Rand) under the paper's 10K cap.

This is the engine behind Figures 8a, 8b, 9 and 10 and Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bugs.registry import BugScenario
from repro.core.events import Event
from repro.core.explorers import (
    DEFAULT_CAP,
    DFSExplorer,
    ERPiExplorer,
    Explorer,
    ExplorationResult,
    RandomExplorer,
)
from repro.core.pruning import (
    DPORPruner,
    EventIndependencePruner,
    FailedOpsPruner,
    Pruner,
    ReplicaSpecificPruner,
    StateMemoPruner,
)
from repro.core.replay import ReplayEngine, SequentialExecutor
from repro.core.resources import ResourceMeter
from repro.core.sanitizer import Sanitizer
from repro.net.cluster import Cluster
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.proxy.recorder import EventRecorder

MODES = ("erpi", "dfs", "rand")


@dataclass
class RecordedScenario:
    """A scenario after its recording run: ready to replay."""

    scenario: BugScenario
    cluster: Cluster
    engine: ReplayEngine
    events: Tuple[Event, ...]
    fixed: bool = False

    @property
    def event_count(self) -> int:
        return len(self.events)


def record_scenario(scenario: BugScenario, fixed: bool = False) -> RecordedScenario:
    """Build the cluster, checkpoint it, and record the happy-path run.

    ``fixed=True`` installs the repaired library (defects removed) so
    regression tests can verify the invariants hold under *every* explored
    interleaving once the bug is fixed."""
    cluster = scenario.build_cluster(fixed=fixed)
    engine = ReplayEngine(cluster)
    engine.checkpoint()
    recorder = EventRecorder(cluster)
    recorder.start()
    scenario.workload(cluster)
    events = tuple(recorder.stop())
    if len(events) != scenario.expected_events:
        raise AssertionError(
            f"{scenario.name}: workload recorded {len(events)} events, "
            f"Table 1 says {scenario.expected_events}"
        )
    return RecordedScenario(scenario, cluster, engine, events, fixed=fixed)


def scenario_pruners(scenario: BugScenario) -> List[Pruner]:
    pruners: List[Pruner] = []
    if scenario.replica_scope:
        pruners.append(ReplicaSpecificPruner(scenario.replica_scope))
    for events in scenario.independence_constraints():
        pruners.append(EventIndependencePruner(events))
    for predecessors, successors in scenario.failed_ops_constraints():
        pruners.append(FailedOpsPruner(predecessors, successors))
    return pruners


def make_explorer(
    recorded: RecordedScenario,
    mode: str,
    seed: int = 0,
    meter: Optional[ResourceMeter] = None,
    events: Optional[Sequence[Event]] = None,
    memo: bool = False,
    dpor: bool = False,
    memo_in_stream: bool = True,
) -> Explorer:
    """Build the exploration stack for one recorded scenario.

    ``memo`` / ``dpor`` add the semantic pruners (ER-pi mode only — the
    other modes have no pruner pipeline).  ``memo_in_stream=False`` attaches
    the :class:`StateMemoPruner` as ``explorer.replay_memo`` instead of
    putting it in the candidate pipeline: process-pool workers consult it at
    replay time on shard-owned candidates, because a stream-time prune
    driven by a worker-local memo table would desynchronise the candidate
    indices the commit protocol relies on.
    """
    scenario = recorded.scenario
    schedule = tuple(events) if events is not None else recorded.events
    if mode == "erpi":
        pruners = scenario_pruners(scenario)
        if dpor:
            pruners.append(DPORPruner())
        memo_pruner = StateMemoPruner() if memo else None
        if memo_pruner is not None and memo_in_stream:
            pruners.append(memo_pruner)
        explorer = ERPiExplorer(
            schedule,
            meter=meter,
            spec_groups=scenario.spec_groups(),
            pruners=pruners,
        )
        if memo_pruner is not None and not memo_in_stream:
            explorer.replay_memo = memo_pruner
        return explorer
    if memo or dpor:
        raise ValueError(
            f"--memo/--dpor require the erpi mode, not {mode!r}"
        )
    if mode == "dfs":
        return DFSExplorer(schedule, meter=meter)
    if mode == "rand":
        return RandomExplorer(schedule, meter=meter, seed=seed)
    raise ValueError(f"unknown exploration mode {mode!r}")


def _coordination_journal(
    journal: Optional[str],
    resume: Optional[str],
    recorded: RecordedScenario,
    *,
    mode: str,
    seed: int,
    cap: int,
    workers: int,
    faults: bool,
    prefix_cache: bool,
    memo: bool,
    dpor: bool,
):
    """Create a fresh hunt journal, or load + validate one for resumption.

    The header pins the hunt's identity; resuming under a different
    scenario/mode/seed/cap would silently change what the committed prefix
    means, so any mismatch refuses instead of continuing.
    """
    import uuid

    from repro.core.journal import HuntJournal, JournalError

    if journal is not None and resume is not None:
        raise ValueError("pass either journal= (fresh) or resume=, not both")
    config = {
        "scenario": recorded.scenario.name,
        "mode": mode,
        "seed": seed,
        "cap": cap,
        "workers": workers,
        "faults": faults,
        "fixed": recorded.fixed,
        "prefix_cache": prefix_cache,
        "memo": memo,
        "dpor": dpor,
    }
    if resume is not None:
        loaded = HuntJournal.load(resume)
        if loaded.is_final:
            raise JournalError(
                f"{resume}: journal is final (hunt completed); nothing to resume"
            )
        saved = loaded.header.get("hunt", {})
        mismatched = {
            key: (saved.get(key), value)
            for key, value in config.items()
            if saved.get(key) != value
        }
        if mismatched:
            detail = ", ".join(
                f"{key}: journal={was!r} requested={now!r}"
                for key, (was, now) in sorted(mismatched.items())
            )
            raise JournalError(
                f"{resume}: hunt configuration mismatch ({detail})"
            )
        return loaded
    header = {"hunt": {**config, "hunt_id": uuid.uuid4().hex[:12]}}
    return HuntJournal.create(journal, header)


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
    heartbeat_interval_s: Optional[float] = None,
    max_releases: int = 3,
    checkpoint_every: int = 64,
    batch_size: int = 64,
    steal_margin: Optional[int] = 512,
) -> ExplorationResult:
    """Explore until the scenario's invariant breaks (bug reproduced).

    ``prefix_cache=True`` enables incremental prefix-reuse replay;
    ``workers > 1`` shards candidates across shared-nothing
    ``multiprocessing`` workers with prefix-shard scheduling
    (:class:`~repro.core.procpool.ProcessParallelExplorer`) while keeping
    the reported first violation identical to a serial hunt.
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
    verdicts checkpointed to the journal as they commit, crashed workers
    re-leased (respawned at the commit watermark).  ``resume`` (a path to
    an existing journal) continues a previously killed hunt: the committed
    prefix is replayed from the checkpoint, workers skip past it, and the
    final verdict map is identical to an uninterrupted run's.  The
    remaining knobs tune the coordinator (heartbeat cadence, re-lease
    budget, checkpoint stride).

    ``batch_size`` caps the workers' adaptive columnar IPC frames;
    ``steal_margin`` sets how far a coordinated worker may trail the lead
    before its shard suffix is stolen (``None`` disables stealing).
    """
    observed_tracer = tracer if tracer is not None else NULL_TRACER
    observed_metrics = metrics if metrics is not None else NULL_METRICS
    schedule: Optional[Sequence[Event]] = None
    order_constraints: Tuple[Tuple[str, str], ...] = ()
    fault_plan = None
    if faults:
        fault_plan = recorded.scenario.fault_plan()
        if fault_plan is None or fault_plan.is_empty():
            raise ValueError(
                f"{recorded.scenario.name} declares no fault plan; "
                "hunt with faults=False"
            )
        if observed_tracer.enabled:
            fspan = observed_tracer.begin("fault-compile")
            compiled = fault_plan.compile(recorded.events)
            observed_tracer.end(fspan, fault_events=len(compiled.fault_events))
        else:
            compiled = fault_plan.compile(recorded.events)
        schedule = compiled.events
        order_constraints = compiled.order_constraints
    if replay_timeout_s is not None:
        recorded.engine.executor = SequentialExecutor(timeout_s=replay_timeout_s)
    coordinated = journal is not None or resume is not None
    use_process = workers > 1 or coordinated
    explorer = make_explorer(
        recorded, mode, seed=seed, meter=meter, events=schedule,
        memo=memo, dpor=dpor,
        # Process workers consult the memo at replay time, so the parent's
        # pipeline must match theirs (the sanitizer zips pruner lists).
        memo_in_stream=not use_process,
    )
    explorer.order_constraints = order_constraints
    explorer.tracer = observed_tracer
    explorer.metrics = observed_metrics
    explorer.progress = progress
    recorded.engine.tracer = observed_tracer
    recorded.engine.metrics = observed_metrics
    if fault_plan is not None:
        explorer.fault_plan_description = fault_plan.describe()
    assertions = recorded.scenario.make_assertions()
    sanitizer: Optional[Sanitizer] = None
    if sanitize is not None:
        sanitizer = Sanitizer(rate=sanitize, sample_k=sanitize_sample_k, seed=seed)
        sanitizer.watch_engine(recorded.engine)
        if isinstance(explorer, ERPiExplorer):
            sanitizer.watch_pruners(explorer.pipeline.pruners)
            explorer.audit_pruners.append(
                sanitizer.grouping_auditor(recorded.events, explorer.spec_groups)
            )
    if use_process:
        from repro.core.procpool import ProcessParallelExplorer, ScenarioWorkerTask

        task = ScenarioWorkerTask(
            scenario_name=recorded.scenario.name,
            mode=mode,
            seed=seed,
            fixed=recorded.fixed,
            faults=faults,
            replay_timeout_s=replay_timeout_s,
            memo=memo,
            dpor=dpor,
        )
        pool_kwargs = dict(
            workers=workers,
            prefix_cache=prefix_cache,
            sanitize=sanitize,
            sanitize_sample_k=sanitize_sample_k,
            seed=seed,
            parent_sanitizer=sanitizer,
            batch_size=batch_size,
        )
        if coordinated:
            from repro.core.coordinator import CoordinatedHuntExplorer

            hunt_journal = _coordination_journal(
                journal, resume, recorded, mode=mode, seed=seed, cap=cap,
                workers=workers, faults=faults, prefix_cache=prefix_cache,
                memo=memo, dpor=dpor,
            )
            parallel = CoordinatedHuntExplorer(
                explorer,
                task,
                journal=hunt_journal,
                heartbeat_interval_s=heartbeat_interval_s,
                max_releases=max_releases,
                checkpoint_every=checkpoint_every,
                steal_margin=steal_margin,
                **pool_kwargs,
            )
        else:
            parallel = ProcessParallelExplorer(explorer, task, **pool_kwargs)
        result = parallel.explore(
            recorded.engine, assertions, cap=cap, stop_on_violation=stop_on_violation
        )
    else:
        if prefix_cache and recorded.engine.prefix_cache is None:
            recorded.engine.enable_prefix_cache(meter=meter)
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
