"""One hunt pipeline: the paper's loop (record, group, enumerate, prune,
replay, assert) is wired here and nowhere else.

:class:`HuntConfig` describes a scenario hunt and is the process pool's
worker task; :func:`build_pipeline` builds its explorer; :func:`arm`
attaches the per-run machinery.  Serial hunts, pool workers and the
:class:`~repro.core.session.ErPi` session all go through them.

The state memo is the one stage placed by backend: a serial hunt prunes
with it in the stream; on the pool (parent included, so the sanitizer's
pruner lists line up) it is consulted at replay time, since a stream-time
prune driven by a worker-local memo table would shift the candidate
indices the ordered commit relies on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.events import Event
from repro.core.explorers import (
    DEFAULT_CAP, DFSExplorer, ERPiExplorer, Explorer, RandomExplorer,
)
from repro.core.pruning import (
    DPORPruner, EventIndependencePruner, FailedOpsPruner, Pruner,
    ReplicaSpecificPruner, StateMemoPruner,
)
from repro.core.replay import Assertion, ReplayEngine, SequentialExecutor
from repro.core.resources import ResourceMeter
from repro.net.cluster import Cluster
from repro.obs import NULL_TRACER
from repro.proxy.recorder import EventRecorder

if TYPE_CHECKING:  # the bug registry imports repro.core at module level
    from repro.bugs.registry import BugScenario
    from repro.core.journal import HuntJournal
    from repro.core.sanitizer import Sanitizer
    from repro.faults.plan import FaultPlan


@dataclass
class RecordedScenario:
    """A scenario after its recording run: ready to replay."""

    scenario: "BugScenario"
    cluster: Cluster
    engine: ReplayEngine
    events: Tuple[Event, ...]
    fixed: bool = False

    @property
    def event_count(self) -> int:
        return len(self.events)


def record_scenario(scenario: "BugScenario", fixed: bool = False) -> RecordedScenario:
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


def scenario_pruners(scenario: "BugScenario") -> List[Pruner]:
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
) -> Explorer:
    """Build the exploration stack for one recorded scenario.

    ``memo`` / ``dpor`` add the semantic pruners to the candidate stream
    (ER-pi mode only — the other modes have no pruner pipeline).
    """
    scenario = recorded.scenario
    schedule = tuple(events) if events is not None else recorded.events
    if mode == "erpi":
        pruners = scenario_pruners(scenario)
        if dpor:
            pruners.append(DPORPruner())
        if memo:
            pruners.append(StateMemoPruner())
        return ERPiExplorer(
            schedule,
            meter=meter,
            spec_groups=scenario.spec_groups(),
            pruners=pruners,
        )
    if memo or dpor:
        raise ValueError(
            f"--memo/--dpor require the erpi mode, not {mode!r}"
        )
    if mode == "dfs":
        return DFSExplorer(schedule, meter=meter)
    if mode == "rand":
        return RandomExplorer(schedule, meter=meter, seed=seed)
    raise ValueError(f"unknown exploration mode {mode!r}")


def explorer_with_faults(
    plan: Optional["FaultPlan"],
    events: Sequence[Event],
    build: Callable[[Tuple[Event, ...]], Explorer],
    tracer: Any = NULL_TRACER,
) -> Tuple[Explorer, Tuple[Event, ...]]:
    """``build(schedule)`` over ``events`` with ``plan`` compiled in (the
    plan's validity constraints and description attached); returns the
    explorer and the injected fault events."""
    if plan is None or plan.is_empty():
        return build(tuple(events)), ()
    span = tracer.begin("fault-compile") if tracer.enabled else None
    compiled = plan.compile(events)
    if span is not None:
        tracer.end(span, fault_events=len(compiled.fault_events))
    explorer = build(compiled.events)
    explorer.order_constraints = compiled.order_constraints
    explorer.fault_plan_description = plan.describe()
    return explorer, compiled.fault_events


class WorkerTask:
    """A picklable recipe for rebuilding one worker's exploration stack.

    ``build()`` runs **inside** the worker process and must return
    ``(explorer, engine, assertions, audit_events)`` — a fresh explorer over
    the recorded schedule, a checkpointed :class:`ReplayEngine` over a fresh
    cluster, the scenario's assertions, and the unfaulted recorded events
    (the grouping auditor's input when sanitizing).  Implementations must
    not capture module-level state: everything a worker needs is derived
    from the task's own (picklable) fields, which keeps the bootstrap safe
    under the ``spawn`` start method as well as ``fork``.  A scenario
    hunt's task is its :class:`HuntConfig`.
    """

    def build(self) -> Tuple[Explorer, ReplayEngine, Sequence[Assertion], tuple]:
        raise NotImplementedError


@dataclass(frozen=True)
class CallableWorkerTask(WorkerTask):
    """Rebuild from a module-level factory (the bench harness's spec).

    ``factory`` must be importable by reference (a plain module-level
    function), so the task pickles as a name, not as captured state.
    """

    factory: Any
    args: Tuple[Any, ...] = ()

    def build(self) -> Tuple[Explorer, ReplayEngine, Sequence[Assertion], tuple]:
        return self.factory(*self.args)


@dataclass(frozen=True)
class HuntConfig(WorkerTask):
    """Everything that defines one scenario hunt (picklable).

    ``budget_bytes`` is the meter's budget, so a budget crash lands on the
    same candidate on every backend.  ``coordinated`` (a journaled hunt)
    runs on the pool even with one worker.
    """

    scenario_name: str
    mode: str = "erpi"
    seed: int = 0
    fixed: bool = False
    faults: bool = False
    replay_timeout_s: Optional[float] = None
    memo: bool = False
    dpor: bool = False
    cap: int = DEFAULT_CAP
    workers: int = 1
    prefix_cache: bool = False
    budget_bytes: Optional[int] = None
    coordinated: bool = False

    @property
    def on_pool(self) -> bool:
        return self.workers > 1 or self.coordinated

    def identity(self) -> Dict[str, Any]:
        """The journal header.  A header written before a field was pinned
        lacks its key, which reads as ``None`` (the field's default)."""
        fields = asdict(self)
        fields["scenario"] = fields.pop("scenario_name")
        del fields["coordinated"]  # every journaled hunt is coordinated
        return fields

    def open_journal(
        self, journal: Optional[str], resume: Optional[str]
    ) -> "HuntJournal":
        """Create a fresh hunt journal, or load one to resume.  A finished
        journal, or one whose identity differs from this hunt's (which
        would change what its committed prefix means), is refused."""
        import uuid

        from repro.core.journal import HuntJournal, JournalError

        if journal is not None and resume is not None:
            raise ValueError("pass either journal= (fresh) or resume=, not both")
        identity = self.identity()
        if resume is None:
            header = {"hunt": {**identity, "hunt_id": uuid.uuid4().hex[:12]}}
            return HuntJournal.create(journal, header)
        loaded = HuntJournal.load(resume)
        if loaded.is_final:
            raise JournalError(
                f"{resume}: journal is final (hunt completed); nothing to resume"
            )
        saved = loaded.header.get("hunt", {})
        mismatched = ", ".join(
            f"{key}: journal={saved.get(key)!r} requested={value!r}"
            for key, value in sorted(identity.items())
            if saved.get(key) != value
        )
        if mismatched:
            raise JournalError(f"{resume}: hunt configuration mismatch ({mismatched})")
        return loaded

    def build(self) -> Tuple[Explorer, ReplayEngine, Sequence[Assertion], tuple]:
        """Record the scenario and build a pool worker's stack."""
        from repro.bugs import scenario

        recorded = record_scenario(scenario(self.scenario_name), fixed=self.fixed)
        explorer = build_pipeline(recorded, self, in_worker=True)
        assertions = recorded.scenario.make_assertions()
        return explorer, recorded.engine, assertions, recorded.events


def build_pipeline(
    recorded: RecordedScenario,
    config: HuntConfig,
    meter: Optional[ResourceMeter] = None,
    tracer: Any = NULL_TRACER,
    in_worker: bool = False,
) -> Explorer:
    """Build the explorer ``config`` describes over ``recorded``, and
    install its executor on ``recorded.engine`` (on every call: a reused
    recording must not keep an earlier hunt's watchdog).  A worker's own
    build (``in_worker``) is on the pool whatever ``config.workers`` says.
    """
    plan = recorded.scenario.fault_plan() if config.faults else None
    if config.faults and (plan is None or plan.is_empty()):
        raise ValueError(
            f"{recorded.scenario.name} declares no fault plan; hunt with faults=False"
        )
    recorded.engine.executor = SequentialExecutor(timeout_s=config.replay_timeout_s)
    if meter is None:
        meter = ResourceMeter(budget_bytes=config.budget_bytes)
    explorer, _ = explorer_with_faults(
        plan,
        recorded.events,
        lambda schedule: make_explorer(
            recorded, config.mode, seed=config.seed, meter=meter, events=schedule,
            memo=config.memo, dpor=config.dpor,
        ),
        tracer,
    )
    if config.memo and (in_worker or config.on_pool):
        # make_explorer appends the memo last; move it to replay time.
        explorer.replay_memo = explorer.pipeline.pruners.pop()
    return explorer


def arm(
    explorer: Explorer,
    engine: ReplayEngine,
    assertions: Optional[Sequence[Assertion]] = None,
    *,
    prefix_cache: bool = False,
    sanitizer: Optional["Sanitizer"] = None,
    audit_events: Sequence[Event] = (),
    tracer: Any = None,
    metrics: Any = None,
    progress: Any = None,
) -> None:
    """Attach the per-run machinery to ``explorer`` and ``engine``.

    Pass ``assertions`` when ``engine`` replays the candidates, to bind
    the semantic pruners (a pool parent's engine does not).  The prefix
    cache charges the meter only when it has a budget: the footprint walk
    roughly doubles a cached replay's cost.  Observers left ``None`` are
    kept.
    """
    if tracer is not None:
        explorer.tracer = engine.tracer = tracer
    if metrics is not None:
        explorer.metrics = engine.metrics = metrics
    if progress is not None:
        explorer.progress = progress
    if prefix_cache and engine.prefix_cache is None:
        budgeted = explorer.meter.budget_bytes is not None
        engine.enable_prefix_cache(meter=explorer.meter if budgeted else None)
    if sanitizer is not None:
        sanitizer.reset_pruners()  # a session's sanitizer outlives its explorers
        sanitizer.watch_engine(engine)
        if isinstance(explorer, ERPiExplorer):
            sanitizer.watch_pruners(explorer.pipeline.pruners)
            explorer.audit_pruners.append(
                sanitizer.grouping_auditor(audit_events, explorer.spec_groups)
            )
    if assertions is not None:
        explorer.bind_semantic((engine,), assertions)
