"""Exploration strategies: ER-pi, DFS and Random (paper section 6.3).

All three modes replay interleavings one by one against the same
:class:`~repro.core.replay.ReplayEngine` and stop on the first assertion
violation (bug reproduced), on the exploration cap (the paper terminates at
10,000 interleavings), or on resource exhaustion (Figure 10):

* :class:`DFSExplorer` — exhaustive lexicographic DFS over the **raw** event
  permutations, exactly the paper's baseline: no grouping, no pruning, the
  interleaving tree explored by backtracking, every explored path remembered
  in the checker ledger.
* :class:`RandomExplorer` — composes each interleaving by shuffling the raw
  events, caching composed interleavings to avoid repetition (and paying for
  re-shuffles once most of the space is cached).
* :class:`ERPiExplorer` — ER-pi: Algorithm-1 grouping up front, minimal-change
  (SJT) enumeration over units, and the applicable post-generation pruners
  filtering equivalent interleavings before they are ever replayed.

:class:`~repro.core.procpool.ProcessParallelExplorer` wraps any of the
three, sharding the candidate stream across shared-nothing worker processes
while committing results strictly in candidate order, so the reported first
violation — and the explored count — are identical to a serial run.
"""

from __future__ import annotations

import abc
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ResourceExhausted
from repro.core.events import Event
from repro.faults.plan import satisfies_order_constraints
from repro.faults.quarantine import QuarantinedReplay
from repro.core.interleavings import (
    GroupingResult,
    Interleaving,
    flatten,
    group_events,
    interleaving_stream,
    unit_permutation_stream,
)
from repro.core.pruning.base import Pruner, PrunerPipeline
from repro.core.replay import Assertion, InterleavingOutcome, ReplayEngine
from repro.core.resources import ResourceMeter, interleaving_footprint
from repro.obs import NULL_METRICS, NULL_TRACER

#: The paper's exploration cap.
DEFAULT_CAP = 10_000


@dataclass
class ExplorationResult:
    """Outcome of one exploration run (one bar of Figure 8a/8b)."""

    mode: str
    found: bool
    explored: int
    elapsed_s: float
    crashed: bool = False
    crash_reason: Optional[str] = None
    violating: Optional[InterleavingOutcome] = None
    pruning_stats: Dict[str, int] = field(default_factory=dict)
    #: Filled in by callers that ran the soundness sanitizer
    #: (a :class:`repro.core.sanitizer.SanitizerReport`).
    sanitizer: Optional[object] = None
    #: Replays the quarantine path captured (unexpected subject exception
    #: or watchdog timeout) instead of completing.
    quarantined: List[QuarantinedReplay] = field(default_factory=list)
    #: How many fault events (crash/recover/partition/heal) were in play.
    fault_events: int = 0
    #: Committed per-interleaving verdicts ("ok" / "violation" /
    #: "quarantine") keyed by interleaving id, in commit order.  Filled by
    #: the process-backed parallel explorer, whose shard merge is easiest to
    #: audit through exactly this map; serial explorers leave it ``None``.
    verdicts: Optional[Dict[str, str]] = None
    #: Coordination summary (hunt id, lease events, re-leases, abandoned
    #: shards, steals, checkpoint count, resumed commits, journal path)
    #: from a :class:`~repro.core.coordinator.CoordinatedHuntExplorer` run.
    coordination: Optional[Dict[str, object]] = None
    #: Per-worker-slot stats from a process-backed run: stream positions
    #: enumerated (``yields``), owned candidates actually materialised
    #: (``materialized`` — under sharded enumeration a worker flattens only
    #: its own shards), and verdict-pipe bytes shipped (``ipc_bytes``).
    #: Serial explorers leave it ``None``.
    worker_stats: Optional[Dict[int, Dict[str, int]]] = None

    @property
    def capped(self) -> bool:
        return not self.found and not self.crashed


class Explorer(abc.ABC):
    """Shared explore loop; subclasses provide the candidate stream."""

    mode = "explorer"

    def __init__(self, events: Sequence[Event], meter: Optional[ResourceMeter] = None) -> None:
        self.events: Tuple[Event, ...] = tuple(events)
        self.meter = meter or ResourceMeter()
        #: (before_id, after_id) validity constraints — schedules violating
        #: one (e.g. a recover before its crash) are *invalid*, not merely
        #: equivalent: they are skipped before pruning and never replayed.
        #: Set by fault-aware callers (see repro.faults.plan.FaultPlan).
        self.order_constraints: Tuple[Tuple[str, str], ...] = ()
        #: Human-readable fault-plan description, attached to quarantines.
        self.fault_plan_description: Optional[str] = None
        #: Observability (see repro.obs) — the shared null objects unless an
        #: observed run swaps real ones in.  ``progress`` may hold a
        #: :class:`~repro.obs.progress.ProgressLine` for live hunts.
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.progress: Optional[object] = None

    def _valid(self, interleaving: Interleaving) -> bool:
        return satisfies_order_constraints(interleaving, self.order_constraints)

    @abc.abstractmethod
    def candidates(self) -> Iterator[Interleaving]:
        """A lazy stream of interleavings to replay, in exploration order."""

    def sharded_candidates(
        self, router: object, worker_index: int
    ) -> Iterator[Optional[Interleaving]]:
        """The candidate stream as one shard worker sees it.

        Yields the interleaving for stream positions ``worker_index`` owns
        (per the ``router``'s deterministic prefix-shard assignment) and
        ``None`` for foreign positions.  Every position — owned or not —
        produces exactly one yield, so a worker's candidate *indices* stay
        identical to the full stream's; only the materialisation differs.

        The default implementation generates the full stream and filters
        (the behaviour every worker had before sharded enumeration);
        subclasses whose generator can derive the shard key without
        flattening override this to skip foreign candidates wholesale.
        """
        for interleaving in self.candidates():
            if router.owner(interleaving) == worker_index:
                yield interleaving
            else:
                yield None

    def _quarantine(self, interleaving: Interleaving, exc: BaseException) -> QuarantinedReplay:
        return QuarantinedReplay(
            interleaving=tuple(event.event_id for event in interleaving),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
            fault_plan=self.fault_plan_description,
        )

    def explore(
        self,
        engine: ReplayEngine,
        assertions: Sequence[Assertion],
        cap: int = DEFAULT_CAP,
        stop_on_violation: bool = True,
        on_replay: Optional[Callable[..., None]] = None,
    ) -> ExplorationResult:
        """``on_replay(interleaving, outcome_or_quarantine)``, when given,
        sees every replay's outcome (or its :class:`QuarantinedReplay`)."""
        tracer = self.tracer
        metrics = self.metrics
        progress = self.progress
        started = time.perf_counter()
        explored = 0
        violating: Optional[InterleavingOutcome] = None
        crashed = False
        crash_reason: Optional[str] = None
        quarantined: List[QuarantinedReplay] = []
        root = tracer.begin("explore") if tracer.enabled else None
        self.bind_semantic((engine,), assertions)
        candidates = self.candidates()
        try:
            # The cap is checked *before* pulling the next candidate, so a
            # capped run never generates (or meter-charges) an interleaving
            # it will not replay — keeping the observability identity
            # ``generated == pruned + replayed + quarantined + discarded``
            # exact.
            while explored < cap:
                if tracer.enabled:
                    gspan = tracer.begin("generate")
                    try:
                        interleaving = next(candidates, None)
                    except BaseException as exc:
                        tracer.end(gspan, error=type(exc).__name__)
                        raise
                    tracer.end(gspan, exhausted=interleaving is None)
                else:
                    interleaving = next(candidates, None)
                if interleaving is None:
                    break
                try:
                    outcome = engine.replay(interleaving, assertions)
                except ResourceExhausted:
                    raise
                except Exception as exc:
                    # Quarantine: an injected fault wedged or blew up the
                    # subject (watchdog timeout, unexpected exception).
                    # Capture the wreckage and keep hunting.
                    if tracer.enabled:
                        qspan = tracer.begin("quarantine")
                        quarantined.append(self._quarantine(interleaving, exc))
                        tracer.end(qspan, error_type=type(exc).__name__)
                    else:
                        quarantined.append(self._quarantine(interleaving, exc))
                    if metrics.enabled:
                        metrics.inc("interleavings.quarantined")
                    explored += 1
                    if progress is not None:
                        progress.tick(metrics)
                    engine.restore()
                    if on_replay is not None:
                        on_replay(interleaving, quarantined[-1])
                    continue
                explored += 1
                if metrics.enabled:
                    metrics.inc("interleavings.replayed")
                if progress is not None:
                    progress.tick(metrics)
                if on_replay is not None:
                    on_replay(interleaving, outcome)
                if outcome.violated:
                    violating = outcome
                    if stop_on_violation:
                        break
        except ResourceExhausted as exc:
            crashed = True
            crash_reason = str(exc)
        finally:
            self._finish_observation(engine, root, explored)
        elapsed = time.perf_counter() - started
        return ExplorationResult(
            mode=self.mode,
            found=violating is not None,
            explored=explored,
            elapsed_s=elapsed,
            crashed=crashed,
            crash_reason=crash_reason,
            violating=violating,
            pruning_stats=self._pruning_stats(),
            quarantined=quarantined,
            fault_events=sum(1 for event in self.events if event.is_fault),
        )

    def _pruning_stats(self) -> Dict[str, int]:
        return {}

    def bind_semantic(
        self, engines: Sequence[ReplayEngine], assertions: Sequence[Assertion]
    ) -> None:
        """Bind semantic pruners (state memo / DPOR) to the replay engines.

        A no-op for explorers without a pruning pipeline.  Sound-or-off:
        each pruner decides for itself whether the engines support it.
        """

    def _finish_observation(
        self,
        engine: ReplayEngine,
        root_span: Optional[object],
        explored: int,
        mode: Optional[str] = None,
    ) -> None:
        """End-of-run observability: gauges, the final progress repaint, and
        the root ``explore`` span.  A no-op with the null objects attached."""
        metrics = self.metrics
        if metrics.enabled:
            for category, nbytes in self.meter.by_category.items():
                metrics.set_gauge("resource.bytes." + category, nbytes)
            cache = engine.prefix_cache
            if cache is not None:
                metrics.set_gauge("cache.entries", cache.stats.entries)
                metrics.set_gauge("cache.retained_bytes", cache.stats.retained_bytes)
        progress = self.progress
        if progress is not None:
            progress.close(metrics if metrics.enabled else None)
        if root_span is not None:
            self.tracer.end(root_span, mode=mode or self.mode, explored=explored)


class DFSExplorer(Explorer):
    """Lexicographic DFS over raw-event permutations (no reduction)."""

    mode = "dfs"

    def candidates(self) -> Iterator[Interleaving]:
        metrics = self.metrics
        units = tuple((event,) for event in self.events)
        for interleaving in interleaving_stream(units, order="lexicographic"):
            if not self._valid(interleaving):
                if metrics.enabled:
                    metrics.inc("interleavings.invalid")
                continue
            # The checker server persists every explored interleaving.
            self.meter.charge("dfs_ledger", interleaving_footprint(len(self.events)))
            if metrics.enabled:
                metrics.inc("interleavings.generated")
            yield interleaving


class RandomExplorer(Explorer):
    """Shuffle-and-cache exploration (the paper's Rand mode)."""

    mode = "rand"

    def __init__(
        self,
        events: Sequence[Event],
        meter: Optional[ResourceMeter] = None,
        seed: int = 0,
        max_reshuffles: int = 1_000,
    ) -> None:
        super().__init__(events, meter)
        self.seed = seed
        self.max_reshuffles = max_reshuffles
        self.reshuffles = 0

    def candidates(self) -> Iterator[Interleaving]:
        rng = random.Random(self.seed)
        cache: set = set()
        order = list(self.events)
        while True:
            attempts = 0
            while True:
                rng.shuffle(order)
                key = tuple(event.event_id for event in order)
                if key not in cache:
                    break
                attempts += 1
                self.reshuffles += 1
                # Re-shuffling is not free: the composer burns time (visible
                # in Figure 8b) and scratch space finding a fresh ordering.
                self.meter.charge("rand_reshuffle", 8)
                if attempts >= self.max_reshuffles:
                    return  # space effectively exhausted for this seed
            cache.add(key)
            self.meter.charge("rand_cache", interleaving_footprint(len(self.events)))
            candidate = tuple(order)
            if not self._valid(candidate):
                if self.metrics.enabled:
                    self.metrics.inc("interleavings.invalid")
                continue
            if self.metrics.enabled:
                self.metrics.inc("interleavings.generated")
            yield candidate


class ERPiExplorer(Explorer):
    """ER-pi: grouping + minimal-change enumeration + pruning pipeline."""

    mode = "erpi"

    def __init__(
        self,
        events: Sequence[Event],
        meter: Optional[ResourceMeter] = None,
        spec_groups: Optional[Sequence[Tuple[str, str]]] = None,
        pruners: Optional[Iterable[Pruner]] = None,
        order: str = "relocation",
    ) -> None:
        super().__init__(events, meter)
        self.spec_groups = tuple(spec_groups or ())
        self.pipeline = PrunerPipeline(pruners or [])
        self.order = order
        self.grouping: GroupingResult = group_events(self.events, self.spec_groups)
        #: Observers evaluated on *every* generated candidate (pruned or not)
        #: without affecting which candidates are yielded — the soundness
        #: sanitizer's grouping auditor hooks in here.
        self.audit_pruners: List[Pruner] = []
        #: A pool hunt's state memo, consulted at replay time instead of
        #: pruning in the stream (see :mod:`repro.core.pipeline`).
        self.replay_memo: Optional[Pruner] = None

    def candidates(self) -> Iterator[Interleaving]:
        self.pipeline.reset()
        # The pipeline traces/counts through the explorer's observability
        # objects (prune:<algorithm> spans, pruned.<algorithm> counters).
        self.pipeline.tracer = self.tracer
        self.pipeline.metrics = self.metrics
        metrics = self.metrics
        for pruner in self.audit_pruners:
            pruner.reset()
        for interleaving in interleaving_stream(
            self.grouping.units,
            order=self.order,
            meter=self.meter,
            on_degrade=self._enumeration_degraded,
        ):
            # Validity comes before pruning: an invalid schedule (e.g. a
            # recover before its crash) must never become a class's seen
            # representative — the sanitizer replays pruned class members,
            # and an invalid representative would mask a valid one.
            if not self._valid(interleaving):
                if metrics.enabled:
                    metrics.inc("interleavings.invalid")
                continue
            for pruner in self.audit_pruners:
                pruner.is_redundant(interleaving)
            if self.pipeline.is_redundant(interleaving):
                # Pruned: never replayed, but the seen-set entry costs memory.
                self.meter.charge("erpi_seen", 16)
                # Counted as generated *after* the charge, so a budget crash
                # mid-charge does not break the exploration identity.
                if metrics.enabled:
                    metrics.inc("interleavings.generated")
                    metrics.inc("interleavings.pruned")
                continue
            self.meter.charge("erpi_seen", interleaving_footprint(len(self.events)))
            if metrics.enabled:
                metrics.inc("interleavings.generated")
            yield interleaving

    def sharded_candidates(
        self, router: object, worker_index: int
    ) -> Iterator[Optional[Interleaving]]:
        """Enumerate only this worker's shards without flattening the rest.

        The shard key is the first ``router.prefix_len`` event ids, which
        are fully determined by the *unit* permutation — so foreign
        candidates can be recognised from the leading units and skipped
        before flattening.  Pruners disqualify the fast path: a pruner sees
        (and may learn from) every candidate, so with pruners attached the
        stream falls back to the generate-then-filter default.

        Meter charges and generated-counts are identical to
        :meth:`candidates` for every stream position, so a budget crash or
        the parent's merge identity (``generated == pruned + replayed +
        quarantined + discarded``) cannot tell the two apart.
        """
        if (
            self.pipeline.pruners
            or self.audit_pruners
            # Instance-level candidates() instrumentation (crash-injection
            # wrappers, tracing shims) must keep seeing the stream; only an
            # unwrapped explorer may skip it.
            or "candidates" in self.__dict__
        ):
            yield from super().sharded_candidates(router, worker_index)
            return
        self.pipeline.reset()
        self.pipeline.tracer = self.tracer
        self.pipeline.metrics = self.metrics
        metrics = self.metrics
        footprint = interleaving_footprint(len(self.events))
        prefix_len = router.prefix_len
        for unit_perm in unit_permutation_stream(
            self.grouping.units,
            order=self.order,
            meter=self.meter,
            on_degrade=self._enumeration_degraded,
        ):
            flat: Optional[Interleaving] = None
            if self.order_constraints:
                flat = flatten(unit_perm)
                if not self._valid(flat):
                    if metrics.enabled:
                        metrics.inc("interleavings.invalid")
                    continue
            self.meter.charge("erpi_seen", footprint)
            if metrics.enabled:
                metrics.inc("interleavings.generated")
            key: List[str] = []
            for unit in unit_perm:
                for event in unit:
                    key.append(event.event_id)
                    if len(key) == prefix_len:
                        break
                if len(key) == prefix_len:
                    break
            if router.owner_of_key(tuple(key)) != worker_index:
                yield None
                continue
            yield flat if flat is not None else flatten(unit_perm)

    def bind_semantic(
        self, engines: Sequence[ReplayEngine], assertions: Sequence[Assertion]
    ) -> None:
        for pruner in [*self.pipeline.pruners, self.replay_memo]:
            bind = getattr(pruner, "bind", None)
            if callable(bind):
                bind(engines, assertions, meter=self.meter)

    def _enumeration_degraded(self, reason: str) -> None:
        """The relocation order's dedup set ran out of budget and the stream
        fell back to exact SJT minimal-change order — loud, not silent."""
        if self.metrics.enabled:
            self.metrics.inc("enumeration.degraded")
        if self.tracer.enabled:
            self.tracer.end(
                self.tracer.begin("enumeration-degraded"), reason=reason
            )

    def _pruning_stats(self) -> Dict[str, int]:
        stats: Dict[str, int] = {
            "event_grouping": self.grouping.raw_space - self.grouping.grouped_space
        }
        for name, pstats in self.pipeline.stats().items():
            stats[name] = pstats.pruned
        return stats
