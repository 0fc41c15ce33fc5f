"""Checkpointed hunt coordination (the fault-tolerant hunt).

:class:`~repro.core.procpool.ProcessParallelExplorer` commits verdicts in
candidate order and ends the hunt ``crashed`` on the first worker failure.
:class:`CoordinatedHuntExplorer` runs that same commit loop and plugs a
recovery policy into its hooks:

* a worker slot that dies — its pipe reaches EOF, which the kernel makes
  definitive even for a SIGKILL mid-batch, or the worker reports an error —
  is **re-leased**: a replacement worker is spawned for the same shard set
  at the commit watermark after an exponential backoff, with bounded
  retries;
* a slot that keeps dying past its re-lease budget → **the shard is
  quarantined, not the hunt** (the coordinator enumerates the dead slot's
  candidates itself and commits ``quarantine`` verdicts for them, letting
  every other shard finish);
* **work stealing**: once the fastest shard finishes, a live worker
  trailing the lead by ``steal_margin`` stream positions (reported by its
  heartbeats) is fenced and respawned at the commit watermark, so the
  trailing suffix runs at full speed on a fresh process;
* committed verdicts are checkpointed to a durable
  :class:`~repro.core.journal.HuntJournal` *as they commit*, so a killed
  parent can ``hunt --resume`` the journal: committed verdicts are replayed
  from the checkpoint, workers skip the committed prefix, and the hunt
  continues to the same final verdict map as an uninterrupted run.

Every slot incarnation is logged as a ``lease(slot, attempt, status)``
event: ``acquired`` (an original worker, or the replacement of a stolen
one, is up), ``expired`` (the worker died), ``re-leased`` (its replacement
is up), ``stolen`` and ``quarantined``.  The log lands in the result, the
journal and — through :func:`~repro.core.session.persist_exploration` —
the Datalog store.

Soundness of re-leased commits: candidate enumeration is a deterministic
function of the recorded events, every worker (original or replacement)
derives the identical stream and shard ownership, and the parent still
commits strictly in global candidate order, deduplicating re-delivered
results by candidate index (first delivery wins; replays are deterministic,
so duplicates are byte-identical).  A hunt whose worker was SIGKILLed
mid-batch therefore terminates with a verdict map bit-for-bit equal to an
uninterrupted serial hunt's.
"""

from __future__ import annotations

import uuid
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.errors import ResourceExhausted
from repro.core.explorers import DEFAULT_CAP, ExplorationResult, Explorer
from repro.core.journal import HuntJournal, JournaledOutcome
from repro.core.pipeline import WorkerTask, arm
from repro.core.procpool import (
    PrefixShardRouter,
    ProcessParallelExplorer,
    _Ledger,
    _stream_width,
    auto_prefix_len,
)
from repro.faults.quarantine import QuarantinedReplay
from repro.obs.metrics import MetricsRegistry

#: Worker heartbeat cadence (seconds) unless the caller picks one.  Steals
#: are decided from heartbeated progress, so this also sets steal latency.
DEFAULT_HEARTBEAT_S = 5.0 / 3.0


class CoordinatedHuntExplorer(ProcessParallelExplorer):
    """A process-pool hunt with durable checkpoints and shard re-leasing.

    Construction mirrors :class:`ProcessParallelExplorer` plus the
    coordination knobs; ``journal`` (a :class:`HuntJournal`) makes commits
    durable and, when the journal already holds commits, turns the run into
    a resume."""

    def __init__(
        self,
        base: Explorer,
        task: WorkerTask,
        workers: int = 2,
        journal: Optional[HuntJournal] = None,
        heartbeat_interval_s: Optional[float] = None,
        max_releases: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        checkpoint_every: int = 64,
        hunt_id: Optional[str] = None,
        steal_margin: Optional[int] = 512,
        **kwargs: Any,
    ) -> None:
        super().__init__(
            base,
            task,
            workers=workers,
            heartbeat_interval_s=(
                heartbeat_interval_s
                if heartbeat_interval_s is not None
                else DEFAULT_HEARTBEAT_S
            ),
            **kwargs,
        )
        self.journal = journal
        self.max_releases = max(0, max_releases)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.checkpoint_every = max(1, checkpoint_every)
        #: Work stealing: when a live, heartbeating worker trails the lead
        #: (the furthest final flush) by at least this many stream
        #: positions, the slot is fenced and respawned at the commit
        #: watermark, so a skewed shard's tail does not serialise the hunt.
        #: ``None`` or 0 disables stealing; each slot is stolen at most once
        #: per run.
        self.steal_margin = steal_margin
        if hunt_id is None and journal is not None:
            hunt_id = journal.header.get("hunt", {}).get("hunt_id")
        self.hunt_id = hunt_id or uuid.uuid4().hex[:12]
        self.mode = f"{base.mode}+coord{workers}"
        # Slot incarnations: which slots run a worker that is up, the
        # attempt number of each slot, why a slot's previous incarnation
        # was retired ("expired" or "stolen"), pending respawns, and
        # abandoned slots with their reasons.
        self._live: Set[int] = set()
        self._attempts: Dict[int, int] = {w: 1 for w in range(workers)}
        self._retired: Dict[int, str] = {}
        self._respawn_at: Dict[int, float] = {}
        self._abandoned: Dict[int, str] = {}
        self._lease_log: List[Tuple[int, int, str]] = []
        self._checkpoint_seq = 0
        self._since_checkpoint = 0
        # Work-stealing state: last heartbeated stream position per slot,
        # slots already stolen from, and the steal count for the summary.
        self._progress: Dict[int, int] = {}
        self._stolen: Set[int] = set()
        self._steals = 0
        # Parent-side owner stream (built lazily, only for abandoned slots).
        self._owner_candidates = None
        self._owner_router: Optional[PrefixShardRouter] = None
        self._owners: List[Optional[Tuple[int, Tuple[str, ...]]]] = []
        self._owner_exhausted = False
        self._owner_metrics: Optional[MetricsRegistry] = None
        # Resume state (filled from the journal's committed prefix).
        self._resumed: List[Dict[str, Any]] = (
            list(journal.commits) if journal is not None else []
        )
        if journal is not None:
            journal.reopen()

    # ------------------------------------------------------- incarnations

    def _metric(self, name: str, value: int = 1) -> None:
        metrics = self.base.metrics
        if metrics.enabled:
            metrics.inc(name, value)

    def _record_lease(self, slot: int, status: str) -> None:
        attempt = self._attempts[slot]
        self._lease_log.append((slot, attempt, status))
        if self.journal is not None:
            self.journal.lease(slot, attempt, status)
        self._metric(f"coordinator.leases.{status}")

    def prestart(
        self, cap: int = DEFAULT_CAP, stop_on_violation: bool = True
    ) -> None:
        super().prestart(cap=cap, stop_on_violation=stop_on_violation)
        for widx in range(self.workers):
            self._live.add(widx)
            self._record_lease(widx, "acquired")

    def _on_ready(self, widx: int) -> None:
        # A replacement worker finished bootstrapping mid-run.
        if widx in self._live or widx in self._abandoned:
            return
        self._live.add(widx)
        self._record_lease(
            widx, "acquired" if self._retired.get(widx) == "stolen" else "re-leased"
        )

    def _on_heartbeat(self, widx: int, yields: int) -> None:
        self._progress[widx] = yields

    def _schedule_release(
        self, widx: int, reason: str, status: str = "expired"
    ) -> None:
        """Fence a dead or stolen slot and queue its respawn (with
        backoff), or abandon the shard once the retry budget is exhausted."""
        if widx in self._abandoned or widx in self._respawn_at:
            return
        proc = self._procs[widx]
        if proc.is_alive():
            proc.terminate()  # fencing: the slot's incarnation is over
        self._live.discard(widx)
        self._record_lease(widx, status)
        attempt = self._attempts[widx]
        if attempt > self.max_releases:
            self._abandon(widx, reason)
            return
        backoff = min(
            self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_cap_s
        )
        self._attempts[widx] = attempt + 1
        self._retired[widx] = status
        self._respawn_at[widx] = self.clock() + backoff

    def _respawn_due(self) -> None:
        for widx in [
            w for w, at in self._respawn_at.items() if self.clock() >= at
        ]:
            del self._respawn_at[widx]
            tracer = self.base.tracer
            span = tracer.begin("respawn") if tracer.enabled else None
            watermark = self._ledger.next_index
            self._procs[widx] = self._spawn_worker(
                widx, skip_below=watermark, attempt=self._attempts[widx]
            )
            if self._retired[widx] == "expired":
                self._metric("coordinator.releases")
            if span is not None:
                tracer.end(
                    span,
                    slot=widx,
                    attempt=self._attempts[widx],
                    skip_below=watermark,
                )

    def _abandon(self, widx: int, reason: str) -> None:
        self._abandoned[widx] = reason
        self._live.discard(widx)
        self._record_lease(widx, "quarantined")
        self._metric("coordinator.shards.quarantined")

    def _maybe_steal(self, finals: Dict[int, Dict[str, Any]]) -> None:
        """Steal from a worker trailing the lead past the margin.

        Skew shows up once the fastest shard finishes: its final flush
        fixes the lead position, and a live laggard that has heartbeated at
        least once (no spurious steal before the first beat) and trails by
        ``steal_margin`` stream positions gets fenced and respawned at the
        commit watermark — running the stolen suffix at full speed on a
        fresh process.  Dedup-by-index keeps the verdict map identical no
        matter how the original's in-flight frames interleave with the
        thief's.
        """
        margin = self.steal_margin
        if not margin or not finals:
            return
        lead = max(flush["yields"] for flush in finals.values())
        for widx in range(self.workers):
            if (
                widx in finals
                or widx in self._stolen
                or widx not in self._live
            ):
                continue
            progress = self._progress.get(widx)
            if progress is None or lead - progress < margin:
                continue
            self._stolen.add(widx)
            self._steals += 1
            self._metric("coordinator.steals")
            self._schedule_release(
                widx,
                f"worker {widx} trailing the lead by "
                f"{lead - progress} stream positions",
                status="stolen",
            )

    # ------------------------------------------------- commit-loop hooks

    def _preload(self, ledger: _Ledger) -> None:
        """Replay the journal's committed prefix (resume)."""
        self._since_checkpoint = 0
        metrics = self.base.metrics
        for record in self._resumed:
            verdict = record["verdict"]
            il_key = record["il"]
            ledger.next_index += 1
            if metrics.enabled:
                metrics.inc("coordinator.commits.resumed")
            ledger.verdicts[il_key] = verdict
            ledger.explored += 1
            event_ids = tuple(il_key.split("|")) if il_key else ()
            if verdict == "quarantine":
                if metrics.enabled:
                    metrics.inc("interleavings.quarantined")
                ledger.quarantined.append(
                    QuarantinedReplay(
                        interleaving=event_ids,
                        error_type=record.get("error", "unknown"),
                        message="(resumed from journal)",
                        traceback="",
                        fault_plan=self.base.fault_plan_description,
                    )
                )
                continue
            if metrics.enabled:
                metrics.inc("interleavings.replayed")
            if verdict == "violation":
                ledger.violating = JournaledOutcome(
                    event_ids,
                    record.get("messages", ["(violation resumed from journal)"]),
                )

    def _on_commit(self, index: int, verdict: str, il_key: str, **fields) -> None:
        journal = self.journal
        if journal is None:
            return
        journal.commit(index=index, verdict=verdict, il_key=il_key, **fields)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self._checkpoint(index + 1)
            self._since_checkpoint = 0

    def _abandoned_record(self, index: int) -> Optional[Tuple[int, str, Any]]:
        if not self._abandoned:
            return None
        owned = self._owner_of(index)
        if owned is None or owned[0] not in self._abandoned:
            return None
        slot, il_ids = owned
        return (
            index,
            "quarantine",
            QuarantinedReplay(
                interleaving=il_ids,
                error_type="ShardAbandoned",
                message=self._abandoned[slot],
                traceback="",
                fault_plan=self.base.fault_plan_description,
                shard=slot,
            ),
        )

    def _recover(self, widx: int, reason: str) -> bool:
        self._schedule_release(widx, reason)
        return True

    def _dead_worker_index(self, finals) -> Optional[int]:
        # A slot already abandoned or awaiting its backoff respawn is not
        # "dead": its recovery is in flight.
        for widx in sorted(self._eof):
            if (
                widx in finals
                or widx in self._abandoned
                or widx in self._respawn_at
            ):
                continue
            return widx
        return None

    def _settled(self, finals: Dict[int, Dict[str, Any]]) -> bool:
        if self._respawn_at or any(
            w not in finals for w in range(self.workers) if w not in self._abandoned
        ):
            return False
        # Only abandoned-shard commits can remain; they drain through the
        # commit loop until the owner stream ends.
        return not self._abandoned or self._owner_of(self._ledger.next_index) is None

    def _tick(self, finals: Dict[int, Dict[str, Any]], idle: bool) -> None:
        self._respawn_due()
        if idle:
            self._maybe_steal(finals)

    # ------------------------------------------------- parent owner stream

    def _ensure_owner_stream(self) -> None:
        if self._owner_candidates is not None:
            return
        explorer, engine, assertions, _audit = self.task.build()
        if self.base.metrics.enabled:
            self._owner_metrics = MetricsRegistry()
        # Armed like a worker's stream, so its pruning decisions match theirs.
        arm(explorer, engine, assertions, metrics=self._owner_metrics)
        prefix_len = self.prefix_len or auto_prefix_len(
            _stream_width(explorer), self.workers
        )
        self._owner_router = PrefixShardRouter(self.workers, prefix_len)
        self._owner_candidates = explorer.candidates()

    def _owner_of(self, index: int) -> Optional[Tuple[int, Tuple[str, ...]]]:
        """(owner slot, event ids) of global candidate ``index``; None when
        the stream (or the cap) ends first."""
        if index >= (self._cap or 0):
            return None
        self._ensure_owner_stream()
        while len(self._owners) <= index and not self._owner_exhausted:
            if len(self._owners) >= self._cap:
                break
            try:
                interleaving = next(self._owner_candidates, None)
            except ResourceExhausted:
                interleaving = None
            if interleaving is None:
                self._owner_exhausted = True
                break
            self._owners.append(
                (
                    self._owner_router.owner(interleaving),
                    tuple(event.event_id for event in interleaving),
                )
            )
        if index < len(self._owners):
            return self._owners[index]
        return None

    # ------------------------------------------------------------- finish

    def _checkpoint(self, committed: int) -> None:
        tracer = self.base.tracer
        span = tracer.begin("checkpoint") if tracer.enabled else None
        self._checkpoint_seq += 1
        self.journal.checkpoint(self._checkpoint_seq, committed)
        self._metric("coordinator.checkpoints")
        if span is not None:
            tracer.end(span, seq=self._checkpoint_seq, committed=committed)

    def coordination_summary(self) -> Dict[str, Any]:
        return {
            "hunt_id": self.hunt_id,
            "lease_events": list(self._lease_log),
            "releases": sum(
                1 for _, _, status in self._lease_log if status == "re-leased"
            ),
            "abandoned_shards": sorted(self._abandoned),
            "steals": self._steals,
            "checkpoints": self._checkpoint_seq,
            "resumed_commits": len(self._resumed),
            "journal": self.journal.path if self.journal is not None else None,
        }

    def _result(
        self,
        ledger: _Ledger,
        started: float,
        crash_reason: Optional[str],
        finals: Dict[int, Dict[str, Any]],
    ) -> ExplorationResult:
        journal = self.journal
        if journal is not None:
            self._checkpoint(ledger.explored)  # compact the tail
            journal.final(
                found=ledger.violating is not None,
                explored=ledger.explored,
                crashed=crash_reason is not None,
                crash_reason=crash_reason,
            )
            journal.close()
        result = super()._result(ledger, started, crash_reason, finals)
        result.coordination = self.coordination_summary()
        return result

    # --------------------------------------------------------------- merge

    def _merge_metrics(self, metrics, finals, committed: int) -> None:
        canonical = self._canonical_flush(finals)
        parent_enumerated = (
            len(self._owners) if self._owner_metrics is not None else None
        )
        if canonical is not None and (
            parent_enumerated is None or canonical["yields"] >= parent_enumerated
        ):
            super()._merge_metrics(metrics, finals, committed)
            return
        # The parent's own enumeration (for abandoned-shard commits) went
        # furthest — every live worker died or stopped short — so its
        # stream-side counters are the superset.
        if self._owner_metrics is not None:
            metrics.merge_payload(self._owner_metrics.to_payload())
        for flush in list(finals.values()) + self._stale_finals:
            if flush["replay"] is not None:
                metrics.merge_payload(flush["replay"])
        discarded = (parent_enumerated or 0) - committed
        if discarded > 0:
            metrics.inc("interleavings.discarded", discarded)
