"""The replay engine: execute interleavings against checkpointed replicas.

For each interleaving (paper section 4.3) the engine restores the
checkpointed initial state, re-invokes the recorded events in order (an RDL
error is *data* — it feeds failed-ops pruning — not an engine failure), runs
the per-interleaving assertions and reports an :class:`InterleavingOutcome`.
Every replay goes through one routine with one suffix loop; see
:class:`ReplayEngine` for its start points and boundary hooks.

Two executors enforce the event order: :class:`SequentialExecutor` (the
default) has the engine's loop run events in-line — deterministic, and
correct because the simulated cluster is single-process — while
:class:`LockSteppedExecutor` runs one worker thread per replica, released
in event order by the Redis-backed distributed lock
(:class:`~repro.redisim.lock.SequenceGate`) exactly as the paper's
middleware orders events across real machines.

Prefix-reuse replay
-------------------

With the paper's minimal-change (SJT) enumeration, consecutive candidates
differ by one adjacent transposition, so most of each replay re-executes a
prefix an earlier replay already executed.  :class:`PrefixSnapshotCache`
keeps, after each executed event, a snapshot of the *one replica that
event touched* (plus the transport, for sync events) keyed by the event-id
prefix; the next candidate adopts its longest cached prefix and executes
only the suffix.  Snapshots are shared structurally between entries and
reference-counted, so the cache's real retained bytes can be charged to —
and released from — a :class:`~repro.core.resources.ResourceMeter`,
keeping the Figure-10 succeed-or-crash semantics honest.  A ``SYNC_REQ``
never changes the sender's RDL state, so its entry shares the previous RDL
snapshot and pays only for the host's two sync counters.

Soundness: prefix reuse requires that replaying an event sequence from the
checkpoint is a pure function of the sequence.  That holds exactly when
events run through the :class:`SequentialExecutor`, the network is
deterministic (FIFO, no random drops or duplicates: a lossy transport
consumes its seeded RNG monotonically across replays) and the interleaving
holds no fault event.  Otherwise the replay restores in full — results are
identical either way, only slower.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ReplayError
from repro.core.events import Event, EventKind, assign_lamport
from repro.core.interleavings import Interleaving
from repro.core.resources import ResourceMeter, deep_footprint
from repro.crdt.base import CRDTError
from repro.faults.errors import ReplayTimeout
from repro.net.cluster import Cluster
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.rdl.base import RDLError
from repro.redisim.errors import LockError
from repro.redisim.farm import RedisimFarm
from repro.redisim.lock import SequenceGate


@dataclass(slots=True)
class EventResult:
    """What happened when one event replayed."""

    event: Event
    lamport: int
    ok: bool
    result: Any = None
    error: Optional[str] = None


class InterleavingOutcome:
    """The full result of replaying one interleaving.

    ``states`` may be constructed lazily: a replay that started from the
    prefix cache passes a zero-argument thunk over copy-on-write state views
    instead of every replica's observable value — most assertions never
    read final states, so the work is done only on first access.
    """

    __slots__ = ("interleaving", "event_results", "_states", "violations", "duration_s")

    def __init__(
        self,
        interleaving: Interleaving,
        event_results: List[EventResult],
        states: Any,
        violations: List[str],
        duration_s: float,
    ) -> None:
        self.interleaving = interleaving
        self.event_results = event_results
        self._states = states
        self.violations = violations
        self.duration_s = duration_s

    @property
    def states(self) -> Dict[str, Any]:
        states = self._states
        if callable(states):
            states = self._states = states()
        return states

    def __getstate__(self):
        # Pickling (process-backed exploration ships violating outcomes over
        # IPC) must force the lazy state thunk: the closure holds live
        # copy-on-write views of the worker's cluster, which neither pickle
        # nor mean anything in another process.
        return (
            self.interleaving,
            self.event_results,
            self.states,
            self.violations,
            self.duration_s,
        )

    def __setstate__(self, state) -> None:
        (
            self.interleaving,
            self.event_results,
            self._states,
            self.violations,
            self.duration_s,
        ) = state

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    @property
    def failed_ops(self) -> List[EventResult]:
        return [res for res in self.event_results if not res.ok]

    def reads(self) -> Dict[str, Any]:
        """event_id -> result for every READ event (what the app observed)."""
        return {
            res.event.event_id: res.result
            for res in self.event_results
            if res.event.kind == EventKind.READ
        }


#: An assertion takes the outcome-so-far (results + final states) and returns
#: a violation message, or None when satisfied.
Assertion = Callable[["InterleavingOutcome"], Optional[str]]


class SequentialExecutor:
    """Run the events of an interleaving in-line, in order.

    The replay engine's own loop runs them; this executor carries its
    configuration.  ``timeout_s`` arms a per-replay wall-clock watchdog:
    when a replay's elapsed time exceeds it, :class:`ReplayTimeout` is
    raised between events (cooperative — a single wedged subject call
    cannot be interrupted, but a slow or looping replay is cut off at the
    next event boundary and quarantined by the explorer).
    """

    def __init__(self, timeout_s: Optional[float] = None) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s


class LockSteppedExecutor:
    """One worker per replica; the distributed lock releases them in order.

    Demonstrates (and tests) the paper's Redis-mutex ordering mechanism: each
    worker owns the events of one replica and may only execute its next event
    when the shared cursor — maintained under the Redlock mutex on a farm of
    redisim instances — reaches that event's global position.
    """

    def __init__(
        self,
        farm: Optional[RedisimFarm] = None,
        timeout_s: float = 30.0,
        gate_retries: int = 2,
        gate_backoff_s: float = 0.05,
    ) -> None:
        self.farm = farm or RedisimFarm(size=3, name_prefix="erpi-lock")
        self.timeout_s = timeout_s
        #: Transient SequenceGate acquisition failures (a quorum blip on the
        #: redisim farm) are retried this many times with exponential
        #: backoff before the replay is declared failed.
        self.gate_retries = max(gate_retries, 0)
        self.gate_backoff_s = gate_backoff_s
        self._session_counter = 0

    def _wait_for_turn(self, gate: SequenceGate, position: int) -> None:
        delay = self.gate_backoff_s
        for attempt in range(self.gate_retries + 1):
            try:
                gate.wait_for_turn(position, timeout_s=self.timeout_s)
                return
            except LockError:
                if attempt == self.gate_retries:
                    raise
                time.sleep(delay)
                delay *= 2

    def run(self, cluster: Cluster, interleaving: Interleaving) -> List[EventResult]:
        self._session_counter += 1
        gate = SequenceGate(self.farm, session_id=f"replay-{self._session_counter}")
        stamped = list(assign_lamport(interleaving))
        slots: List[Optional[EventResult]] = [None] * len(stamped)
        per_replica: Dict[str, List[int]] = {}
        for position, item in enumerate(stamped):
            per_replica.setdefault(item.event.replica_id, []).append(position)
        errors: List[BaseException] = []

        def worker(positions: List[int]) -> None:
            try:
                for position in positions:
                    self._wait_for_turn(gate, position)
                    item = stamped[position]
                    slots[position] = _invoke(cluster, item.event, item.lamport)
                    gate.complete_turn(position)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            (replica_id, threading.Thread(target=worker, args=(positions,), daemon=True))
            for replica_id, positions in per_replica.items()
        ]
        for _, thread in threads:
            thread.start()
        deadline = time.monotonic() + self.timeout_s * (len(stamped) + 1)
        stuck: List[str] = []
        for replica_id, thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))
            if thread.is_alive():
                stuck.append(replica_id)
        if errors:
            raise ReplayError(f"lock-stepped replay failed: {errors[0]!r}") from errors[0]
        if stuck:
            raise ReplayError(
                "lock-stepped replay timed out after "
                f"{self.timeout_s * (len(stamped) + 1):.1f}s; "
                f"stuck replica worker(s): {', '.join(sorted(stuck))}"
            )
        if any(slot is None for slot in slots):
            raise ReplayError("lock-stepped replay did not complete every event")
        return [slot for slot in slots if slot is not None]


def _invoke(cluster: Cluster, event: Event, lamport: int) -> EventResult:
    """Re-invoke one recorded event against the cluster."""
    try:
        kind = event.kind
        if kind is EventKind.SYNC_REQ:
            result = cluster.send_sync(event.from_replica, event.to_replica)
        elif kind is EventKind.EXEC_SYNC:
            result = cluster.execute_sync(event.from_replica, event.to_replica)
        elif kind is EventKind.CRASH:
            cluster.crash(event.replica_id)
            result = True
        elif kind is EventKind.RECOVER:
            cluster.recover(event.replica_id)
            result = True
        elif kind is EventKind.PARTITION:
            cluster.partition(event.from_replica, event.to_replica)
            result = True
        elif kind is EventKind.HEAL:
            cluster.heal(event.from_replica, event.to_replica)
            result = True
        else:
            # An op against a crashed replica raises ReplicaDownError —
            # recorded below as a failed op, like the real library's client
            # erroring out against a dead process.
            host = cluster.host(event.replica_id)
            host.require_up()
            rdl = host.rdl
            method = getattr(rdl, event.op_name, None)
            if method is None or not callable(method):
                raise ReplayError(
                    f"replica {event.replica_id!r} has no method {event.op_name!r}"
                )
            # Ops mutate the RDL directly (not through the cluster's sync
            # methods), so the digest invalidation happens here — before the
            # call, so a partially-applied failing op can never leave a stale
            # cached digest behind.  READs invalidate too: the footprint
            # model already treats every local op as a replica write because
            # subjects mutate on read (Roshi's select/score read-repair).
            host.invalidate_digest()
            if event.kwargs:
                result = method(*event.args, **dict(event.kwargs))
            else:
                result = method(*event.args)
        return EventResult(event=event, lamport=lamport, ok=True, result=result)
    except (RDLError, CRDTError, KeyError, IndexError, ValueError) as exc:
        # The library (or the data structure beneath it) rejected the op
        # under this ordering: that is exactly the kind of behaviour ER-pi
        # exists to surface.  Record it as a failed op and keep replaying.
        return EventResult(
            event=event, lamport=lamport, ok=False, error=f"{type(exc).__name__}: {exc}"
        )


# --------------------------------------------------------------------------
# Prefix snapshot cache
# --------------------------------------------------------------------------


class _Snap:
    """A reference-counted stored snapshot (one replica, or the transport).

    Entries share these structurally: an entry only introduces a new snap for
    the replica its last event touched, so the retained-byte accounting must
    count each snap once, however many entries reference it.
    """

    __slots__ = ("data", "nbytes", "refs")

    def __init__(self, data: Any, nbytes: int) -> None:
        self.data = data
        self.nbytes = nbytes
        self.refs = 0


#: Per-replica cache record: (RDL-state snap, applied_syncs, sent_syncs).
#: The counters live outside the refcounted snap so entries that only bump a
#: counter (``SYNC_REQ`` on the sender) can share the RDL snapshot.
_ReplicaRecord = Tuple[_Snap, int, int]

#: A replay-loop boundary hook, run as ``hook(position, event, result)``.
_Hook = Callable[[int, Event, EventResult], None]


class _RootEntry:
    """The trie root: full cluster state at the checkpoint.

    The only entry that carries a snapshot for *every* replica — all other
    entries are deltas against their parent chain.
    """

    __slots__ = ("entry_id", "replica_snaps", "transport_snap")

    def __init__(
        self,
        entry_id: int,
        replica_snaps: Dict[str, _ReplicaRecord],
        transport_snap: _Snap,
    ) -> None:
        self.entry_id = entry_id
        self.replica_snaps = replica_snaps
        self.transport_snap = transport_snap


class _CacheEntry:
    """The *delta* one event applied on top of its parent prefix.

    Entries form a trie: each is stored under ``(parent.entry_id,
    last_event_id)``, so extending a prefix by one event is a single dict
    lookup with an O(1) hash — no event-id tuples to slice or hash.  An
    entry records only what its own event changed: the event's result, the
    touched replica's snapshot + sync counters (``rid is None`` for a READ),
    and a transport snapshot for sync events.  A cache hit walks the parent
    chain once to assemble the full prefix state; storing an entry is O(1).
    """

    __slots__ = (
        "entry_id",
        "key",
        "parent",
        "result",
        "rid",
        "snap",
        "applied_syncs",
        "sent_syncs",
        "transport_snap",
    )

    def __init__(
        self,
        entry_id: int,
        key: Tuple[int, str],
        parent: Any,
        result: EventResult,
        rid: Optional[str],
        snap: Optional[_Snap],
        applied_syncs: int,
        sent_syncs: int,
        transport_snap: Optional[_Snap],
    ) -> None:
        self.entry_id = entry_id
        self.key = key
        self.parent = parent
        self.result = result
        self.rid = rid
        self.snap = snap
        self.applied_syncs = applied_syncs
        self.sent_syncs = sent_syncs
        self.transport_snap = transport_snap


@dataclass
class PrefixCacheStats:
    """Observability counters for the prefix snapshot cache."""

    replays: int = 0
    hits: int = 0
    events_reused: int = 0
    events_executed: int = 0
    entries: int = 0
    evictions: int = 0
    retained_bytes: int = 0

    @property
    def reuse_fraction(self) -> float:
        total = self.events_reused + self.events_executed
        return self.events_reused / total if total else 0.0


class PrefixSnapshotCache:
    """Generational cache of cluster snapshots keyed by event-id prefixes.

    ``max_entries`` bounds the number of retained prefixes; retained bytes
    are charged to ``meter`` (category ``"prefix_cache"``) when one is
    attached, and released as entries are evicted, so a budget-limited run
    crashes honestly if the cache outgrows the machine.

    Eviction is generational: when the cache fills, every entry (except the
    root) is dropped at once and the next replays repopulate it.  Per-entry
    LRU bookkeeping costs more than it saves here — the enumeration orders
    replay near-neighbourhoods, so recently stored prefixes dominate hits
    and a full clear loses at most one neighbourhood's worth of reuse.
    """

    CATEGORY = "prefix_cache"

    def __init__(
        self,
        meter: Optional[ResourceMeter] = None,
        max_entries: int = 8192,
    ) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.meter = meter
        self.max_entries = max_entries
        self.stats = PrefixCacheStats()
        self._entries: Dict[Tuple[int, str], _CacheEntry] = {}
        self._next_id = 0
        self.root: Optional[_RootEntry] = None
        #: Absolute transport counters at the checkpoint (root) state.
        self.baseline: Tuple[int, int, int, int] = (0, 0, 0, 0)

    # ------------------------------------------------------------- plumbing

    def make_snap(self, data: Any) -> _Snap:
        # Footprint walks are only worth their cost when someone meters them.
        nbytes = deep_footprint(data) if self.meter is not None else 0
        return _Snap(data, nbytes)

    def next_id(self) -> int:
        """A fresh entry id (trie node identity for child keys)."""
        self._next_id += 1
        return self._next_id

    def _acquire(self, snap: _Snap) -> None:
        # Unmetered snaps have nbytes == 0: nothing to account, skip.
        if not snap.nbytes:
            return
        snap.refs += 1
        if snap.refs == 1:
            self.stats.retained_bytes += snap.nbytes
            if self.meter is not None:
                self.meter.charge(self.CATEGORY, snap.nbytes)

    def _release(self, snap: _Snap) -> None:
        if not snap.nbytes:
            return
        snap.refs -= 1
        if snap.refs == 0:
            self.stats.retained_bytes -= snap.nbytes
            if self.meter is not None:
                self.meter.release(self.CATEGORY, snap.nbytes)

    def _entry_snaps(self, entry: _CacheEntry) -> List[_Snap]:
        return [snap for snap in (entry.snap, entry.transport_snap) if snap]

    # ------------------------------------------------------------------ api

    def set_root(self, entry: _RootEntry, baseline: Tuple[int, int, int, int]) -> None:
        """Install the checkpoint-state entry (never evicted)."""
        if self.root is not None:
            self.clear()
        for record in entry.replica_snaps.values():
            self._acquire(record[0])
        self._acquire(entry.transport_snap)
        self.root = entry
        self.baseline = baseline

    def put(self, entry: _CacheEntry) -> None:
        """Insert an entry, charging the meter; a full cache drops its whole
        generation first.  A mid-insert budget crash rolls the entry back.

        Without a meter every snap's footprint is zero, so the refcount
        bookkeeping is an observable no-op and is skipped entirely.
        """
        entries = self._entries
        if self.max_entries == 0 or entry.key in entries:
            return
        stats = self.stats
        metered = self.meter is not None
        if len(entries) >= self.max_entries:
            if metered:
                for evicted in entries.values():
                    for snap in self._entry_snaps(evicted):
                        self._release(snap)
            stats.evictions += len(entries)
            entries.clear()
        if metered:
            acquired: List[_Snap] = []
            try:
                for snap in self._entry_snaps(entry):
                    self._acquire(snap)
                    acquired.append(snap)
            except Exception:
                for snap in acquired:
                    self._release(snap)
                raise
        entries[entry.key] = entry
        stats.entries = len(entries)

    def clear(self) -> None:
        """Drop every entry (including the root), releasing all charges."""
        for entry in self._entries.values():
            for snap in self._entry_snaps(entry):
                self._release(snap)
        self._entries.clear()
        root = self.root
        if root is not None:
            for record in root.replica_snaps.values():
                self._release(record[0])
            self._release(root.transport_snap)
            self.root = None
        self.stats.entries = 0

    def __len__(self) -> int:
        return len(self._entries)


class ReplayEngine:
    """Checkpoint/replay/assert driver over a cluster.

    ``replay`` and ``replay_fresh`` (the sanitizer's ground truth) share
    one prologue, one assertion loop and one routine, :meth:`_run`:

    1. *Start point.*  ``replay`` walks the prefix trie to the longest
       cached prefix and adopts it when a cache is attached and replay is
       pure (:meth:`prefix_cache_active`); a bound state memo also needs
       every transition of the interleaving memoised.  Otherwise, and
       always for ``replay_fresh``, the checkpoint is restored in full.
    2. *Suffix loop.*  Before each remaining event the watchdog is checked
       and, after a cached start only, a replica borrowed from a cached
       snapshot is materialised before its first mutation (copy-on-write).
       After each event one boundary hook, chosen once per replay, runs:
       after a cached start it stores the new prefix's cache entry; after a
       full restore under the memo it updates the incremental digests and
       the transition memo and reports the event's write set to DPOR.
       A :class:`LockSteppedExecutor` runs this step through its own
       ``run``.
    3. *Epilogue.*  Transport deltas and the suppressed-send count; final
       states as lazy copy-on-write views after a cached start, eager
       values after a full restore; the memo's record of the replay.

    Every replay that started from the cache is offered to the shadow
    sanitizer.  While a cache is active the engine must be the only writer
    to its cluster between ``checkpoint()`` and the final ``restore()``.
    """

    def __init__(
        self,
        cluster: Cluster,
        executor: Optional[Any] = None,
        prefix_cache: Optional[PrefixSnapshotCache] = None,
    ) -> None:
        self.cluster = cluster
        self.executor = executor or SequentialExecutor()
        self.prefix_cache = prefix_cache
        #: Optional online cross-checker (see repro.core.sanitizer): when
        #: attached, a configurable fraction of replays that started from
        #: the prefix cache are shadow-replayed from scratch and diffed.
        self.sanitizer: Optional[Any] = None
        #: Semantic pruning hooks (see repro.core.pruning.semantic).  When a
        #: :class:`StateMemoPruner` is bound, memo-eligible replays capture
        #: the cluster digest at every event boundary and feed it; a bound
        #: ``footprint_observer`` (the DPOR pruner) receives each event's
        #: observed write set for model validation.
        self.state_memo: Optional[Any] = None
        self.footprint_observer: Optional[Any] = None
        self._checkpoint: Optional[Dict[str, Any]] = None
        # Fault-injection bookkeeping: the checkpoint's partition topology
        # (fault events may partition/heal mid-replay) and whether the last
        # replay ran fault events that must be reset before the next one.
        self._baseline_partitions: set = set()
        self._fault_dirty = False
        #: Transport counter deltas for the most recent replay
        #: (sent, dropped, delivered, duplicated).
        self.last_transport_stats: Tuple[int, int, int, int] = (0, 0, 0, 0)
        #: Sends the network suppressed (partition / drop) during the most
        #: recent replay.
        self.last_suppressed_count: int = 0
        #: Observability (see repro.obs): the shared null objects unless an
        #: observed run swaps real ones in.
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        # Live-state version tracking: maps replica id -> the _Snap whose RDL
        # state the replica currently holds (None/missing = unknown/dirty).
        # Sync counters are not tracked — they are two ints, always restored.
        self._live_rdl: Dict[str, Optional[_Snap]] = {}
        self._live_transport: Optional[_Snap] = None
        # Incremental-digest state for memo replays (see _digest_hook): the
        # checkpoint boundary's digests, the (digest, event-id) -> boundary
        # transition memo, both as (replica digests, combined, transport)
        # triples; the last cluster hit/miss counts already folded into
        # metrics; and the sound-or-off switch sampled verification flips.
        self._checkpoint_digests: Optional[Tuple[Dict[str, str], str, str]] = None
        self._digest_trie: Dict[Tuple[str, str], Tuple[Dict[str, str], str, str]] = {}
        self._digest_trie_limit = 200_000
        self._digest_reported: Tuple[int, int] = (0, 0)
        self._digest_replays = 0
        self._digest_exact = True

    def enable_prefix_cache(
        self,
        meter: Optional[ResourceMeter] = None,
        max_entries: int = 8192,
    ) -> PrefixSnapshotCache:
        """Attach (and return) a fresh :class:`PrefixSnapshotCache`."""
        self.prefix_cache = PrefixSnapshotCache(meter=meter, max_entries=max_entries)
        self._forget_live_versions()
        return self.prefix_cache

    def checkpoint(self) -> None:
        """Snapshot the replicas' current states as the replay baseline."""
        self._checkpoint = self.cluster.checkpoint()
        self._baseline_partitions = set(self.cluster.transport.conditions.partitions)
        self._fault_dirty = False
        if self.prefix_cache is not None:
            self.prefix_cache.clear()
        self._forget_live_versions()
        # A new baseline voids every memoised boundary digest.
        self._checkpoint_digests = None
        self._digest_trie.clear()
        self.cluster.invalidate_digests()

    def _impurity(self) -> Optional[str]:
        """Why replaying an event sequence is not a pure function of the
        sequence (see the module docstring), or None when it is."""
        if type(self.executor) is not SequentialExecutor:
            return f"executor {type(self.executor).__name__} is not sequential"
        conditions = self.cluster.transport.conditions
        if not conditions.fifo:
            return "transport is not FIFO"
        if conditions.drop_rate != 0 or conditions.duplicate_rate != 0:
            return "transport has random drops/duplicates"
        return None

    def prefix_cache_active(self) -> bool:
        """True when replays will actually use the prefix cache: one is
        attached, replay is pure (see :meth:`_impurity`), and every replica
        exposes its full state through the copy-on-write view protocol
        (see ``RDLReplica.supports_state_view``)."""
        return (
            self.prefix_cache is not None
            and self._impurity() is None
            and all(
                host.rdl.supports_state_view for host in self.cluster._hosts.values()
            )
        )

    def semantic_supported(self, require_digest: bool = True) -> bool:
        """True when semantic pruning may bind to this engine: replay is
        pure and, for the state memo (``require_digest``), every subject
        exposes ``canonical_state()`` so the cluster is digestible."""
        return self.semantic_unsupported_reason(require_digest) is None

    def semantic_unsupported_reason(
        self, require_digest: bool = True
    ) -> Optional[str]:
        """Why semantic pruning cannot bind here, or None when it can."""
        if self._checkpoint is None:
            return "no checkpoint taken"
        reason = self._impurity()
        if reason is not None:
            return reason
        if getattr(self.cluster.transport.conditions, "latency_ticks", 0):
            return "transport has delivery latency"
        if require_digest and self.cluster.state_digest() is None:
            return "a subject does not implement canonical_state()"
        return None

    def replay(
        self,
        interleaving: Interleaving,
        assertions: Sequence[Assertion] = (),
    ) -> InterleavingOutcome:
        """Replay one interleaving from the checkpoint and run assertions.

        When a tracer/metrics registry is attached this emits one ``replay``
        span (cache hit/miss/off, violation verdict, worker id) and updates
        the replay counters; with the null objects attached the observed
        wrapper is a single boolean check.
        """
        return self._replay("replay", interleaving, assertions, True)

    def replay_fresh(
        self,
        interleaving: Interleaving,
        assertions: Sequence[Assertion] = (),
    ) -> InterleavingOutcome:
        """A from-scratch replay that bypasses the prefix cache.

        Used by the differential sanitizer as its ground truth: the cluster
        is restored to the checkpoint and every event re-executes, whatever
        caches are attached.  Safe to interleave with cached replays — the
        engine's live-state tracking is invalidated so the next cached
        replay restores honestly.

        Observed runs emit a ``replay:fresh`` span per call (distinguishing
        sanitizer ground-truth replays from pipeline replays in traces).
        """
        return self._replay("replay:fresh", interleaving, assertions, False)

    def _replay(
        self,
        span_name: str,
        interleaving: Interleaving,
        assertions: Sequence[Assertion],
        reuse: bool,
    ) -> InterleavingOutcome:
        """The shared body of :meth:`replay` and :meth:`replay_fresh`."""
        if self._checkpoint is None:
            raise ReplayError("checkpoint() must be called before replaying")
        if self._fault_dirty:
            self._reset_fault_state()
        tracer = self.tracer
        span = tracer.begin(span_name) if tracer.enabled else None
        try:
            outcome, start = self._run(interleaving, reuse)
            if start != "off" and self.sanitizer is not None:
                self.sanitizer.maybe_check(self, interleaving, outcome)
            for assertion in assertions:
                message = assertion(outcome)
                if message is not None:
                    outcome.violations.append(message)
        except BaseException as exc:
            if span is not None:
                tracer.end(span, error=type(exc).__name__)
            raise
        if self.metrics.enabled:
            self._record_replay_metrics(self.metrics, outcome, start)
        if span is not None:
            tracer.end(span, cache=start, violated=outcome.violated)
        return outcome

    def _record_replay_metrics(
        self, metrics: Any, outcome: InterleavingOutcome, cache_state: str
    ) -> None:
        if cache_state == "hit":
            metrics.inc("replay.cache_hits")
        elif cache_state == "miss":
            metrics.inc("replay.cache_misses")
        else:
            metrics.inc("replay.fresh")
        sent, dropped, _delivered, _duplicated = self.last_transport_stats
        if sent:
            metrics.inc("messages.sent", sent)
        if dropped:
            metrics.inc("messages.dropped", dropped)
        if self.last_suppressed_count:
            metrics.inc("messages.suppressed", self.last_suppressed_count)
        hits = self.cluster.digest_hits
        misses = self.cluster.digest_misses
        reported_hits, reported_misses = self._digest_reported
        if hits > reported_hits:
            metrics.inc("digest.cache_hits", hits - reported_hits)
        if misses > reported_misses:
            metrics.inc("digest.cache_misses", misses - reported_misses)
        if (hits, misses) != (reported_hits, reported_misses):
            self._digest_reported = (hits, misses)
        metrics.observe("replay.duration_us", outcome.duration_s * 1e6)

    def restore(self) -> None:
        """Reset the cluster to the checkpoint (used after the final replay)."""
        if self._checkpoint is not None:
            self.cluster.restore(self._checkpoint)
            self._reset_fault_state()
        self._forget_live_versions()

    # ------------------------------------------------------------- internals

    def _forget_live_versions(self) -> None:
        self._live_rdl = {}
        self._live_transport = None

    def _reset_fault_state(self) -> None:
        """Undo what a fault-bearing replay left behind: bring every host
        back up and reinstate the checkpoint's partition topology."""
        for host in self.cluster._hosts.values():
            host.force_up()
        conditions = self.cluster.transport.conditions
        conditions.partitions.clear()
        conditions.partitions.update(self._baseline_partitions)
        self._fault_dirty = False

    def _run(
        self, interleaving: Interleaving, reuse: bool
    ) -> Tuple[InterleavingOutcome, str]:
        """The one replay routine: pick a start point, run the suffix loop,
        finish in one epilogue.  Returns the outcome and how the replay
        started — ``"hit"``/``"miss"`` from the prefix cache (a cached
        prefix was or was not found), ``"off"`` from a full restore.

        Every decision that depends only on the replay (start point, hook,
        memo mode) is made here once, outside the per-event loop.
        """
        cluster = self.cluster
        transport = cluster.transport
        executor = self.executor
        sequential = type(executor) is SequentialExecutor
        events = tuple(interleaving)  # the same object when already a tuple
        count = len(events)
        has_fault = any(event.is_fault for event in events)
        # Fault events make a replay impure (crashes lose volatile state,
        # partitions rewire the network): fault-bearing interleavings always
        # start from a full restore and feed no memo.
        reuse = reuse and sequential and not has_fault
        memo = self.state_memo if reuse else None
        if memo is not None and not memo.enabled:
            memo = None
        cache = self.prefix_cache if reuse and self.prefix_cache_active() else None
        chain = None
        if memo is not None:
            if cluster.digest_cache_enabled != self._digest_exact:
                if self._digest_exact:
                    # Recording is over once replays start: every mutation
                    # from here flows through the invalidation hooks, so
                    # per-replica digest caching becomes sound to switch on.
                    cluster.enable_digest_cache()
                else:
                    cluster.digest_cache_enabled = False
                    cluster.invalidate_digests()
            # A memo replay starts from the cache only when every boundary's
            # transition is already memoised (the digest sequence is then
            # known without a single canonical walk); otherwise it restores
            # in full and digests each boundary.
            chain = self._memo_chain(events) if cache is not None else None
            if chain is None:
                cache = None

        # -- 1. start point
        started = time.perf_counter()
        hook: Optional[_Hook] = None
        if cache is not None:
            depth, results, hook = self._adopt_prefix(cache, events)
            start = "hit" if depth else "miss"
            base_stats = cache.baseline
        else:
            depth, results, start = 0, [], "off"
            cluster.restore(self._checkpoint)
            self._forget_live_versions()
            # restore() resets the transport counters, so the baseline for
            # this replay's delta is taken after it.
            base_stats = transport.stats()
            if memo is not None:
                digests: List[str] = []
                hook, rdigests = self._digest_hook(digests)
        self._fault_dirty = has_fault  # set before the loop: a timeout leaves it dirty
        # A full restore clears the suppressed-send log; a cached start does
        # not, so this replay's share is the delta from here.
        suppressed_before = len(cluster.suppressed_sends)

        # -- 2. the suffix loop
        if sequential:
            hosts = cluster._hosts
            live = self._live_rdl if cache is not None else None
            read, sync_req = EventKind.READ, EventKind.SYNC_REQ
            exec_sync = EventKind.EXEC_SYNC
            timeout = executor.timeout_s
            deadline = None if timeout is None else time.monotonic() + timeout
            append = results.append
            for position in range(depth, count):
                if deadline is not None and time.monotonic() > deadline:
                    raise ReplayTimeout(
                        f"replay exceeded the {timeout}s watchdog after "
                        f"{position} of {count} events"
                    )
                event = events[position]
                kind = event.kind
                if live is not None and kind is not read:
                    # Copy-on-write: an UPDATE or EXEC_SYNC mutates the
                    # event's replica, so a state borrowed from a cached
                    # snapshot is materialised into a private copy first.
                    # A SYNC_REQ leaves the sender's RDL state untouched (it
                    # only enqueues a message and bumps sent_syncs) unless
                    # the subject declares ``mutates_on_push``.
                    rid = event.replica_id
                    if kind is not sync_req or getattr(
                        hosts[rid].rdl, "mutates_on_push", False
                    ):
                        snap = live.get(rid)
                        if snap is not None:
                            hosts[rid].rdl.restore(snap.data)
                            hosts[rid].digest_cache = None
                            live[rid] = None
                    if kind is sync_req or kind is exec_sync:
                        self._live_transport = None
                result = _invoke(cluster, event, position + 1)
                append(result)
                if hook is not None:
                    hook(position, event, result)
        else:
            results = executor.run(cluster, interleaving)

        # -- 3. epilogue
        if memo is not None and chain is None:
            # Before states(): reading a subject's value may touch its state
            # (Roshi's reads advance its farm bookkeeping), which a scratch
            # digest would then see.
            self._verify_digests(rdigests)
        self.last_transport_stats = tuple(
            now - base for now, base in zip(transport.stats(), base_stats)
        )
        self.last_suppressed_count = len(cluster.suppressed_sends) - suppressed_before
        duration = time.perf_counter() - started
        if cache is None:
            states: Any = cluster.states()
        else:
            cache.stats.entries = len(cache)
            states = self._state_views()
        outcome = InterleavingOutcome(
            interleaving=interleaving,
            event_results=results,
            states=states,
            violations=[],
            duration_s=duration,
        )
        if chain is not None:
            cluster.digest_hits += count
            observer = self.footprint_observer
            if observer is not None:
                for event, before, after in zip(events, chain, chain[1:]):
                    observer.observe_write_set(
                        event, [r for r, d in after[0].items() if before[0][r] != d]
                    )
            memo.record_replay(interleaving, outcome, [entry[1] for entry in chain])
        elif memo is not None:
            memo.record_replay(interleaving, outcome, digests)
        return outcome, start

    # --------------------------------------------------- prefix-cache start

    def _adopt_prefix(
        self, cache: PrefixSnapshotCache, events: Tuple[Event, ...]
    ) -> Tuple[int, List[EventResult], Optional[_Hook]]:
        """Adopt the longest cached proper prefix of ``events``.

        Returns its depth, its event results, and the boundary hook that
        stores every new proper prefix the suffix loop reaches (None when
        the cache stores nothing).
        """
        cluster = self.cluster
        count = len(events)
        root = cache.root
        if root is None:
            # The first cached replay snapshots the checkpoint as the root.
            cluster.restore(self._checkpoint)
            replica_snaps: Dict[str, _ReplicaRecord] = {}
            for rid in cluster.replica_ids():
                host = cluster.host(rid)
                snap = cache.make_snap(host.rdl.state_view())
                replica_snaps[rid] = (snap, host.applied_syncs, host.sent_syncs)
            transport_snap = cache.make_snap(cluster.transport.snapshot())
            root = _RootEntry(cache.next_id(), replica_snaps, transport_snap)
            cache.set_root(root, cluster.transport.stats())
            # The live cluster state is borrowed by the snapshots just taken:
            # the replay loop materialises a private copy before mutating.
            self._live_rdl = {rid: rec[0] for rid, rec in replica_snaps.items()}
            self._live_transport = transport_snap
        entry: Any = root
        depth = 0
        # Walk the entry trie forward, one (parent_id, event_id) lookup per
        # matched event.
        lookup = cache._entries.get
        limit = count - 1
        while depth < limit:
            child = lookup((entry.entry_id, events[depth].event_id))
            if child is None:
                break
            entry = child
            depth += 1

        # Assemble the matched prefix's state from the entry's parent chain:
        # entries are deltas, so the first record seen per replica walking
        # upward is that replica's newest snapshot (root fills in the rest).
        results: List[EventResult] = []
        records: Dict[str, _ReplicaRecord] = {}
        tsnap = None
        node = entry
        while node is not root:
            results.append(node.result)
            nrid = node.rid
            if nrid is not None and nrid not in records:
                records[nrid] = (node.snap, node.applied_syncs, node.sent_syncs)
            if tsnap is None:
                tsnap = node.transport_snap
            node = node.parent
        results.reverse()
        for rid, record in root.replica_snaps.items():
            if rid not in records:
                records[rid] = record
        if tsnap is None:
            tsnap = root.transport_snap

        # Restore only what differs from the live state, and even then only
        # by *adopting* the cached state by reference: the suffix loop
        # materialises a private copy right before the first mutation of
        # each replica (copy-on-write), so a replay pays at most one state
        # copy per mutating event — and none for replicas it never mutates.
        live = self._live_rdl
        hosts = cluster._hosts
        for rid, (snap, applied, sent) in records.items():
            host = hosts[rid]
            if live.get(rid) is not snap:
                host.rdl.adopt(snap.data)
                live[rid] = snap
                # Adoption swaps RDL state behind the cluster's back; any
                # cached digest is for the state being replaced.
                host.digest_cache = None
            host.applied_syncs = applied
            host.sent_syncs = sent
        if self._live_transport is not tsnap:
            cluster.transport.restore_snapshot(tsnap.data)
            self._live_transport = tsnap
            cluster._transport_digest_cache = None

        stats = cache.stats
        stats.replays += 1
        if depth:
            stats.hits += 1
        stats.events_reused += depth
        stats.events_executed += count - depth
        if cache.max_entries == 0:
            return depth, results, None
        return depth, results, self._store_hook(cache, entry, limit)

    def _store_hook(self, cache: PrefixSnapshotCache, entry: Any, limit: int) -> _Hook:
        """The cached start's boundary hook: store the prefix ending at each
        executed event as a child of the previous one.

        No lookup is needed before storing: the trie walk ended on a missing
        link, so no deeper node exists along this path, and every later
        parent id is freshly minted.
        """
        hosts = self.cluster._hosts
        transport = self.cluster.transport
        live = self._live_rdl
        make_snap = cache.make_snap
        next_id = cache.next_id
        entries = cache._entries
        metered = cache.meter is not None
        max_entries = cache.max_entries
        read, sync_req = EventKind.READ, EventKind.SYNC_REQ
        exec_sync = EventKind.EXEC_SYNC

        def store(position: int, event: Event, result: EventResult) -> None:
            nonlocal entry
            if position >= limit:
                return  # the whole interleaving is never a *proper* prefix
            key = (entry.entry_id, event.event_id)
            kind = event.kind
            if kind is read:
                entry = _CacheEntry(
                    next_id(), key, entry, result, None, None, 0, 0, None
                )
            else:
                rid = event.replica_id
                host = hosts[rid]
                snap = live.get(rid)
                if snap is None:
                    # Snapshot by reference (outer-shallow): the live state
                    # is borrowed until the next mutation materialises it.
                    snap = make_snap(host.rdl.state_view())
                    live[rid] = snap
                tsnap = None
                if kind is sync_req or kind is exec_sync:
                    tsnap = self._live_transport
                    if tsnap is None:
                        tsnap = make_snap(transport.snapshot())
                        self._live_transport = tsnap
                entry = _CacheEntry(
                    next_id(), key, entry, result, rid, snap,
                    host.applied_syncs, host.sent_syncs, tsnap,
                )
            # Unmetered inserts into a non-full cache skip put()'s charging
            # and eviction machinery; stats.entries is reconciled after the
            # loop.
            if metered or len(entries) >= max_entries:
                cache.put(entry)
            else:
                entries[key] = entry

        return store

    def _state_views(self) -> Callable[[], Dict[str, Any]]:
        """Final states after a cached start: a lazy thunk over copy-on-write
        views.  The views' containers are never mutated in place again
        (every later mutation materialises fresh containers first), so the
        thunk reads stable data whenever an assertion asks.  A replica whose
        live state is borrowed already has a stable view — its snap.  The
        thunk rebuilds a throwaway shell of each replica class around its
        view and asks it for ``value()``, read-only by the host protocol.
        """
        live = self._live_rdl
        views = {}
        for rid, host in self.cluster._hosts.items():
            snap = live.get(rid)
            view = snap.data if snap is not None else host.rdl.state_view()
            views[rid] = (type(host.rdl), view)

        def states() -> Dict[str, Any]:
            out = {}
            for rid, (cls, view) in views.items():
                shim = cls.__new__(cls)
                shim.__dict__.update(view)
                out[rid] = shim.value()
            return out

        return states

    # ----------------------------------------------------- memo digest hooks

    def _memo_chain(
        self, events: Tuple[Event, ...]
    ) -> Optional[List[Tuple[Dict[str, str], str, str]]]:
        """The checkpoint boundary followed by every event's memoised
        transition, or None when any boundary is not memoised yet."""
        base = self._checkpoint_digests
        if base is None or not self._digest_exact:
            return None
        chain = [base]
        node = base[1]
        get_transition = self._digest_trie.get
        for event in events:
            entry = get_transition((node, event.event_id))
            if entry is None:
                return None
            chain.append(entry)
            node = entry[1]
        return chain

    def _digest_hook(self, digests: List[str]) -> Tuple[_Hook, Dict[str, str]]:
        """Set up digesting after a full restore; return the boundary hook
        and the per-replica digests it keeps current.

        ``digests`` receives the combined digest (per-replica digests plus
        the transport's, as :meth:`Cluster.state_digest` builds it) of every
        boundary, ``digests[0]`` being the checkpoint's.  It is incremental:
        the cluster's digest cache makes only the replica an event touched
        pay a canonical walk, so the observed write set — which replicas'
        digests changed — is exact and goes to ``footprint_observer`` (DPOR
        falsifies its static model with it); the checkpoint's digests are
        computed once per checkpoint and re-primed after every restore; and
        a transition memo, ``(digest before, event id) -> digests after``,
        skips the walks when enumeration revisits a state (events still
        re-execute).  That memo rests on the memo pruner's own assumption:
        the same event from the same semantic state reaches the same state.
        """
        from repro.statehash import combine_digests

        cluster = self.cluster
        hosts = cluster._hosts
        rids = cluster.replica_ids()
        base = self._checkpoint_digests
        if base is None:
            rdigests = {rid: cluster.replica_state_digest(rid) for rid in rids}
            tdigest = cluster.transport_digest()
            combined = combine_digests([*rdigests.items(), ("#transport", tdigest)])
            if self._digest_exact:
                self._checkpoint_digests = (dict(rdigests), combined, tdigest)
        else:
            rdigests = dict(base[0])
            combined, tdigest = base[1], base[2]
            # restore() invalidated every host cache; the checkpoint values
            # are exactly what a fresh walk would recompute.
            for rid in rids:
                hosts[rid].digest_cache = rdigests[rid]
            cluster._transport_digest_cache = tdigest
        digests.append(combined)
        transitions = self._digest_trie if self._digest_exact else None
        observer = self.footprint_observer

        def digest(position: int, event: Event, result: EventResult) -> None:
            nonlocal tdigest
            changed: List[str] = []
            key = (digests[-1], event.event_id)
            entry = transitions.get(key) if transitions is not None else None
            if entry is not None:
                entry_rdigests, combined_digest, tdigest = entry
                for rid, value in entry_rdigests.items():
                    if value != rdigests[rid]:
                        rdigests[rid] = value
                        changed.append(rid)
                    # _invoke invalidated the touched replica's host cache;
                    # by the memo assumption the memoised transition value
                    # is its current digest.
                    hosts[rid].digest_cache = value
                cluster._transport_digest_cache = tdigest
                cluster.digest_hits += 1
            else:
                for rid in rids:
                    value = cluster.replica_state_digest(rid)
                    if value != rdigests[rid]:
                        rdigests[rid] = value
                        changed.append(rid)
                if event.is_sync:
                    tdigest = cluster.transport_digest()
                combined_digest = combine_digests(
                    [*rdigests.items(), ("#transport", tdigest)]
                )
                if transitions is not None:
                    if len(transitions) >= self._digest_trie_limit:
                        transitions.clear()
                    transitions[key] = (dict(rdigests), combined_digest, tdigest)
            digests.append(combined_digest)
            if observer is not None:
                observer.observe_write_set(event, changed)

        return digest, rdigests

    def _verify_digests(self, rdigests: Dict[str, str]) -> None:
        """Sampled cross-check of a memo replay's incremental digests.

        When a ``footprint_observer`` is bound, the first digest replay and
        every 64th recompute all digests from scratch; a mismatch — a
        subject mutating outside the invalidation hooks — permanently drops
        back to exact per-boundary digesting (sound-or-off).
        """
        from repro.statehash import state_digest

        self._digest_replays += 1
        replays = self._digest_replays
        if self.footprint_observer is None or not self._digest_exact:
            return
        if replays != 1 and replays % 64:
            return
        fresh = {
            rid: state_digest((host.up, host.rdl.canonical_state()))
            for rid, host in self.cluster._hosts.items()
        }
        if fresh != rdigests:
            # A subject mutated state some invalidation hook cannot see:
            # stop trusting every digest cache, permanently.
            self._digest_exact = False
            self._checkpoint_digests = None
            self._digest_trie.clear()
            self.cluster.digest_cache_enabled = False
            self.cluster.invalidate_digests()
            if self.metrics.enabled:
                self.metrics.inc("digest.verify_failures")
