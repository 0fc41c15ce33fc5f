"""The replay engine: execute interleavings against checkpointed replicas.

For each interleaving (paper section 4.3) the engine:

1. restores every replica to the checkpointed initial state (and clears the
   transport), so interleavings cannot affect each other;
2. re-invokes the recorded events in the interleaving's order, catching RDL
   errors — a failing op is *data* (it feeds failed-ops pruning), not an
   engine failure;
3. runs the registered per-interleaving assertions;
4. reports an :class:`InterleavingOutcome`.

Two executors enforce the event order:

* :class:`SequentialExecutor` — the default: events run in-line in
  interleaving order (deterministic and fast; correct because the simulated
  cluster is single-process).
* :class:`LockSteppedExecutor` — one worker thread per replica, released in
  event order by the Redis-backed distributed lock
  (:class:`~repro.redisim.lock.SequenceGate`) exactly as the paper's
  middleware orders events across real machines.

Prefix-reuse replay
-------------------

Exhaustive exploration replays thousands of near-identical interleavings:
with the paper's minimal-change (SJT) enumeration, consecutive candidates
differ by one adjacent transposition, so most of each replay re-executes a
prefix the previous replay already executed.  :class:`PrefixSnapshotCache`
exploits that: after each executed event the engine stores a snapshot of the
*one replica that event touched* (plus the transport, for sync events),
keyed by the event-id prefix.  The next candidate restores from its longest
cached prefix and re-executes only the suffix.

Replica snapshots are shared structurally between cache entries (an entry
only replaces the snapshot of the replica its last event touched) and are
reference-counted, so the cache's real retained bytes can be charged to —
and released from — a :class:`~repro.core.resources.ResourceMeter`,
keeping the Figure-10 succeed-or-crash semantics honest.  Each replica's
snapshot splits into the RDL state (the expensive copy) and the host's two
sync counters (two ints): a ``SYNC_REQ`` never changes the sender's RDL
state, so its cache entry shares the previous RDL snapshot outright and
pays only for the counter pair.

Soundness: prefix reuse requires that replaying a given event sequence from
the checkpoint is a pure function of the sequence.  That holds exactly when
(a) events run through the :class:`SequentialExecutor` and (b) the network
conditions are deterministic (FIFO, no random drops or duplicates), because
a lossy/reordering transport consumes its seeded RNG monotonically across
replays.  When either condition fails, the engine silently falls back to
fresh full replays — results are identical either way, only slower.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
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

    ``states`` may be constructed lazily: the cached replay path passes a
    zero-argument thunk over copy-on-write state views instead of eagerly
    computing every replica's observable value — most assertions never read
    final states, so the work is done only on first access.
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

    ``timeout_s`` arms a per-replay wall-clock watchdog: when a replay's
    elapsed time exceeds it, :class:`ReplayTimeout` is raised between
    events (cooperative — a single wedged subject call cannot be
    interrupted, but a slow or looping replay is cut off at the next event
    boundary and quarantined by the explorer).
    """

    def __init__(self, timeout_s: Optional[float] = None) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s

    def run(self, cluster: Cluster, interleaving: Interleaving) -> List[EventResult]:
        # Lamport stamps along a total order are just 1-based positions
        # (see assign_lamport); invoking directly skips the StampedEvent
        # allocations on the hottest loop in the engine.
        timeout = self.timeout_s
        if timeout is None:
            return [
                _invoke(cluster, event, lamport)
                for lamport, event in enumerate(interleaving, 1)
            ]
        deadline = time.monotonic() + timeout
        results: List[EventResult] = []
        for lamport, event in enumerate(interleaving, 1):
            if time.monotonic() > deadline:
                raise ReplayTimeout(
                    f"replay exceeded the {timeout}s watchdog after "
                    f"{lamport - 1} of {len(interleaving)} events"
                )
            results.append(_invoke(cluster, event, lamport))
        return results


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


def _states_from_views(views: Dict[str, Tuple[type, Any]]) -> Dict[str, Any]:
    """Evaluate replica states from captured copy-on-write state views.

    Rebuilds a throwaway shell of each replica class around its view dict
    and asks it for ``value()`` — read-only by the host protocol contract.
    """
    out: Dict[str, Any] = {}
    for rid, (cls, view) in views.items():
        shim = cls.__new__(cls)
        shim.__dict__.update(view)
        out[rid] = shim.value()
    return out


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
        self._root: Optional[_RootEntry] = None
        self._baseline: Tuple[int, int, int, int] = (0, 0, 0, 0)

    # ------------------------------------------------------------- plumbing

    @property
    def root(self) -> Optional[_RootEntry]:
        return self._root

    @property
    def baseline(self) -> Tuple[int, int, int, int]:
        """Absolute transport counters at the checkpoint (root) state."""
        return self._baseline

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
        snaps: List[_Snap] = []
        if entry.snap is not None:
            snaps.append(entry.snap)
        if entry.transport_snap is not None:
            snaps.append(entry.transport_snap)
        return snaps

    # ------------------------------------------------------------------ api

    def set_root(self, entry: _RootEntry, baseline: Tuple[int, int, int, int]) -> None:
        """Install the checkpoint-state entry (never evicted)."""
        if self._root is not None:
            self.clear()
        for record in entry.replica_snaps.values():
            self._acquire(record[0])
        self._acquire(entry.transport_snap)
        self._root = entry
        self._baseline = baseline

    def get(self, key: Tuple[int, str]) -> Optional[_CacheEntry]:
        """Look up the child entry under ``(parent_entry_id, event_id)``."""
        return self._entries.get(key)

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
        root = self._root
        if root is not None:
            for record in root.replica_snaps.values():
                self._release(record[0])
            self._release(root.transport_snap)
            self._root = None
        self.stats.entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[int, str]) -> bool:
        return key in self._entries


class ReplayEngine:
    """Checkpoint/replay/assert driver over a cluster.

    With ``prefix_cache`` attached (see :meth:`enable_prefix_cache`) and a
    sound configuration (sequential executor, deterministic network), replays
    restore from the longest cached event-id prefix and execute only the
    suffix; otherwise every replay is a fresh full run from the checkpoint.
    While a cache is active the engine must be the only writer to its
    cluster between ``checkpoint()`` and the final ``restore()``.
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
        #: attached, a configurable fraction of cache-accelerated replays are
        #: shadow-replayed from scratch and diffed against the cached result.
        self.sanitizer: Optional[Any] = None
        #: Semantic pruning hooks (see repro.core.pruning.semantic).  When a
        #: :class:`StateMemoPruner` is bound, memo-eligible replays run
        #: through the digest-capture path and feed it; a bound
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
        self._last_was_cached = False
        # Live-state version tracking: maps replica id -> the _Snap whose RDL
        # state the replica currently holds (None/missing = unknown/dirty).
        # Sync counters are not tracked — they are two ints, always restored.
        self._live_rdl: Dict[str, Optional[_Snap]] = {}
        self._live_transport: Optional[_Snap] = None
        # Incremental-digest state for the memo path (see _replay_digest):
        # the checkpoint boundary's digests, the (digest, event-id) ->
        # boundary-digest transition memo, the last cluster hit/miss counts
        # already folded into metrics, and the sound-or-off switch sampled
        # verification flips.
        self._checkpoint_digests: Optional[Tuple[Dict[str, str], str, str]] = None
        self._digest_trie: Dict[Tuple[str, ...], Tuple[Dict[str, str], str, str]] = {}
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

    def prefix_cache_active(self) -> bool:
        """True when replays will actually use the prefix cache.

        Reuse is sound only when replaying a prefix is a pure function of
        the event sequence: the in-line sequential executor plus a
        deterministic transport (FIFO, no random drops/duplicates — a lossy
        transport consumes its seeded RNG monotonically *across* replays, so
        skipping a prefix would desynchronise the stream).
        """
        if self.prefix_cache is None:
            return False
        if type(self.executor) is not SequentialExecutor:
            return False
        conditions = self.cluster.transport.conditions
        if not (
            conditions.fifo
            and conditions.drop_rate == 0
            and conditions.duplicate_rate == 0
        ):
            return False
        # Every replica must expose its full state through the
        # copy-on-write view protocol (see RDLReplica.supports_state_view).
        return all(
            host.rdl.supports_state_view for host in self.cluster._hosts.values()
        )

    def semantic_supported(self, require_digest: bool = True) -> bool:
        """True when semantic pruning may bind to this engine.

        The requirements mirror :meth:`prefix_cache_active` — replay must
        be a pure function of the event sequence — plus, for the state
        memo (``require_digest``), every subject must expose
        ``canonical_state()`` so the cluster is digestible.
        """
        return self.semantic_unsupported_reason(require_digest) is None

    def semantic_unsupported_reason(
        self, require_digest: bool = True
    ) -> Optional[str]:
        """Why semantic pruning cannot bind here, or None when it can."""
        if self._checkpoint is None:
            return "no checkpoint taken"
        if type(self.executor) is not SequentialExecutor:
            return f"executor {type(self.executor).__name__} is not sequential"
        conditions = self.cluster.transport.conditions
        if not conditions.fifo:
            return "transport is not FIFO"
        if conditions.drop_rate != 0 or conditions.duplicate_rate != 0:
            return "transport has random drops/duplicates"
        if getattr(conditions, "latency_ticks", 0):
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
        tracer = self.tracer
        metrics = self.metrics
        if not (tracer.enabled or metrics.enabled):
            return self._replay_checked(interleaving, assertions)
        cache = self.prefix_cache
        hits_before = cache.stats.hits if cache is not None else 0
        span = tracer.begin("replay") if tracer.enabled else None
        try:
            outcome = self._replay_checked(interleaving, assertions)
        except BaseException as exc:
            if span is not None:
                tracer.end(span, error=type(exc).__name__)
            raise
        if self._last_was_cached:
            hit = cache is not None and cache.stats.hits > hits_before
            cache_state = "hit" if hit else "miss"
        else:
            cache_state = "off"
        if metrics.enabled:
            self._record_replay_metrics(metrics, outcome, cache_state)
        if span is not None:
            tracer.end(span, cache=cache_state, violated=outcome.violated)
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

    def _replay_checked(
        self,
        interleaving: Interleaving,
        assertions: Sequence[Assertion] = (),
    ) -> InterleavingOutcome:
        if self._checkpoint is None:
            raise ReplayError("checkpoint() must be called before replay()")
        # Fault events make a replay impure (crashes lose volatile state,
        # partitions rewire the network), so fault-bearing interleavings
        # always replay fresh from the checkpoint — the prefix cache's
        # purity argument does not extend to them.
        has_fault = any(event.is_fault for event in interleaving)
        if self._fault_dirty:
            self._reset_fault_state()
        memo = self.state_memo
        if memo is not None and memo.enabled and not has_fault:
            # Memo-eligible replays run the digest-capture path (fresh from
            # the checkpoint, recording the cluster digest at every event
            # boundary) so the memo table learns this replay's states.
            # These replays bypass the prefix cache: the memo trades prefix
            # *restoration* speed for skipping whole replays.
            self._last_was_cached = False
            outcome = self._replay_digest(interleaving, memo)
            for assertion in assertions:
                message = assertion(outcome)
                if message is not None:
                    outcome.violations.append(message)
            return outcome
        cached = not has_fault and self.prefix_cache_active()
        self._last_was_cached = cached
        if cached:
            outcome = self._replay_cached(interleaving)
        else:
            outcome = self._replay_fresh(interleaving)
            if has_fault:
                self._fault_dirty = True
        if cached and self.sanitizer is not None:
            self.sanitizer.maybe_check(self, interleaving, outcome)
        for assertion in assertions:
            message = assertion(outcome)
            if message is not None:
                outcome.violations.append(message)
        return outcome

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
        tracer = self.tracer
        metrics = self.metrics
        if not (tracer.enabled or metrics.enabled):
            return self._replay_fresh_checked(interleaving, assertions)
        span = tracer.begin("replay:fresh") if tracer.enabled else None
        try:
            outcome = self._replay_fresh_checked(interleaving, assertions)
        except BaseException as exc:
            if span is not None:
                tracer.end(span, error=type(exc).__name__)
            raise
        if metrics.enabled:
            self._record_replay_metrics(metrics, outcome, "fresh")
        if span is not None:
            tracer.end(span, violated=outcome.violated)
        return outcome

    def _replay_fresh_checked(
        self,
        interleaving: Interleaving,
        assertions: Sequence[Assertion] = (),
    ) -> InterleavingOutcome:
        if self._checkpoint is None:
            raise ReplayError("checkpoint() must be called before replay_fresh()")
        if self._fault_dirty:
            self._reset_fault_state()
        outcome = self._replay_fresh(interleaving)
        if any(event.is_fault for event in interleaving):
            self._fault_dirty = True
        for assertion in assertions:
            message = assertion(outcome)
            if message is not None:
                outcome.violations.append(message)
        return outcome

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

    def _replay_fresh(self, interleaving: Interleaving) -> InterleavingOutcome:
        transport = self.cluster.transport
        self.cluster.restore(self._checkpoint)
        # restore() resets the transport counters to zero, so the baseline
        # for this replay's delta is taken *after* it.
        before = transport.stats()
        self._forget_live_versions()
        started = time.perf_counter()
        event_results = self.executor.run(self.cluster, interleaving)
        duration = time.perf_counter() - started
        after = transport.stats()
        self.last_transport_stats = tuple(n - b for n, b in zip(after, before))
        # restore() cleared the suppressed-send log, so its whole contents
        # belong to this replay.
        self.last_suppressed_count = len(self.cluster.suppressed_sends)
        return InterleavingOutcome(
            interleaving=interleaving,
            event_results=event_results,
            states=self.cluster.states(),
            violations=[],
            duration_s=duration,
        )

    def _replay_digest(
        self, interleaving: Interleaving, memo: Any
    ) -> InterleavingOutcome:
        """A fresh replay that captures the cluster digest at every event
        boundary and feeds the bound state-memo pruner.

        The per-boundary digest is a hash DAG: per-replica digests combined
        with the transport digest, exactly as :meth:`Cluster.state_digest`
        builds them.  Digesting is incremental on three levels:

        1. *Per-replica caching* — the cluster's opt-in digest cache (armed
           lazily on the first digest replay) means only the replica an
           event actually touched pays a canonical walk; the others return
           their cached digests, so the *observed* write set — which
           replicas' digests actually changed — stays exact at replica
           granularity and is reported to ``footprint_observer`` so the
           DPOR pruner can falsify its static model (sound-or-off).
        2. *Checkpoint re-priming* — the checkpoint boundary's digests are
           computed once per checkpoint and re-primed into the host caches
           after every restore.
        3. *A transition memo* — ``(combined digest before, event id) ->
           boundary digests after``.  Minimal-change enumeration revisits
           the same states through thousands of prefixes, and commuting
           subject ops make *different* prefixes converge to the same
           state; both reuse the memoised transition (events still
           re-execute — only the canonical walks are skipped).  Sound under
           exactly the assumption the memo pruner itself rests on: a
           digest identifies the semantic state, and replaying an event
           from the same semantic state reaches the same semantic state.

        When a ``footprint_observer`` is bound, every 64th replay (and the
        first) recomputes all digests from scratch and cross-checks the
        incremental values; a mismatch — a subject mutating outside the
        invalidation hooks — permanently drops back to exact per-boundary
        digesting (sound-or-off).
        """
        from repro.statehash import combine_digests, state_digest

        cluster = self.cluster
        transport = cluster.transport
        hosts = cluster._hosts
        rids = cluster.replica_ids()
        observer = self.footprint_observer
        if cluster.digest_cache_enabled != self._digest_exact:
            if self._digest_exact:
                # Recording is over once replays start: every mutation from
                # here flows through the invalidation hooks, so per-replica
                # digest caching becomes sound to switch on.
                cluster.enable_digest_cache()
            else:
                cluster.digest_cache_enabled = False
                cluster.invalidate_digests()
        base = self._checkpoint_digests
        transitions = self._digest_trie if self._digest_exact else None
        if base is not None and transitions is not None:
            # Fast path: when every boundary's transition is already
            # memoised, the whole digest sequence is determined without a
            # single canonical walk — and the replay itself can then run
            # through the prefix cache (same events, same outcome, and the
            # memo path's full checkpoint restore is skipped too).
            chain_digests: List[str] = [base[2]]
            chain_entries: List[Tuple[Dict[str, str], str, str]] = []
            node = base[2]
            get_transition = transitions.get
            complete = True
            for event in interleaving:
                entry = get_transition((node, event.event_id))
                if entry is None:
                    complete = False
                    break
                chain_entries.append(entry)
                node = entry[1]
                chain_digests.append(node)
            if complete and self.prefix_cache_active():
                cluster.digest_hits += len(chain_entries)
                outcome = self._replay_cached(interleaving)
                if observer is not None:
                    prev = base[0]
                    for event, entry in zip(interleaving, chain_entries):
                        entry_rdigests = entry[0]
                        observer.observe_write_set(
                            event,
                            [
                                rid
                                for rid, digest in entry_rdigests.items()
                                if prev[rid] != digest
                            ],
                        )
                        prev = entry_rdigests
                memo.record_replay(interleaving, outcome, chain_digests)
                return outcome
        cluster.restore(self._checkpoint)
        before = transport.stats()
        self._forget_live_versions()
        started = time.perf_counter()
        if base is None:
            rdigests = {rid: cluster.replica_state_digest(rid) for rid in rids}
            tdigest = cluster.transport_digest()
            parts = list(rdigests.items())
            parts.append(("#transport", tdigest))
            base_combined = combine_digests(parts)
            if self._digest_exact:
                self._checkpoint_digests = (dict(rdigests), tdigest, base_combined)
        else:
            base_rdigests, tdigest, base_combined = base
            rdigests = dict(base_rdigests)
            # restore() invalidated every host cache; the checkpoint values
            # are exactly what a fresh walk would recompute.
            for rid in rids:
                hosts[rid].digest_cache = rdigests[rid]
            cluster._transport_digest_cache = tdigest

        def combined() -> str:
            parts = list(rdigests.items())
            parts.append(("#transport", tdigest))
            return combine_digests(parts)

        digests: List[str] = [base_combined]
        results: List[EventResult] = []
        timeout = getattr(self.executor, "timeout_s", None)
        deadline = None if timeout is None else time.monotonic() + timeout
        for lamport, event in enumerate(interleaving, 1):
            if deadline is not None and time.monotonic() > deadline:
                raise ReplayTimeout(
                    f"replay exceeded the {timeout}s watchdog after "
                    f"{lamport - 1} of {len(interleaving)} events"
                )
            results.append(_invoke(cluster, event, lamport))
            changed: List[str] = []
            key = (digests[-1], event.event_id)
            entry = transitions.get(key) if transitions is not None else None
            if entry is not None:
                entry_rdigests, combined_digest, tdigest = entry
                for rid, digest in entry_rdigests.items():
                    if digest != rdigests[rid]:
                        rdigests[rid] = digest
                        changed.append(rid)
                    # _invoke invalidated the touched replica's host cache;
                    # by the memo assumption the memoised transition value
                    # is its current digest.
                    hosts[rid].digest_cache = digest
                cluster._transport_digest_cache = tdigest
                cluster.digest_hits += 1
                digests.append(combined_digest)
            else:
                for rid in rids:
                    digest = cluster.replica_state_digest(rid)
                    if digest != rdigests[rid]:
                        rdigests[rid] = digest
                        changed.append(rid)
                if event.is_sync:
                    tdigest = cluster.transport_digest()
                combined_digest = combined()
                digests.append(combined_digest)
                if transitions is not None:
                    if len(transitions) >= self._digest_trie_limit:
                        transitions.clear()
                    transitions[key] = (dict(rdigests), combined_digest, tdigest)
            if observer is not None:
                observer.observe_write_set(event, changed)
        self._digest_replays += 1
        if (
            observer is not None
            and self._digest_exact
            and (self._digest_replays == 1 or self._digest_replays % 64 == 0)
        ):
            fresh = {
                rid: state_digest((hosts[rid].up, hosts[rid].rdl.canonical_state()))
                for rid in rids
            }
            if fresh != rdigests:
                # A subject mutated state some invalidation hook cannot see:
                # stop trusting every digest cache, permanently.
                self._digest_exact = False
                self._checkpoint_digests = None
                self._digest_trie.clear()
                cluster.digest_cache_enabled = False
                cluster.invalidate_digests()
                if self.metrics.enabled:
                    self.metrics.inc("digest.verify_failures")
        duration = time.perf_counter() - started
        after = transport.stats()
        self.last_transport_stats = tuple(n - b for n, b in zip(after, before))
        self.last_suppressed_count = len(cluster.suppressed_sends)
        outcome = InterleavingOutcome(
            interleaving=interleaving,
            event_results=results,
            states=cluster.states(),
            violations=[],
            duration_s=duration,
        )
        memo.record_replay(interleaving, outcome, digests)
        return outcome

    def _ensure_root(self, cache: PrefixSnapshotCache) -> _RootEntry:
        root = cache.root
        if root is None:
            cluster = self.cluster
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
        return root

    def _replay_cached(self, interleaving: Interleaving) -> InterleavingOutcome:
        cache = self.prefix_cache
        cluster = self.cluster
        transport = cluster.transport
        started = time.perf_counter()
        events: Tuple[Event, ...] = (
            interleaving if type(interleaving) is tuple else tuple(interleaving)
        )
        count = len(events)

        root = self._ensure_root(cache)
        entry: Any = root
        depth = 0
        # Longest cached proper prefix of this interleaving: walk the entry
        # trie forward, one (parent_id, event_id) lookup per matched event.
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
        live = self._live_rdl
        hosts = cluster._hosts
        results: List[EventResult]
        if entry is root:
            results = []
            records = root.replica_snaps
            tsnap = root.transport_snap
        else:
            results = []
            records = {}
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
        # by *adopting* the cached state by reference: the suffix loop below
        # materialises a private copy right before the first mutation of
        # each replica (copy-on-write), so a replay pays at most one state
        # copy per mutating event — and none for replicas it never mutates.
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
            transport.restore_snapshot(tsnap.data)
            self._live_transport = tsnap
            cluster._transport_digest_cache = None

        stats = cache.stats
        stats.replays += 1
        if depth:
            stats.hits += 1
        stats.events_reused += depth
        stats.events_executed += count - depth

        cur_entry = entry
        suppressed_before = len(cluster.suppressed_sends)
        caching = cache.max_entries > 0
        kind_read = EventKind.READ
        kind_sync_req = EventKind.SYNC_REQ
        kind_exec_sync = EventKind.EXEC_SYNC
        append_result = results.append
        make_snap = cache.make_snap
        put = cache.put
        entries_dict = cache._entries
        metered = cache.meter is not None
        max_entries = cache.max_entries
        for position in range(depth, count):
            event = events[position]
            kind = event.kind
            is_sync = False
            if kind is kind_read:
                mutating = False
            else:
                mutating = True
                # UPDATE and EXEC_SYNC mutate the event's replica: if its
                # live state is borrowed from a cached snapshot, materialise
                # a private copy first.  SYNC_REQ leaves the sender's RDL
                # state untouched (it only enqueues a message and bumps
                # sent_syncs), so the sender's snap stays live and new
                # entries share it for free — unless the subject declares
                # ``mutates_on_push`` (shipping a payload advances durable
                # bookkeeping), in which case the sender materialises too.
                if kind is not kind_sync_req or getattr(
                    hosts[event.replica_id].rdl, "mutates_on_push", False
                ):
                    rid = event.replica_id
                    snap = live.get(rid)
                    if snap is not None:
                        hosts[rid].rdl.restore(snap.data)
                        hosts[rid].digest_cache = None
                        live[rid] = None
                is_sync = kind is kind_sync_req or kind is kind_exec_sync
                if is_sync:
                    self._live_transport = None
            result = _invoke(cluster, event, position + 1)
            append_result(result)
            if not caching or position >= limit:
                continue  # depth == count is never a *proper* prefix
            # No lookup needed before storing: the forward walk above ended
            # on a missing link, so no deeper node exists along this path,
            # and every subsequent parent id is freshly minted.
            key = (cur_entry.entry_id, event.event_id)
            if mutating:
                rid = event.replica_id
                host = hosts[rid]
                snap = live.get(rid)
                if snap is None:
                    # Snapshot by reference (outer-shallow): the live state
                    # is borrowed until the next mutation materialises it.
                    snap = make_snap(host.rdl.state_view())
                    live[rid] = snap
                tsnap = None
                if is_sync:
                    tsnap = self._live_transport
                    if tsnap is None:
                        tsnap = make_snap(transport.snapshot())
                        self._live_transport = tsnap
                cur_entry = _CacheEntry(
                    cache.next_id(),
                    key,
                    cur_entry,
                    result,
                    rid,
                    snap,
                    host.applied_syncs,
                    host.sent_syncs,
                    tsnap,
                )
            else:
                cur_entry = _CacheEntry(
                    cache.next_id(), key, cur_entry, result, None, None, 0, 0, None
                )
            # Unmetered inserts into a non-full cache skip put()'s charging
            # and eviction machinery; stats.entries is reconciled below.
            if metered or len(entries_dict) >= max_entries:
                put(cur_entry)
            else:
                entries_dict[key] = cur_entry
        if caching:
            stats.entries = len(entries_dict)

        # Cached replays never call restore(), so the suppressed-send log
        # persists across them; this replay's share is the suffix delta.
        self.last_suppressed_count = len(cluster.suppressed_sends) - suppressed_before
        base_sent, base_dropped, base_delivered, base_duplicated = cache.baseline
        self.last_transport_stats = (
            transport.sent_count - base_sent,
            transport.dropped_count - base_dropped,
            transport.delivered_count - base_delivered,
            transport.duplicated_count - base_duplicated,
        )
        duration = time.perf_counter() - started
        # Final states are captured as copy-on-write views and evaluated
        # lazily: the views' containers are never mutated in place again
        # (every later mutation materialises fresh containers first), so
        # the thunk reads stable data whenever an assertion asks.  A replica
        # whose live state is borrowed already has a stable view — its snap.
        views = {}
        for rid, host in hosts.items():
            rdl = host.rdl
            snap = live.get(rid)
            views[rid] = (
                type(rdl),
                snap.data if snap is not None else rdl.state_view(),
            )
        return InterleavingOutcome(
            interleaving=interleaving,
            event_results=results,
            states=lambda: _states_from_views(views),
            violations=[],
            duration_s=duration,
        )
