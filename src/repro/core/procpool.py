"""Shared-nothing multiprocess exploration with prefix-shard scheduling.

:class:`ProcessParallelExplorer` is the one parallel backend: it fans
replays out over ``multiprocessing`` workers (a thread pool would be
serialised by the GIL on these pure-CPU subjects) that share **nothing**:
each worker rebuilds its own cluster,
:class:`~repro.core.replay.ReplayEngine`, delta-trie prefix cache, pruner
pipeline and per-worker metrics registries from a picklable
:class:`WorkerTask` spec, so replays proceed on separate cores with zero
cross-process synchronisation on the hot path.

Determinism is preserved without shipping candidates at all:

* every worker walks the **full** candidate stream's positions locally.
  Candidate generation — grouping, enumeration order, validity filtering
  and the pruner pipeline — is a deterministic function of the recorded
  events, so all workers (and a serial run) agree on every candidate
  index.  With no pruners attached, the explorer's *sharded* fast path
  (:meth:`~repro.core.explorers.Explorer.sharded_candidates`) derives each
  candidate's shard key from the leading units of the permutation and
  skips foreign candidates without ever flattening them — a worker
  materialises only its own shards, while stream accounting (meter
  charges, generated counts, budget-crash positions) stays identical to
  the full stream;
* a worker *replays* only the candidates its **prefix shard** owns: the
  shard key is the first ``prefix_len`` event ids of the interleaving, and
  :class:`PrefixShardRouter` assigns keys to workers round-robin in order
  of first appearance (a deterministic rule — unlike ``hash()``, which is
  randomised per process).  Minimal-change orders (SJT) mutate the prefix
  slowly, so consecutive candidates usually land on the same worker and its
  prefix cache keeps its high hit rate;
* verdicts stream back as **columnar frames** (:class:`AdaptiveBatcher`):
  event ids are interned as positions into the shared schedule — both
  sides derive the identical table independently — verdict records are
  flat parallel arrays, and only violations/quarantines/crashes carry a
  Python object, with violation outcomes shipped as pickle bytes that the
  parent deserialises lazily at commit time (duplicate deliveries from a
  re-leased slot are deduplicated *before* they are ever unpickled).
  Frames size themselves adaptively — start small for low latency, double
  on every full flush up to ``batch_size``, and flush early on an idle
  deadline so a slow shard's verdicts (and a coordinator's watermark)
  never sit in a half-full buffer.  The parent **commits records strictly
  in candidate order**, so the reported first violation and the explored
  count are bit-for-bit identical to a serial hunt.

Each worker slot gets its **own one-writer pipe** to the parent rather than
a shared ``multiprocessing.Queue``.  The shared queue serialises writers
through one cross-process lock held by a feeder thread — a worker SIGKILLed
mid-flush dies holding it and every surviving (and replacement) worker then
deadlocks on its next send.  With per-slot pipes there is no shared lock to
poison, a dead worker's half-written frame confines the damage to its own
channel, and the kernel closing the write end turns worker death into an
explicit EOF the parent observes instead of a silent hang — the property
the crash-recovery coordinator (:mod:`repro.core.coordinator`) builds its
re-lease protocol on.

:meth:`ProcessParallelExplorer.explore` is the only commit loop.  A plain
pool ends the hunt on the first worker failure; the coordinator subclass
keeps the loop and overrides its hooks (resumed-prefix preload, per-commit
journaling, abandoned-shard commits, failure recovery, the settle test and
a per-round tick for respawns and steals).

The exploration identity ``generated == pruned + replayed + quarantined +
discarded`` survives the shard merge: stream-side counters (generated /
pruned / invalid) are taken from the worker that enumerated furthest (its
stream is a superset of every other worker's, and of the committed run),
replay-side counters are summed across workers, the parent counts
replayed/quarantined itself at commit time, and ``discarded`` is defined as
``furthest_yields - committed`` (non-negative because the owner of the last
committed candidate enumerated at least that far).

Worker-local prefix caches stay sound for the same reason one engine's
cache is: the cache is only active when every replica of that worker's own
cluster supports state views (the sound-or-off rule enforced by
``ReplayEngine.prefix_cache_active()``), and no snapshot ever crosses a
process boundary.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import pickle
import signal
import time
import traceback
from array import array
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.errors import ResourceExhausted
from repro.core.explorers import DEFAULT_CAP, ExplorationResult, Explorer
from repro.core.interleavings import Interleaving
# The worker tasks live with the pipeline; benches and tests import them here.
from repro.core.pipeline import CallableWorkerTask, WorkerTask, arm
from repro.core.replay import Assertion, InterleavingOutcome, ReplayEngine
from repro.faults.quarantine import QuarantinedReplay
from repro.obs.metrics import MetricsRegistry

# ------------------------------------------------------------------ sharding


class PrefixShardRouter:
    """Deterministic prefix-shard ownership for one candidate stream.

    The shard key of an interleaving is the tuple of its first
    ``prefix_len`` event ids.  Keys are assigned to workers round-robin in
    order of **first appearance** in the stream; because every worker
    enumerates the identical stream, every worker derives the identical
    assignment without any coordination.  (Hashing the key would be simpler
    but ``hash()`` of strings is salted per process.)
    """

    def __init__(self, workers: int, prefix_len: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        self.workers = workers
        self.prefix_len = prefix_len
        self._owners: Dict[Tuple[str, ...], int] = {}
        self._next = 0

    def owner_of_key(self, key: Tuple[str, ...]) -> int:
        owner = self._owners.get(key)
        if owner is None:
            owner = self._owners[key] = self._next % self.workers
            self._next += 1
        return owner

    def owner(self, interleaving: Interleaving) -> int:
        return self.owner_of_key(
            tuple(event.event_id for event in interleaving[: self.prefix_len])
        )

    @property
    def shards(self) -> int:
        return len(self._owners)


def auto_prefix_len(stream_width: int, workers: int) -> int:
    """Shard-key length balancing granularity against cache locality.

    One leading unit gives ``stream_width`` shards; when that is not at
    least twice the worker count the shards are too coarse to balance, so
    the key grows to two units (``~width**2`` shards).
    """
    return 1 if stream_width >= 2 * workers else 2


def _stream_width(explorer: Explorer) -> int:
    grouping = getattr(explorer, "grouping", None)
    if grouping is not None:
        return max(1, len(grouping.units))
    return max(1, len(explorer.events))


# ------------------------------------------------------------- columnar IPC

#: Verdict kind codes for columnar frames.  Codes below ``_KIND_VIOLATION``
#: are fully described by (index, kind, event positions); codes at or above
#: it carry exactly one entry in the frame's ``other`` list.
_KIND_OK = 0
_KIND_PRUNED = 1
_KIND_VIOLATION = 2
_KIND_QUARANTINE = 3
_KIND_CRASHED = 4

#: Distinguishes "stream exhausted" from "foreign-shard position" in the
#: sharded candidate stream, where ``None`` is a legitimate yield.
_EXHAUSTED = object()


def _send_counted(conn, obj: Any) -> int:
    """Send one frame and return its wire size in bytes.

    ``Connection.send`` pickles internally but never reveals the size, so
    frames whose bytes we account (everything a worker ships except the
    final flush) are pickled here and pushed through ``send_bytes`` — the
    receiving ``Connection.recv`` unpickles either form identically.
    """
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(data)
    return len(data)


class AdaptiveBatcher:
    """Columnar verdict buffer with adaptive sizing and an idle deadline.

    Records accumulate into flat parallel arrays — candidate indices
    (``array('I')``), kind codes (bytes), concatenated event *positions*
    with per-record lengths (``array('I')`` twice) — plus an ``other`` list
    holding the one payload object of each violation/quarantine/crash.
    A frame of N ok-verdicts therefore pickles as a handful of contiguous
    buffers instead of N tuples of N-string event-id tuples.

    Sizing is adaptive: the batch starts small (low first-verdict latency),
    doubles every time it fills (amortising per-frame cost under load) and
    is capped at the configured ``batch_size``.  ``due()`` reports when a
    partial buffer has waited at least ``idle_flush_s`` since the last
    flush, so trailing verdicts ship promptly even when replays are slow.
    The clock is injectable for deterministic tests.
    """

    __slots__ = ("cap", "size", "idle_flush_s", "_clock", "_last_flush",
                 "indices", "kinds", "ev", "ev_lens", "other")

    def __init__(
        self,
        cap: int,
        idle_flush_s: float = 0.05,
        clock: Optional[Callable[[], float]] = None,
        min_batch: int = 8,
    ) -> None:
        self.cap = max(1, cap)
        self.size = min(max(1, min_batch), self.cap)
        self.idle_flush_s = idle_flush_s
        self._clock = clock or time.monotonic
        self._last_flush = self._clock()
        self._reset()

    def _reset(self) -> None:
        self.indices = array("I")
        self.kinds = bytearray()
        self.ev = array("I")
        self.ev_lens = array("I")
        self.other: List[Any] = []

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def full(self) -> bool:
        return len(self.indices) >= self.size

    def add(self, index: int, kind: int,
            ev_positions: Optional[Iterable[int]], other: Any = None) -> None:
        self.indices.append(index)
        self.kinds.append(kind)
        if ev_positions is not None:
            before = len(self.ev)
            self.ev.extend(ev_positions)
            self.ev_lens.append(len(self.ev) - before)
        else:
            self.ev_lens.append(0)
        if kind >= _KIND_VIOLATION:
            self.other.append(other)

    def due(self) -> bool:
        """True when a non-empty partial buffer has idled past the deadline."""
        if not self.indices:
            return False
        return self._clock() - self._last_flush >= self.idle_flush_s

    def flush(self, grow: bool = False):
        """Detach and return the frame payload (``None`` when empty).

        ``grow=True`` — used when flushing because the buffer filled —
        doubles the target size up to the cap; deadline flushes pass False
        so a slow trickle of verdicts keeps its low-latency small batches.
        """
        self._last_flush = self._clock()
        if not self.indices:
            return None
        frame = (self.indices, bytes(self.kinds), self.ev, self.ev_lens,
                 self.other)
        self._reset()
        if grow:
            self.size = min(self.size * 2, self.cap)
        return frame


# ------------------------------------------------------------ worker process


@dataclass(frozen=True)
class _WorkerConfig:
    worker_index: int
    workers: int
    cap: int
    stop_on_violation: bool
    prefix_cache: bool
    collect_metrics: bool
    batch_size: int
    prefix_len: Optional[int]
    sanitize: Optional[float]
    sanitize_sample_k: int
    seed: int
    #: How many candidates between checks of the shared stop flag (each
    #: check is a semaphore acquisition — too hot to pay per candidate).
    stop_stride: int = 32
    #: Candidates below this global index are already committed (a resumed
    #: or re-leased hunt): enumerate them for stream determinism, but skip
    #: the replay — the parent has their verdicts journaled.
    skip_below: int = 0
    #: Send ``("heartbeat", widx, yields)`` at least this often (seconds)
    #: so the coordinator can see how far this worker has enumerated (the
    #: work-stealing signal).  ``None`` disables heartbeats (plain
    #: uncoordinated pools).
    heartbeat_interval_s: Optional[float] = None
    #: Which incarnation of this slot the worker is (1 = original, 2+ =
    #: re-leased replacements).  Stamped into the worker's metrics payload
    #: epochs so the parent merges each (slot, attempt) at most once even
    #: when a dead predecessor's partial flush and its replacement's full
    #: flush both reach the merge.
    attempt: int = 1
    #: Ship a partial columnar frame once it has idled this long (seconds)
    #: since the previous flush, so trailing verdicts — and the coordinated
    #: watermark they advance — never wait on a buffer filling up.
    idle_flush_s: float = 0.05
    #: Testing/CI knob: sleep this long before each owned replay to force
    #: deterministic shard skew (exercises work stealing).  Applied only to
    #: a slot's first incarnation — stolen-shard replacements run at full
    #: speed, which is the point of stealing.
    throttle_s: Optional[float] = None


def _worker_main(task, config, conn, stop_event, go_event) -> None:
    """Entry point of one exploration worker process.

    ``conn`` is this slot's private send-end pipe: all frames — ready,
    batches, heartbeats, the final flush, errors — go through it, and the
    kernel closing it on process exit is the parent's EOF death signal.
    """
    # The parent owns shutdown: a Ctrl-C lands there, which sets the stop
    # flag and drains; workers must not die mid-send from the same SIGINT.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    widx = config.worker_index
    try:
        runtime = _build_worker_runtime(task, config)
        conn.send(("ready", widx))
        go_event.wait()
        _run_worker(runtime, config, conn, stop_event)
    except BaseException:
        try:
            conn.send(("error", widx, traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already torn down
            pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover - already closed
            pass


class _WorkerRuntime(NamedTuple):
    explorer: Explorer
    engine: ReplayEngine
    assertions: Sequence[Assertion]
    sanitizer: Any
    router: PrefixShardRouter
    #: The explorer's replay-time state memo, when it bound successfully.
    memo: Any


def _build_worker_runtime(task, config: _WorkerConfig) -> _WorkerRuntime:
    from repro.core.sanitizer import Sanitizer

    explorer, engine, assertions, audit_events = task.build()
    if config.collect_metrics:
        # Two shards per worker: the explorer writes stream-side counters
        # (generated / pruned / invalid), the engine writes replay-side ones
        # (cache hits, messages, durations).  The parent merges them under
        # different rules — see ProcessParallelExplorer._merge_metrics.
        explorer.metrics = MetricsRegistry()
        engine.metrics = MetricsRegistry()
    sanitizer = None if config.sanitize is None else Sanitizer(
        rate=config.sanitize, sample_k=config.sanitize_sample_k, seed=config.seed)
    # The worker loop pulls candidates() directly, bypassing explore(), so
    # the semantic pruners are bound here.
    arm(explorer, engine, assertions, prefix_cache=config.prefix_cache,
        sanitizer=sanitizer, audit_events=audit_events)
    memo = getattr(explorer, "replay_memo", None)
    # Runtime write-set validation can disable the DPOR pruner, and a
    # disable observed by one worker but not another would desynchronise
    # the candidate streams.  The static footprint model is conservative on
    # its own; the validation hook stays a serial-path defence.
    engine.footprint_observer = None
    prefix_len = config.prefix_len or auto_prefix_len(
        _stream_width(explorer), config.workers
    )
    router = PrefixShardRouter(config.workers, prefix_len)
    return _WorkerRuntime(
        explorer, engine, assertions, sanitizer, router,
        memo if memo is not None and memo.enabled else None,
    )


def _run_worker(runtime: _WorkerRuntime, config: _WorkerConfig,
                conn, stop_event) -> None:
    widx = config.worker_index
    explorer = runtime.explorer
    engine = runtime.engine
    assertions = runtime.assertions
    # Sharded enumeration: the explorer yields owned candidates and ``None``
    # for foreign stream positions (which still consume an index).  The
    # ER-pi fast path skips flattening foreign permutations entirely; the
    # default falls back to generate-then-filter.
    candidates = explorer.sharded_candidates(runtime.router, widx)
    # Event-id interning table: both sides derive positions into the shared
    # schedule independently, so frames carry small ints instead of strings.
    eidx = {event.event_id: pos for pos, event in enumerate(explorer.events)}
    batcher = AdaptiveBatcher(config.batch_size, idle_flush_s=config.idle_flush_s)
    yields = 0
    materialized = 0
    ipc_bytes = 0
    crash_reason: Optional[str] = None
    stopped_on_own_violation = False
    heartbeat_s = config.heartbeat_interval_s
    throttle_s = config.throttle_s
    last_beat = time.monotonic()

    def ship(grow: bool) -> None:
        nonlocal ipc_bytes
        frame = batcher.flush(grow=grow)
        if frame is not None:
            ipc_bytes += _send_counted(conn, ("cbatch", widx, frame))

    def record(index: int, kind: int,
               positions: Optional[List[int]], other: Any = None) -> None:
        batcher.add(index, kind, positions, other)
        if batcher.full:
            ship(grow=True)

    try:
        # Mirrors the serial loop's check-before-pull cap semantics, so a
        # capped run's stream counters match a capped serial run exactly.
        while yields < config.cap:
            if yields % config.stop_stride == 0:
                if stop_event.is_set():
                    break
                if batcher.due():
                    ship(grow=False)
                if heartbeat_s is not None:
                    now = time.monotonic()
                    if now - last_beat >= heartbeat_s:
                        ipc_bytes += _send_counted(
                            conn, ("heartbeat", widx, yields))
                        last_beat = now
            try:
                interleaving = next(candidates, _EXHAUSTED)
            except ResourceExhausted as exc:
                crash_reason = str(exc)
                break
            if interleaving is _EXHAUSTED:
                break
            index = yields
            yields += 1
            if interleaving is None:
                # Foreign shard: the position is consumed (indices stay
                # aligned across workers) but nothing was materialised.
                continue
            materialized += 1
            if index < config.skip_below:
                # Already committed by the parent in a previous incarnation
                # of this hunt; re-replaying it would only produce a result
                # the parent will deduplicate away.
                continue
            if runtime.memo is not None and runtime.memo.is_redundant(interleaving):
                # Replay-time memo hit on an owned candidate: the stitched
                # outcome was clean, so ship a "pruned" verdict instead of
                # re-replaying.  (Stream-time pruning would shift candidate
                # indices, which must stay identical across workers.)
                record(index, _KIND_PRUNED,
                       [eidx[event.event_id] for event in interleaving])
                continue
            if throttle_s is not None:
                time.sleep(throttle_s)
            try:
                outcome = engine.replay(interleaving, assertions)
            except ResourceExhausted as exc:
                record(index, _KIND_CRASHED, None, other=str(exc))
                crash_reason = str(exc)
                break
            except Exception as exc:
                record(index, _KIND_QUARANTINE, None,
                       other=explorer._quarantine(interleaving, exc))
                engine.restore()
            else:
                positions = [eidx[event.event_id] for event in interleaving]
                if outcome.violated:
                    # Forcing .states happens inside __getstate__ at pickle
                    # time; shipping the whole outcome keeps the parent's
                    # result identical to a serial run's.  It rides the
                    # frame as pickle bytes the parent defers deserialising
                    # until (unless) this index actually commits.
                    record(index, _KIND_VIOLATION, positions,
                           other=pickle.dumps(
                               outcome, protocol=pickle.HIGHEST_PROTOCOL))
                    if config.stop_on_violation:
                        # This worker cannot contribute anything the parent
                        # will commit past its own first violation.
                        stopped_on_own_violation = True
                        break
                else:
                    record(index, _KIND_OK, positions)
            if batcher.due():
                ship(grow=False)
            if heartbeat_s is not None:
                # Replays dominate wall time; beat after each one so a slow
                # shard's progress stays current for work stealing.
                now = time.monotonic()
                if now - last_beat >= heartbeat_s:
                    ipc_bytes += _send_counted(conn, ("heartbeat", widx, yields))
                    last_beat = now
    except BaseException:
        # Anything unexpected (the replay loop's own bugs, a pickling
        # failure, SIGTERM-as-exception) must reach the parent through the
        # final flush: the parent treats "every worker flushed" as run
        # completion, so a silent partial exit would truncate the results
        # instead of failing them.
        if crash_reason is None:
            crash_reason = traceback.format_exc()
        raise
    finally:
        ship(grow=False)
        conn.send(("final", widx, _worker_flush(
            runtime, config, yields, crash_reason, stopped_on_own_violation,
            materialized, ipc_bytes,
        )))


def _worker_flush(runtime: _WorkerRuntime, config: _WorkerConfig, yields: int,
                  crash_reason: Optional[str], stopped: bool,
                  materialized: int, ipc_bytes: int) -> Dict[str, Any]:
    explorer = runtime.explorer
    engine = runtime.engine
    flush: Dict[str, Any] = {
        "yields": yields,
        "materialized": materialized,
        "ipc_bytes": ipc_bytes,
        "crash_reason": crash_reason,
        "stopped_on_violation": stopped,
        "pruning_stats": explorer._pruning_stats(),
        "fault_events": sum(1 for event in explorer.events if event.is_fault),
        "meter": dict(explorer.meter.by_category),
        "stream": None,
        "replay": None,
        "cache": None,
        "sanitizer": None,
    }
    if config.collect_metrics:
        widx = config.worker_index
        flush["stream"] = explorer.metrics.to_payload(
            epoch=("stream", widx, config.attempt)
        )
        flush["replay"] = engine.metrics.to_payload(
            epoch=("replay", widx, config.attempt)
        )
    cache = engine.prefix_cache
    if cache is not None:
        flush["cache"] = {
            "entries": cache.stats.entries,
            "retained_bytes": cache.stats.retained_bytes,
            "hits": cache.stats.hits,
            "replays": cache.stats.replays,
        }
    sanitizer = runtime.sanitizer
    if sanitizer is not None:
        flush["sanitizer"] = {
            "samplers": [pruner.sampler for pruner in sanitizer.watched_pruners],
            "divergences": sanitizer.log.divergences,
            "checks": sanitizer.checker.checks,
            "overhead_s": sanitizer.checker.overhead_s,
        }
    return flush


# ------------------------------------------------------------------- parent


@dataclass
class _Ledger:
    """What the parent has committed so far, in global candidate order."""

    verdicts: Dict[str, str] = field(default_factory=dict)
    quarantined: List[QuarantinedReplay] = field(default_factory=list)
    violating: Optional[InterleavingOutcome] = None
    explored: int = 0
    #: Replay-time memo hits committed as prunes: they consume a candidate
    #: index but are never explored.
    pruned: int = 0
    #: Candidate indices below this are committed (the watermark).
    next_index: int = 0


class QuietWorkerDetector:
    """Deadline-based dead-worker detection with an injectable clock.

    A worker process can look dead while its last frames are still in the
    queue's feeder pipe, so a crash is declared only after a *sustained*
    quiet period: the worker's process is not alive, the queue is drained,
    and that state has persisted for ``grace_s`` on the supplied clock.

    The previous implementation timed the quiet period with bare
    ``time.monotonic()`` reads inside the poll loop, which made the grace
    window untestable (and made the slow-CI flake window — a busy worker
    misdeclared crashed because the parent was descheduled — impossible to
    reproduce deterministically).  The clock is now a constructor argument:
    production passes nothing, tests pass a fake.
    """

    def __init__(self, grace_s: float = 0.5, clock: Optional[Any] = None) -> None:
        self.grace_s = grace_s
        self._clock = clock or time.monotonic
        self._suspects: Dict[int, float] = {}

    def activity(self) -> None:
        """A message arrived from the pool: every suspicion is void."""
        self._suspects.clear()

    def clear(self) -> None:
        self._suspects.clear()

    def suspect(self, widx: int) -> bool:
        """Note one dead-looking worker; True once quiet past the grace."""
        first_seen = self._suspects.setdefault(widx, self._clock())
        return self._clock() - first_seen >= self.grace_s


class ProcessParallelExplorer:
    """Drive a pool of shared-nothing exploration workers.

    ``base`` supplies the mode label and the observability objects, and a
    :class:`WorkerTask` (a hunt's :class:`~repro.core.pipeline.HuntConfig`)
    is what each worker uses to rebuild the whole stack in its own process;
    ``hunt()`` builds ``base`` with the same pipeline.  ``explore`` matches
    the serial ``Explorer.explore`` signature and return type, and its
    committed results are bit-for-bit those of a serial run.

    ``prestart()`` optionally spawns and bootstraps the pool up front (the
    bench uses it to keep worker startup out of the timed region); otherwise
    ``explore`` bootstraps lazily.  Shutdown is unconditional and bounded:
    the stop flag is set, final flushes are drained with a deadline, and any
    worker still alive afterwards is terminated — a deadlocked or crashed
    pool surfaces as a quarantined result, never as a hang.
    """

    def __init__(
        self,
        base: Explorer,
        task: WorkerTask,
        workers: int = 4,
        prefix_cache: bool = False,
        sanitize: Optional[float] = None,
        sanitize_sample_k: int = 2,
        seed: int = 0,
        batch_size: int = 64,
        prefix_len: Optional[int] = None,
        start_method: Optional[str] = None,
        bootstrap_timeout_s: float = 120.0,
        shutdown_timeout_s: float = 10.0,
        parent_sanitizer: Optional[object] = None,
        clock: Optional[Any] = None,
        dead_worker_grace_s: float = 0.5,
        heartbeat_interval_s: Optional[float] = None,
        idle_flush_s: float = 0.05,
        throttle_s_by_slot: Optional[Dict[int, float]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.base = base
        self.task = task
        self.workers = workers
        self.prefix_cache = prefix_cache
        self.sanitize = sanitize
        self.sanitize_sample_k = sanitize_sample_k
        self.seed = seed
        self.batch_size = max(1, batch_size)
        self.prefix_len = prefix_len
        self.start_method = start_method
        self.bootstrap_timeout_s = bootstrap_timeout_s
        self.shutdown_timeout_s = shutdown_timeout_s
        self.parent_sanitizer = parent_sanitizer
        self.clock = clock or time.monotonic
        self.dead_worker_grace_s = dead_worker_grace_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.idle_flush_s = idle_flush_s
        self.throttle_s_by_slot = dict(throttle_s_by_slot or {})
        self.mode = f"{base.mode}+proc{workers}"
        #: The columnar-frame interning table: workers ship event positions,
        #: the parent maps them back through the (identically derived)
        #: schedule of the base explorer.
        self._event_ids: Tuple[str, ...] = tuple(
            event.event_id for event in base.events
        )
        self._procs: List[multiprocessing.Process] = []
        self._ctx = None
        #: Per-slot receive pipes (the one-writer channels) and the slots
        #: whose pipe reached EOF — i.e. whose worker process has exited.
        self._conns: Dict[int, Any] = {}
        self._eof: set = set()
        #: Finals superseded by a replacement worker's flush for the same
        #: slot.  Retained (not clobbered) so the dead predecessor's
        #: replay-side work is still merged; payload epochs keep the merge
        #: idempotent per (slot, attempt).
        self._stale_finals: List[Dict[str, Any]] = []
        self._stop = None
        self._go = None
        self._started = False
        self._cap: Optional[int] = None
        self._stop_on_violation: Optional[bool] = None

    # ---------------------------------------------------------------- pool

    def prestart(self, cap: int = DEFAULT_CAP, stop_on_violation: bool = True) -> None:
        """Spawn and bootstrap the pool; workers block until ``explore``.

        The cap and stop policy are baked into each worker's config at spawn
        time, so a prestarted pool must be explored with the same values.
        """
        if self._started:
            raise RuntimeError("pool already started")
        ctx = multiprocessing.get_context(self.start_method)
        self._ctx = ctx
        self._conns = {}
        self._eof = set()
        self._stale_finals = []
        self._stop = ctx.Event()
        self._go = ctx.Event()
        self._cap = cap
        self._stop_on_violation = stop_on_violation
        self._procs = []
        for widx in range(self.workers):
            self._procs.append(self._spawn_worker(widx))
        self._started = True
        ready = set()
        deadline = time.monotonic() + self.bootstrap_timeout_s
        while len(ready) < self.workers:
            message = self._next_message(timeout=0.1)
            if message is not None:
                if message[0] == "ready":
                    ready.add(message[1])
                    continue
                if message[0] == "error":
                    self._shutdown(drain_finals=None)
                    raise RuntimeError(
                        f"worker {message[1]} failed to bootstrap:\n{message[2]}"
                    )
            # A slot whose pipe hit EOF before "ready" died bootstrapping;
            # EOF is definitive (the kernel closed the write end), so no
            # grace period is needed.
            dead = [
                self._procs[widx].name
                for widx in sorted(self._eof)
                if widx not in ready
            ]
            if dead:
                self._shutdown(drain_finals=None)
                raise RuntimeError(f"worker(s) died during bootstrap: {dead}")
            if time.monotonic() > deadline:
                self._shutdown(drain_finals=None)
                raise RuntimeError(
                    f"worker bootstrap exceeded {self.bootstrap_timeout_s:g}s"
                )

    def _make_config(
        self, widx: int, skip_below: int = 0, attempt: int = 1
    ) -> _WorkerConfig:
        return _WorkerConfig(
            worker_index=widx,
            workers=self.workers,
            cap=self._cap,
            stop_on_violation=self._stop_on_violation,
            prefix_cache=self.prefix_cache,
            collect_metrics=self.base.metrics.enabled,
            batch_size=self.batch_size,
            prefix_len=self.prefix_len,
            sanitize=self.sanitize,
            sanitize_sample_k=self.sanitize_sample_k,
            seed=self.seed,
            skip_below=skip_below,
            heartbeat_interval_s=self.heartbeat_interval_s,
            attempt=attempt,
            idle_flush_s=self.idle_flush_s,
            # Skew throttles apply to first incarnations only: a stolen
            # shard's replacement must run at full speed.
            throttle_s=(
                self.throttle_s_by_slot.get(widx) if attempt == 1 else None
            ),
        )

    def _spawn_worker(
        self, widx: int, skip_below: int = 0, attempt: int = 1
    ) -> multiprocessing.Process:
        """Start one worker-slot process (also the re-lease respawn path).

        Each spawn gets a fresh one-writer pipe for its slot.  The parent
        closes its copy of the send end immediately after the fork so the
        child holds the **only** write fd — that is what makes process death
        (even SIGKILL) surface as EOF on the receive end.
        """
        stale = self._conns.pop(widx, None)
        if stale is not None:
            # A replacement is superseding a dead predecessor whose pipe was
            # not yet harvested; its undelivered frames are re-derived by the
            # replacement (replays are deterministic) and deduped on commit.
            stale.close()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self.task,
                self._make_config(widx, skip_below=skip_below, attempt=attempt),
                send_conn,
                self._stop,
                self._go,
            ),
            name=f"erpi-proc-{widx}",
            daemon=True,
        )
        proc.start()
        send_conn.close()  # the child's copy is now the only write end
        self._conns[widx] = recv_conn
        self._eof.discard(widx)
        return proc

    # -------------------------------------------------------------- explore

    def explore(
        self,
        engine: ReplayEngine,
        assertions: Sequence[Assertion],
        cap: int = DEFAULT_CAP,
        stop_on_violation: bool = True,
    ) -> ExplorationResult:
        started = time.perf_counter()
        tracer = self.base.tracer
        metrics = self.base.metrics
        progress = self.base.progress
        ledger = self._ledger = _Ledger()
        self._preload(ledger)
        if ledger.violating is not None and stop_on_violation:
            # A resumed hunt whose journal already holds the bug.
            return self._result(ledger, started, None, {})
        if not self._started:
            self.prestart(cap=cap, stop_on_violation=stop_on_violation)
        elif cap != self._cap or stop_on_violation != self._stop_on_violation:
            raise ValueError(
                "prestarted pool was configured with different cap/stop settings"
            )
        root = tracer.begin("explore") if tracer.enabled else None

        pending: Dict[int, Tuple[int, str, Any]] = {}
        finals: Dict[int, Dict[str, Any]] = {}
        errors: Dict[int, str] = {}
        crash_reason: Optional[str] = None

        self._go.set()
        detector = QuietWorkerDetector(
            grace_s=self.dead_worker_grace_s, clock=self.clock
        )
        try:
            done = False
            while not done:
                message = self._next_message(timeout=0.05)
                idle = message is None
                while message is not None:
                    self._dispatch(message, pending, finals, errors)
                    message = self._next_message(timeout=0.0)
                # Commit strictly in candidate order.
                while True:
                    index = ledger.next_index
                    record = pending.pop(index, None)
                    if record is None:
                        record = self._abandoned_record(index)
                        if record is None:
                            break
                    ledger.next_index += 1
                    kind, payload = record[1], record[2]
                    if kind == "crashed":
                        # A generation-side budget crash is deterministic:
                        # every incarnation hits it at the same position.
                        crash_reason = payload
                        done = True
                        break
                    if kind == "pruned":
                        # A worker's replay-time memo hit: counted exactly
                        # like a stream-time prune (not explored, no verdict
                        # entry — matching a serial hunt, where the pipeline
                        # drops the candidate before it is ever yielded).
                        ledger.pruned += 1
                        self._on_commit(index, "pruned", "|".join(payload))
                        if metrics.enabled:
                            metrics.inc("interleavings.pruned")
                            metrics.inc("pruned.state_memo")
                    elif kind == "quarantine":
                        ledger.explored += 1
                        il_key = "|".join(payload.interleaving)
                        ledger.quarantined.append(payload)
                        ledger.verdicts[il_key] = "quarantine"
                        self._on_commit(
                            index, "quarantine", il_key,
                            error_type=payload.error_type,
                        )
                        if metrics.enabled:
                            metrics.inc("interleavings.quarantined")
                    elif kind == "ok":
                        ledger.explored += 1
                        il_key = "|".join(payload)
                        ledger.verdicts[il_key] = "ok"
                        self._on_commit(index, "ok", il_key)
                        if metrics.enabled:
                            metrics.inc("interleavings.replayed")
                    else:  # violation
                        ledger.explored += 1
                        il_ids, outcome = payload
                        if isinstance(outcome, (bytes, bytearray)):
                            # Columnar frames ship the outcome as pickle
                            # bytes; only a *committed* violation pays
                            # deserialisation.
                            outcome = pickle.loads(outcome)
                        il_key = "|".join(il_ids)
                        ledger.verdicts[il_key] = "violation"
                        ledger.violating = outcome
                        self._on_commit(
                            index, "violation", il_key,
                            messages=tuple(outcome.violations),
                        )
                        if metrics.enabled:
                            metrics.inc("interleavings.replayed")
                        done = stop_on_violation
                    if progress is not None:
                        progress.tick(metrics)
                    if done:
                        break
                if done:
                    break
                for widx in sorted(errors):
                    text = errors.pop(widx)
                    if not self._recover(widx, f"worker {widx} raised:\n{text}"):
                        ledger.quarantined.append(
                            self._worker_crash_quarantine(widx, text)
                        )
                        crash_reason = f"worker {widx} crashed"
                        done = True
                        break
                if done or self._settled(finals):
                    # Every batch precedes its worker's final on the pipe,
                    # so once the pool has settled nothing more can arrive:
                    # anything still pending is beyond a worker's
                    # (legitimate) stopping point.
                    break
                self._tick(finals, idle)
                if not idle:
                    detector.activity()
                    continue
                widx = self._dead_worker_index(finals)
                if widx is None:
                    detector.clear()
                elif detector.suspect(widx):
                    detector.clear()
                    exitcode = self._procs[widx].exitcode
                    if not self._recover(
                        widx,
                        f"worker {widx} died without reporting "
                        f"(exit code {exitcode})",
                    ):
                        crash = self._worker_crash_quarantine(
                            widx,
                            "(no traceback: the process died "
                            "without reporting)",
                        )
                        ledger.quarantined.append(crash)
                        crash_reason = crash.message
                        break
        finally:
            self._shutdown(drain_finals=finals)
            if metrics.enabled:
                # Committed = explored + parent-side prunes: both consume a
                # candidate index, so both come out of the discard residue.
                self._merge_metrics(
                    metrics, finals, ledger.explored + ledger.pruned
                )
            self.base._finish_observation(
                engine, root, ledger.explored, mode=self.mode
            )
            if metrics.enabled:
                self._merge_cache_gauges(metrics, finals)
        self._merge_sanitizer(finals)
        if ledger.violating is None and crash_reason is None:
            # A generation-side budget crash aborts a serial run too; any
            # worker that hit it reports the identical stream position.
            for flush in finals.values():
                if flush["crash_reason"]:
                    crash_reason = flush["crash_reason"]
                    break
        if ledger.violating is not None and stop_on_violation:
            crash_reason = None
        return self._result(ledger, started, crash_reason, finals)

    def _result(
        self,
        ledger: "_Ledger",
        started: float,
        crash_reason: Optional[str],
        finals: Dict[int, Dict[str, Any]],
    ) -> ExplorationResult:
        canonical = self._canonical_flush(finals)
        pruning_stats = dict(canonical["pruning_stats"]) if canonical else {}
        if ledger.pruned:
            pruning_stats["state_memo"] = (
                pruning_stats.get("state_memo", 0) + ledger.pruned
            )
        return ExplorationResult(
            mode=self.mode,
            found=ledger.violating is not None,
            explored=ledger.explored,
            elapsed_s=time.perf_counter() - started,
            crashed=crash_reason is not None,
            crash_reason=crash_reason,
            violating=ledger.violating,
            pruning_stats=pruning_stats,
            quarantined=ledger.quarantined,
            fault_events=canonical["fault_events"] if canonical else 0,
            verdicts=ledger.verdicts,
            worker_stats=self._worker_stats(finals),
        )

    # ---------------------------------------------------------------- hooks
    #
    # A plain pool commits, ends the hunt on the first worker failure and
    # stops once every worker has flushed.  The coordinator
    # (:mod:`repro.core.coordinator`) overrides these to journal commits,
    # respawn or abandon failed slots, and steal from trailing ones.

    def _preload(self, ledger: "_Ledger") -> None:
        """Fill ``ledger`` with verdicts committed before this run."""

    def _on_commit(self, index: int, verdict: str, il_key: str, **fields) -> None:
        """Called once per committed candidate index, in order."""

    def _abandoned_record(self, index: int) -> Optional[Tuple[int, str, Any]]:
        """A record the parent commits itself for ``index`` (no worker will)."""
        return None

    def _recover(self, widx: int, reason: str) -> bool:
        """Handle a failed worker slot; False ends the hunt ``crashed``."""
        return False

    def _settled(self, finals: Dict[int, Dict[str, Any]]) -> bool:
        """True once no further frame can arrive."""
        return len(finals) >= self.workers

    def _tick(self, finals: Dict[int, Dict[str, Any]], idle: bool) -> None:
        """Once per poll round, after commits and failure handling."""

    @staticmethod
    def _worker_stats(finals: Dict[int, Dict[str, Any]]) -> Dict[int, Dict[str, int]]:
        return {
            widx: {
                "yields": flush["yields"],
                "materialized": flush.get("materialized", 0),
                "ipc_bytes": flush.get("ipc_bytes", 0),
            }
            for widx, flush in sorted(finals.items())
        }

    # ------------------------------------------------------------- plumbing

    def _next_message(self, timeout: float):
        """Receive one frame from any slot pipe, harvesting EOFs.

        A closed pipe always polls ready, so a dead slot is noticed here —
        its connection is retired and the slot recorded in ``_eof`` — before
        the poll loop can go idle.  Returns ``None`` when no frame arrived
        within ``timeout`` (EOF harvesting alone still returns ``None``: it
        is not a message).
        """
        if not self._conns:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return None
        ready = mp_connection.wait(list(self._conns.values()), timeout=timeout)
        for conn in ready:
            widx = next(w for w, c in self._conns.items() if c is conn)
            try:
                return conn.recv()
            except (EOFError, OSError):
                # The slot's worker exited (clean exit or SIGKILL): the only
                # write fd closed.  A torn frame from a mid-send kill also
                # lands here and is confined to this slot's channel.
                conn.close()
                del self._conns[widx]
                self._eof.add(widx)
        return None

    def _dispatch(self, message, pending, finals, errors) -> None:
        kind = message[0]
        if kind == "cbatch":
            for record in self._decode_cbatch(message[2]):
                # setdefault, not assignment: a re-leased replacement worker
                # re-delivers results its predecessor already shipped, and
                # replays are deterministic, so first delivery wins.
                pending.setdefault(record[0], record)
        elif kind == "final":
            self._note_final(finals, message[1], message[2])
        elif kind == "error":
            errors[message[1]] = message[2]
        elif kind == "heartbeat":
            self._on_heartbeat(message[1], message[2])
        elif kind == "ready":
            # A replacement worker finished bootstrapping mid-run (initial
            # readiness is consumed by prestart before explore runs).
            self._on_ready(message[1])

    def _decode_cbatch(
        self, frame
    ) -> List[Tuple[int, str, Any]]:
        """Rehydrate one columnar frame into (index, kind, payload) records.

        Event positions are mapped back to ids through the parent's own
        interning table.  Violation payloads stay as pickle bytes here —
        commit-time code deserialises them only for the index that actually
        commits, so duplicate deliveries cost nothing beyond the dedup.
        """
        indices, kinds, ev, ev_lens, other = frame
        event_ids = self._event_ids
        records: List[Tuple[int, str, Any]] = []
        pos = 0
        oidx = 0
        for i, index in enumerate(indices):
            kind = kinds[i]
            count = ev_lens[i]
            il_ids = tuple(event_ids[p] for p in ev[pos:pos + count])
            pos += count
            if kind == _KIND_OK:
                records.append((index, "ok", il_ids))
            elif kind == _KIND_PRUNED:
                records.append((index, "pruned", il_ids))
            elif kind == _KIND_VIOLATION:
                records.append((index, "violation", (il_ids, other[oidx])))
                oidx += 1
            elif kind == _KIND_QUARANTINE:
                records.append((index, "quarantine", other[oidx]))
                oidx += 1
            else:
                records.append((index, "crashed", other[oidx]))
                oidx += 1
        return records

    def _note_final(self, finals, widx: int, flush: Dict[str, Any]) -> None:
        """Record a worker's final flush, retaining any superseded one.

        With re-leasing, a slot can flush twice — the crashed predecessor's
        partial (sent from its ``finally`` block) and the replacement's full
        flush.  The replacement wins the slot entry (its stream went
        furthest), but the predecessor's flush is kept aside so its
        replay-side counters still merge; the payload epochs make that merge
        idempotent per (slot, attempt) no matter which flush arrives first.
        """
        prior = finals.get(widx)
        if prior is not None:
            self._stale_finals.append(prior)
        finals[widx] = flush

    def _on_heartbeat(self, widx: int, yields: int) -> None:
        """Hook for work-stealing subclasses; a plain pool ignores beats."""

    def _on_ready(self, widx: int) -> None:
        """Hook for re-leasing subclasses; a plain pool never respawns."""

    def _worker_crash_quarantine(self, widx: int, detail: str) -> QuarantinedReplay:
        return QuarantinedReplay(
            interleaving=(),
            error_type="WorkerCrashed",
            message=(
                f"worker {widx} died before flushing results "
                f"(exit code {self._procs[widx].exitcode})"
            ),
            traceback=detail,
            fault_plan=self.base.fault_plan_description,
        )

    def _dead_worker_index(self, finals) -> Optional[int]:
        # EOF on a slot's pipe is definitive death — the kernel closed the
        # only write fd — and every frame the worker did send was already
        # drained before the EOFError surfaced (pipes deliver in order).
        for widx in sorted(self._eof):
            if widx not in finals:
                return widx
        return None

    def _shutdown(self, drain_finals: Optional[Dict[int, Dict[str, Any]]]) -> None:
        """Stop workers, drain their final flushes, reap every process.

        ``drain_finals`` collects late ``final`` messages (the metrics merge
        needs the flush of the worker that enumerated furthest); ``None``
        discards everything (bootstrap failure).  Bounded by the shutdown
        timeout: leftover workers are terminated, never waited on forever.
        """
        if not self._started:
            return
        self._stop.set()
        self._go.set()  # unblock workers still waiting for the go signal
        deadline = time.monotonic() + self.shutdown_timeout_s
        expected = drain_finals if drain_finals is not None else {}
        # Drain until every slot pipe reaches EOF (worker exited) or the
        # deadline lands; each worker closes its pipe on exit, so "all conns
        # gone" is exactly "all workers done sending".
        while self._conns and time.monotonic() < deadline:
            message = self._next_message(timeout=0.05)
            if message is not None and message[0] == "final":
                if drain_finals is not None:
                    self._note_final(expected, message[1], message[2])
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=1.0)
        # Late frames from terminated workers: drain without blocking.
        while self._conns:
            message = self._next_message(timeout=0.0)
            if message is None and self._conns:
                break  # frames exhausted but a pipe is still open: drop it
            if message is not None and message[0] == "final":
                if drain_finals is not None:
                    self._note_final(expected, message[1], message[2])
        for conn in self._conns.values():
            conn.close()
        self._conns = {}
        self._started = False

    # ---------------------------------------------------------------- merge

    @staticmethod
    def _canonical_flush(finals: Dict[int, Dict[str, Any]]):
        """The flush of the worker that enumerated furthest (ties: lowest
        index).  Its stream is a superset of every worker's committed work:
        the owner of the last committed candidate enumerated through it, so
        ``canonical_yields >= committed`` always holds."""
        if not finals:
            return None
        widx = min(finals, key=lambda w: (-finals[w]["yields"], w))
        return finals[widx]

    def _merge_metrics(self, metrics, finals, committed: int) -> None:
        canonical = self._canonical_flush(finals)
        if canonical is None:
            return
        if canonical["stream"] is not None:
            metrics.merge_payload(canonical["stream"])
        for flush in list(finals.values()) + self._stale_finals:
            if flush["replay"] is not None:
                metrics.merge_payload(flush["replay"])
        discarded = canonical["yields"] - committed
        if discarded > 0:
            metrics.inc("interleavings.discarded", discarded)
        for category, nbytes in canonical["meter"].items():
            metrics.set_gauge("resource.bytes." + category, nbytes)

    @staticmethod
    def _merge_cache_gauges(metrics, finals) -> None:
        entries = 0
        retained = 0
        any_cache = False
        for flush in finals.values():
            cache = flush["cache"]
            if cache is not None:
                any_cache = True
                entries += cache["entries"]
                retained += cache["retained_bytes"]
        if any_cache:
            metrics.set_gauge("cache.entries", entries)
            metrics.set_gauge("cache.retained_bytes", retained)

    def _merge_sanitizer(self, finals) -> None:
        """Adopt worker sanitizer state into the parent's sanitizer.

        Class samplers come from the canonical worker only (its stream is
        the longest, so its classes subsume every other worker's); shadow
        divergences and check counts are summed across workers (each worker
        shadow-checks only the replays its shard owns, so they are
        disjoint).  The caller then runs ``Sanitizer.finish`` against the
        parent's reference engine exactly as a serial hunt would.
        """
        parent = self.parent_sanitizer
        if parent is None:
            return
        canonical = self._canonical_flush(finals)
        if canonical is None or canonical["sanitizer"] is None:
            return
        watched = parent.watched_pruners
        for pruner, sampler in zip(watched, canonical["sanitizer"]["samplers"]):
            pruner.adopt_sampler(sampler)
        for flush in finals.values():
            data = flush["sanitizer"]
            if data is None:
                continue
            for divergence in data["divergences"]:
                parent.log.record(divergence)
            parent.checker.checks += data["checks"]
            parent.checker.overhead_s += data["overhead_s"]
