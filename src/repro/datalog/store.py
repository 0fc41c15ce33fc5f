"""Interleaving persistence on the Datalog database (paper section 5.1).

Schema (all facts):

* ``event(event_id, replica_id, kind, op_name)`` — one per captured event.
* ``sync_pair(req_event_id, exec_event_id)`` — grouped sync request/execute.
* ``interleaving(il_id, position, event_id)`` — the interleaving contents.
* ``il_meta(il_id, length)`` — per-interleaving length.
* ``pruned(il_id, algorithm)`` — marked by the pruning passes.
* ``explored(il_id, verdict)`` — replay bookkeeping ("ok" / "violation").
* ``divergence(class_key, rep_id, member_id, field)`` — soundness sanitizer
  findings: an equivalence-class member whose observables differ from its
  representative (or a cached replay differing from a fresh one).
* ``fault(event_id, replica_id, kind)`` — injected fault events
  (crash/recover/partition/heal) compiled from a session's FaultPlan.
* ``quarantined(il_id, error_type)`` — replays captured by the quarantine
  path (unexpected subject exception or watchdog timeout).
* ``span(span_id, parent_id, kind, duration_us)`` — observability spans
  (``explore``/``generate``/``prune:<algo>``/``replay``/...) mirrored from
  a :class:`~repro.obs.tracer.Tracer`.
* ``metric(name, value)`` — observability counter/gauge totals mirrored
  from a :class:`~repro.obs.metrics.MetricsRegistry`.
* ``lease(slot, attempt, status)`` — the worker-slot incarnation log
  (acquired / expired / re-leased / stolen / quarantined) of a coordinated
  hunt (:mod:`repro.core.coordinator`).
* ``memo(digest, il_id)`` — a state-memo prune: the canonical cluster
  digest whose memoized suffix outcome short-circuited interleaving
  ``il_id`` (:class:`~repro.core.pruning.semantic.StateMemoPruner`).
* ``footprint(il_id, event_id, mode, key)`` — the static read/write
  footprint model entry that justified pruning ``il_id`` as a reordering
  of independent events (:class:`~repro.core.pruning.semantic.DPORPruner`;
  mode is ``r``/``w``/``b``, key a ``replica:``/``chan:`` location).

ER-pi's runtime uses this store as its persistence layer; the exploration
loop reads back only interleavings that are neither pruned nor explored.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datalog.engine import Database, query
from repro.datalog.terms import Atom, Variable, vars_


class InterleavingStore:
    """A persistence facade mapping ER-pi's objects onto Datalog relations.

    Alongside the relations themselves the facade maintains per-relation
    hash indexes (interleaving contents, pruned-by-algorithm, explored
    verdicts), so the hot session reads — ``surviving_ids``,
    ``pruned_ids``, ``unexplored_ids``, ``interleaving`` — are dictionary
    lookups instead of linear scans over every fact.  The facade is the
    write path: facts added straight to ``self.db`` are still queryable via
    Datalog but invisible to the indexed accessors.
    """

    def __init__(self) -> None:
        self.db = Database()
        self._next_il_id = 0
        self._il_events: Dict[int, List[str]] = {}
        self._pruned_all: set = set()
        self._pruned_by_algo: Dict[str, set] = {}
        self._explored_verdicts: Dict[int, str] = {}
        self._explored_by_verdict: Dict[str, set] = {}

    # --------------------------------------------------------------- events

    def persist_event(
        self, event_id: str, replica_id: str, kind: str, op_name: str
    ) -> None:
        self.db.add("event", event_id, replica_id, kind, op_name)

    def persist_sync_pair(self, req_event_id: str, exec_event_id: str) -> None:
        self.db.add("sync_pair", req_event_id, exec_event_id)

    def event_ids(self) -> List[str]:
        return sorted(row[0] for row in self.db.rows("event"))

    # --------------------------------------------------------- interleavings

    def persist_interleaving(self, event_ids: Sequence[str]) -> int:
        """Store one interleaving; returns its integer id."""
        il_id = self._next_il_id
        self._next_il_id += 1
        for position, event_id in enumerate(event_ids):
            self.db.add("interleaving", il_id, position, event_id)
        self.db.add("il_meta", il_id, len(event_ids))
        self._il_events[il_id] = list(event_ids)
        return il_id

    def persist_many(self, interleavings: Iterable[Sequence[str]]) -> List[int]:
        return [self.persist_interleaving(il) for il in interleavings]

    def interleaving(self, il_id: int) -> List[str]:
        return list(self._il_events.get(il_id, ()))

    def interleaving_ids(self) -> List[int]:
        # Ids are allocated by an ascending counter, so insertion order is
        # already sorted order.
        return list(self._il_events)

    def count(self) -> int:
        return self.db.size("il_meta")

    # -------------------------------------------------------------- pruning

    def mark_pruned(self, il_id: int, algorithm: str) -> None:
        if self.db.add("pruned", il_id, algorithm):
            self._pruned_all.add(il_id)
            self._pruned_by_algo.setdefault(algorithm, set()).add(il_id)

    def pruned_ids(self, algorithm: Optional[str] = None) -> List[int]:
        if algorithm is None:
            return sorted(self._pruned_all)
        return sorted(self._pruned_by_algo.get(algorithm, ()))

    def surviving_ids(self) -> List[int]:
        pruned = self._pruned_all
        return [il_id for il_id in self._il_events if il_id not in pruned]

    # ------------------------------------------------------------- replay

    def mark_explored(self, il_id: int, verdict: str) -> None:
        if self.db.add("explored", il_id, verdict):
            self._explored_verdicts[il_id] = verdict
            self._explored_by_verdict.setdefault(verdict, set()).add(il_id)

    def explored(self) -> Dict[int, str]:
        return dict(self._explored_verdicts)

    def unexplored_ids(self) -> List[int]:
        explored = self._explored_verdicts
        pruned = self._pruned_all
        return [
            il_id
            for il_id in self._il_events
            if il_id not in pruned and il_id not in explored
        ]

    def violations(self) -> List[int]:
        return sorted(self._explored_by_verdict.get("violation", ()))

    # ----------------------------------------------------------- sanitizer

    def persist_divergence(
        self, class_key: str, rep_id: str, member_id: str, field: str
    ) -> None:
        """Record one sanitizer finding as a queryable fact."""
        self.db.add("divergence", class_key, rep_id, member_id, field)

    def divergences(self) -> List[Tuple[str, str, str, str]]:
        return sorted(self.db.rows("divergence"))

    # --------------------------------------------------------------- faults

    def persist_fault(self, event_id: str, replica_id: str, kind: str) -> None:
        """Record one injected fault event as a queryable fact."""
        self.db.add("fault", event_id, replica_id, kind)

    def faults(self) -> List[Tuple[str, str, str]]:
        return sorted(self.db.rows("fault"))

    def persist_quarantine(self, il_id: int, error_type: str) -> None:
        """Record one quarantined replay as a queryable fact."""
        self.db.add("quarantined", il_id, error_type)

    def quarantines(self) -> List[Tuple[int, str]]:
        return sorted(self.db.rows("quarantined"))

    # -------------------------------------------------------- observability

    def persist_span(
        self, span_id: int, parent_id: int, kind: str, duration_us: int
    ) -> None:
        """Record one tracer span as a queryable fact."""
        self.db.add("span", span_id, parent_id, kind, duration_us)

    def spans(self) -> List[Tuple[int, int, str, int]]:
        return sorted(self.db.rows("span"))

    def persist_metric(self, name: str, value: int) -> None:
        """Record one metric total as a queryable fact."""
        self.db.add("metric", name, value)

    def metrics(self) -> List[Tuple[str, int]]:
        return sorted(self.db.rows("metric"))

    # --------------------------------------------------------- coordination

    def persist_lease(self, slot: int, attempt: int, status: str) -> None:
        """Record one worker-slot incarnation event as a queryable fact."""
        self.db.add("lease", slot, attempt, status)

    def leases(self) -> List[Tuple[int, int, str]]:
        return sorted(self.db.rows("lease"))

    # ---------------------------------------------------- semantic pruning

    def persist_memo(self, digest: str, il_id: int) -> None:
        """Record one state-memo prune as a queryable fact."""
        self.db.add("memo", digest, il_id)

    def memos(self) -> List[Tuple[str, int]]:
        return sorted(self.db.rows("memo"))

    def persist_footprint(
        self, il_id: int, event_id: str, mode: str, key: str
    ) -> None:
        """Record one footprint-model entry behind a DPOR prune."""
        self.db.add("footprint", il_id, event_id, mode, key)

    def footprints(self) -> List[Tuple[int, str, str, str]]:
        return sorted(self.db.rows("footprint"))
