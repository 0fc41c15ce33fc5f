"""Shared machinery for the simulated RDL subjects.

Each subject (Roshi, OrbitDB, ReplicaDB, Yorkie, CRDTs) is a Python
reimplementation of the third-party library's *replication semantics* — the
part ER-pi's integration testing interacts with.  All subjects implement the
host protocol in :mod:`repro.net.replica`:

* ``sync_payload(target)`` / ``apply_sync(payload, sender)``
* ``checkpoint()`` / ``restore(snapshot)``
* ``value()``

plus their library-specific operation surface (the functions ER-pi proxies).

Seeded defects: every subject takes a ``defects`` set of string flags.  An
empty set is the fixed, correct library; each flag re-introduces one reported
bug or misconception exactly where the real library had it.  The flags are
listed per subject module and registered in :mod:`repro.bugs.registry`.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set

from repro.fastcopy import copy_state


class RDLError(Exception):
    """An error surfaced by a simulated library (what app code would see as
    an exception or error return from the real RDL)."""


class RDLReplica(abc.ABC):
    """Base class for one replica of a simulated RDL."""

    #: Defect flags this subject understands; subclasses override.
    KNOWN_DEFECTS: FrozenSet[str] = frozenset()

    def __init__(self, replica_id: str, defects: Optional[Iterable[str]] = None) -> None:
        if not replica_id:
            raise ValueError("replica_id must be non-empty")
        self.replica_id = replica_id
        self.defects: Set[str] = set(defects or ())
        unknown = self.defects - set(self.KNOWN_DEFECTS)
        if unknown:
            raise ValueError(
                f"{type(self).__name__} does not understand defect flags {sorted(unknown)}"
            )

    def has_defect(self, flag: str) -> bool:
        return flag in self.defects

    # --- host protocol ----------------------------------------------------

    @abc.abstractmethod
    def sync_payload(self, target_replica_id: str) -> Any:
        """The payload this replica would ship to ``target_replica_id``.

        Contract: building a payload must not mutate the sender's state, and
        the returned payload must be ship-and-forget — a fresh object per
        call, never mutated afterwards by sender or receiver.  The replay
        engine's prefix cache relies on both properties (it shares the
        sender's state snapshot across a ``SYNC_REQ`` and shares queued
        payloads between transport snapshots).
        """

    @abc.abstractmethod
    def apply_sync(self, payload: Any, from_replica_id: str) -> None:
        """Integrate a payload received from a peer."""

    @abc.abstractmethod
    def value(self) -> Any:
        """The observable state app code reads."""

    def checkpoint(self) -> Any:
        return copy_state(self.__dict__)

    def restore(self, snapshot: Any) -> None:
        self.__dict__.clear()
        self.__dict__.update(copy_state(snapshot))

    def canonical_state(self) -> Any:
        """The replica's full semantic state, for canonical hashing.

        The semantic memo pruner (:mod:`repro.core.pruning.semantic`)
        digests this value (via :func:`repro.statehash.state_digest`) to
        decide whether a replay prefix reached an already-seen cluster
        state.  The contract: two replicas with equal ``canonical_state``
        must behave identically under every future event sequence —
        include *everything* that influences behaviour (volatile and
        durable data, clocks, arrival orders), and nothing that does not
        (caches that are recomputed, debug counters).  In practice it
        covers what ``checkpoint``/``restore`` round-trip plus liveness,
        and never object identity (locks, functions, anything whose
        ``repr`` carries an address — the digest refuses those) or
        counters that grow with every call, which would keep two equal
        states from ever digesting the same.

        The default returns ``None``, which disables semantic pruning for
        clusters containing this subject — sound-or-off, like the prefix
        cache's ``supports_state_view`` gate.
        """
        return None

    # --- crash/recover protocol ------------------------------------------
    #
    # A crash discards the replica process; what survives is whatever the
    # real library persists (a log on disk, a backing Redis, nothing).
    # ``durable_snapshot`` captures exactly that persistent slice, and
    # ``recover`` rebuilds a fresh replica from it — volatile state
    # (in-memory caches, un-flushed buffers) must come back at its
    # post-restart value, not its pre-crash one.  The defaults model a
    # library whose whole state is durable; subjects with genuinely
    # volatile state override both.

    #: True when shipping a sync payload advances durable state (e.g. a
    #: push that records a durable watermark).  The prefix-reuse engine
    #: must materialise the sender before a SYNC_REQ when this is set.
    mutates_on_push = False

    def durable_snapshot(self) -> Any:
        """The state that survives a crash of this replica's process."""
        return self.checkpoint()

    def recover(self, snapshot: Any) -> None:
        """Rebuild this replica from a ``durable_snapshot`` after a crash."""
        self.restore(snapshot)

    # --- copy-on-write snapshot protocol (engine-internal) ---------------
    #
    # The prefix-reuse replay engine avoids paying a deep copy on every
    # restore *and* every snapshot: it installs cached state by reference
    # (``adopt``) and snapshots live state by reference (``state_view``),
    # then calls ``restore`` to materialise a private copy only right
    # before the next mutation.  Both are only sound while the engine is
    # the replica's sole writer and it materialises before every mutation.

    #: Whether ``state_view``/``adopt`` capture this replica's full state.
    #: True for replicas whose state lives entirely in ``__dict__`` (the
    #: base ``checkpoint``/``restore`` shape).  Subjects that keep state in
    #: external resources or use a custom snapshot format must set this
    #: False — the replay engine then skips prefix reuse for their cluster.
    supports_state_view = True

    def adopt(self, snapshot: Any) -> None:
        """Install ``snapshot`` WITHOUT copying; read-only until restore."""
        self.__dict__.clear()
        self.__dict__.update(snapshot)

    def state_view(self) -> Any:
        """An outer-shallow state snapshot sharing all inner containers."""
        return dict(self.__dict__)

    def __repr__(self) -> str:
        flags = f", defects={sorted(self.defects)}" if self.defects else ""
        return f"{type(self).__name__}({self.replica_id!r}{flags})"
