"""The benchmark's workloads: which scenarios each one hunts, and how.

Every workload is ER-pi mode.  A *pass* hunts each of the workload's
scenarios once, in an order that is a pure function of the run seed and the
pass index, so two runs with the same seed do identical work.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Table 1's twelve bugs, in Table-1 order.
TABLE1 = (
    "Roshi-1", "Roshi-2", "Roshi-3",
    "OrbitDB-1", "OrbitDB-2", "OrbitDB-3", "OrbitDB-4", "OrbitDB-5",
    "ReplicaDB-1", "ReplicaDB-2",
    "Yorkie-1", "Yorkie-2",
)
#: The five seeded crash-recovery scenarios; they hunt with their fault plans.
CRASH_RECOVERY = ("Roshi-CR", "Roshi-CR2", "OrbitDB-CR", "ReplicaDB-CR", "Yorkie-CR")

#: The paper's exploration cap.
PAPER_CAP = 10_000

#: Fixed-build sweeps and their caps (replays committed per scenario).
#: Roshi-2's whole space is 5,040 schedules, so the paper cap exhausts it.
#: Roshi-3 is sized on purpose: the cap counts replays, not candidates, and
#: its pruners reject most candidates, so generate+prune cost grows faster
#: than the cap (1,000 replays took 6,890 candidates, 3,000 took 169,267, and
#: 10,000 did not finish within minutes).  At 500 it still makes
#: generate+prune the dominant layer.  The other caps keep one sweep-accel
#: pass near eight seconds on a 2-core machine.
SWEEP_CAPS = (
    ("Roshi-2", PAPER_CAP),
    ("Roshi-3", 500),
    ("OrbitDB-4", 1_000),
    ("ReplicaDB-2", 1_000),
    ("Yorkie-1", 500),
    ("ReplicaDB-CR", 1_000),
)


def process_workers() -> int:
    """Two workers, but never more than the machine has cores."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    name: str
    #: (scenario, cap) in canonical order.
    scenarios: Tuple[Tuple[str, int], ...]
    #: Hunt the repaired library (a sweep) instead of the defective one.
    fixed: bool
    #: Extra ``hunt()`` keyword arguments.
    flags: Dict[str, object] = field(default_factory=dict)
    #: Coordinate the hunt through a journal (``hunt(journal=...)``).
    journal: bool = False

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.scenarios)

    @property
    def uses_processes(self) -> bool:
        return self.journal or int(self.flags.get("workers", 1)) > 1

    def cap(self, name: str) -> int:
        return dict(self.scenarios)[name]


def faults_for(name: str) -> bool:
    """Crash-recovery scenarios always hunt with their fault plans."""
    return name in CRASH_RECOVERY


def _workloads() -> Dict[str, Workload]:
    workers = process_workers()
    hunts = tuple((name, PAPER_CAP) for name in TABLE1 + CRASH_RECOVERY)
    return {
        "hunt": Workload("hunt", hunts, fixed=False),
        "sweep-accel": Workload(
            "sweep-accel", SWEEP_CAPS, fixed=True,
            flags={"prefix_cache": True, "memo": True, "dpor": True},
        ),
        "sweep-proc2": Workload(
            "sweep-proc2", SWEEP_CAPS, fixed=True, flags={"workers": workers},
        ),
        "sweep-journal": Workload(
            "sweep-journal", SWEEP_CAPS, fixed=True, flags={"workers": workers},
            journal=True,
        ),
    }


WORKLOADS = _workloads()


def pass_order(names: Tuple[str, ...], seed: int, pass_index: int) -> List[str]:
    """The scenario order of one pass: a pure function of seed and pass.

    String seeds hash through SHA-512 inside :mod:`random`, so the order
    does not depend on ``PYTHONHASHSEED`` or the process.
    """
    order = list(names)
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order
