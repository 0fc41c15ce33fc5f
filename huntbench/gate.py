"""The verdict gate: every hunt of every run is checked before any metric
counts.

The reference is an untimed serial hunt of the same scenarios, builds and
caps with default flags.  Against it:

* a defective hunt (``hunt``) must reproduce its bug, with the reference's
  replay count and violating schedule;
* a fixed-build sweep must end with no violation, crash or quarantine;
* a process-backed sweep must commit the reference's verdict map (same
  schedules, same verdicts, same order) and replay count;
* a serial accelerated sweep may replay no more than the reference;
* every pass, traced or not, must commit exactly what the first pass did.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from huntbench.workloads import Workload


def verdict_digest(verdicts: Iterable[Tuple[str, str]]) -> str:
    """SHA-256 over an ordered verdict map's ``schedule=verdict`` lines."""
    digest = hashlib.sha256()
    for schedule, verdict in verdicts:
        digest.update(f"{schedule}={verdict}\n".encode())
    return digest.hexdigest()


def check_hunt(
    workload: Workload, hunt: Mapping[str, Any], reference: Mapping[str, Any]
) -> Optional[str]:
    """Why ``hunt`` fails the gate, or None when its verdict is right."""
    name = hunt["scenario"]
    if hunt["crashed"]:
        return f"{name}: hunt crashed"
    if hunt["quarantined"]:
        return f"{name}: {hunt['quarantined']} replay(s) quarantined"
    if not workload.fixed:
        if not hunt["found"]:
            return f"{name}: defective build, bug not reproduced"
        if hunt["explored"] != reference["explored"]:
            return (
                f"{name}: {hunt['explored']} replays to the bug, "
                f"serial reference took {reference['explored']}"
            )
        if hunt["violating"] != reference["violating"]:
            return f"{name}: violating schedule differs from the serial reference"
        return None
    if hunt["found"]:
        return f"{name}: fixed build reported a violation"
    if workload.uses_processes:
        if hunt["explored"] != reference["explored"]:
            return (
                f"{name}: committed {hunt['explored']} replays, "
                f"serial reference {reference['explored']}"
            )
        if hunt["verdict_digest"] != reference["verdict_digest"]:
            return f"{name}: verdict map differs from the serial reference"
        return None
    if hunt["explored"] > reference["explored"]:
        return (
            f"{name}: replayed {hunt['explored']}, more than the serial "
            f"reference's {reference['explored']}"
        )
    return None


#: Fields every pass's hunt of a scenario must share with the first pass's.
IDENTITY = ("found", "explored", "violating", "verdict_digest", "quarantined")


def check_identity(
    hunt: Mapping[str, Any], baseline: Mapping[str, Any]
) -> Optional[str]:
    """Why ``hunt`` committed something else than the baseline hunt."""
    for key in IDENTITY:
        if hunt[key] != baseline[key]:
            return (
                f"{hunt['scenario']}: {key}={hunt[key]!r}, "
                f"first pass {baseline[key]!r}"
            )
    return None


def run_gate(
    workload: Workload,
    passes: List[Mapping[str, Any]],
    reference: Mapping[str, Mapping[str, Any]],
) -> Tuple[int, List[str]]:
    """Check every hunt of every measured pass.

    Returns (hunts attempted, failure messages); each failing hunt adds one
    message.  The first pass sets the identity baseline every later pass —
    traced or not — must commit again.
    """
    attempted = 0
    failures: List[str] = []
    baseline: Dict[str, Mapping[str, Any]] = {}
    for measured in passes:
        for hunt in measured["hunts"]:
            attempted += 1
            name = hunt["scenario"]
            problem = check_hunt(workload, hunt, reference[name])
            if problem is None:
                problem = check_identity(hunt, baseline.setdefault(name, hunt))
            if problem is not None:
                failures.append(f"{measured['kind']} pass {measured['index']}: {problem}")
    return attempted, failures
