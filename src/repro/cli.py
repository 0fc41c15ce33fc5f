"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bugs``                       — list the Table-1 bug scenarios.
* ``hunt <bug>``                 — hunt one bug with a chosen mode.
* ``table1`` / ``table2``        — regenerate the paper's tables.
* ``fig8a``                      — the full three-mode sweep (slow).
* ``motivating``                 — the town-reports pruning arithmetic.
* ``fuzz``                       — fuzz the CRDT-collection subject.
* ``profile <bug>``              — resource-profile a bug workload.
* ``export <bug> <file>``        — dump a session as a Datalog program.
* ``sanitize``                   — differential soundness sweep over all bugs.
* ``faults``                     — hunt the seeded crash–recovery scenarios.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _cmd_bugs(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.bugs import all_scenarios

    rows = [
        [sc.name, sc.issue, sc.expected_events, sc.status, sc.reason, sc.description]
        for sc in all_scenarios()
    ]
    print(
        format_table(
            ["Bug", "Issue#", "#Events", "Status", "Reason", "Description"], rows
        )
    )
    return 0


def _cmd_hunt(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bugs import scenario

    sc = scenario(args.bug)
    recorded = record_scenario(sc)
    extras = []
    if args.workers > 1:
        extras.append(f"{args.workers} process workers")
    if args.prefix_cache:
        extras.append("prefix cache")
    if args.memo:
        extras.append("state memo")
    if args.dpor:
        extras.append("dpor")
    if args.sanitize is not None:
        extras.append(f"sanitize {args.sanitize:g}")
    if args.faults:
        plan = sc.fault_plan()
        extras.append(
            f"faults: {plan.describe() if plan is not None else '(none declared)'}"
        )
    if args.replay_timeout is not None:
        extras.append(f"watchdog {args.replay_timeout:g}s")
    if args.journal is not None:
        extras.append(f"journal -> {args.journal}")
    if args.resume is not None:
        extras.append(f"resume <- {args.resume}")
    tracer = None
    metrics = None
    progress = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
        extras.append(f"trace -> {args.trace}")
    if args.metrics or args.trace is not None:
        from repro.obs import MetricsRegistry, ProgressLine

        metrics = MetricsRegistry()
        if sys.stderr.isatty():
            progress = ProgressLine()
    extra_text = f" [{', '.join(extras)}]" if extras else ""
    print(
        f"{sc.name} (issue #{sc.issue}): {sc.expected_events} events recorded; "
        f"hunting with {args.mode} (cap {args.cap:,}){extra_text}..."
    )
    result = hunt(
        recorded,
        args.mode,
        cap=args.cap,
        seed=args.seed,
        workers=args.workers,
        prefix_cache=args.prefix_cache,
        memo=args.memo,
        dpor=args.dpor,
        sanitize=args.sanitize,
        faults=args.faults,
        replay_timeout_s=args.replay_timeout,
        tracer=tracer,
        metrics=metrics,
        progress=progress,
        journal=args.journal,
        resume=args.resume,
        checkpoint_every=args.checkpoint_every,
    )
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        print(
            f"trace: {len(tracer.spans)} span(s) "
            f"({', '.join(sorted(tracer.kinds()))}) -> {args.trace}"
        )
    if metrics is not None:
        print(metrics.summary())
    if args.memo or args.dpor:
        semantic = {
            name: result.pruning_stats.get(name, 0)
            for name, wanted in (("state_memo", args.memo), ("dpor", args.dpor))
            if wanted
        }
        print(
            "semantic pruning: "
            + ", ".join(f"{name} skipped {count:,}" for name, count in semantic.items())
        )
    coordination = getattr(result, "coordination", None)
    if coordination is not None:
        parts = [f"hunt {coordination['hunt_id']}"]
        if coordination["resumed_commits"]:
            parts.append(f"resumed {coordination['resumed_commits']} commit(s)")
        if coordination["releases"]:
            parts.append(f"re-leased {coordination['releases']} shard(s)")
        if coordination.get("steals"):
            parts.append(f"stole {coordination['steals']} trailing shard(s)")
        if coordination["abandoned_shards"]:
            parts.append(
                f"quarantined shard(s) {coordination['abandoned_shards']}"
            )
        parts.append(f"{coordination['checkpoints']} checkpoint(s)")
        print("coordination: " + "; ".join(parts))
    # Exit-code contract: reproduced -> 0 (even when the hunt had to recover
    # from worker crashes along the way); sanitizer divergence -> 2;
    # unrecoverable crash without a repro -> 3; clean "not reproduced" -> 1.
    status = 1
    if result.found:
        print(
            f"reproduced after {result.explored:,} interleavings "
            f"in {result.elapsed_s:.2f}s"
        )
        print(f"violation: {result.violating.violations[0]}")
        if args.show_interleaving:
            for event in result.violating.interleaving:
                # A hunt resumed past its violation only knows event ids.
                print(f"  {event.describe() if hasattr(event, 'describe') else event}")
        status = 0
    else:
        print(f"NOT reproduced within {result.explored:,} interleavings")
    if result.crashed:
        print(f"exploration crashed: {result.crash_reason}")
        if not result.found:
            status = 3
    if result.quarantined:
        print(f"{len(result.quarantined)} replay(s) quarantined:")
        for q in result.quarantined[:3]:
            print(f"  {q.describe()}")
    if result.sanitizer is not None:
        print(result.sanitizer.summary())
        if not result.sanitizer.ok:
            return 2
    return status


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bench.reporting import format_table
    from repro.bugs import all_scenarios

    rows = []
    for sc in all_scenarios():
        result = hunt(record_scenario(sc), "erpi", cap=args.cap)
        rows.append(
            [
                sc.name,
                sc.issue,
                sc.expected_events,
                sc.status,
                sc.reason,
                result.explored if result.found else "CAP",
            ]
        )
    print(
        format_table(
            ["BugName", "Issue#", "#Events", "Status", "Reason", "ER-pi replays"],
            rows,
        )
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.misconceptions import compute_matrix, format_matrix, matches_paper

    results = compute_matrix(cap=args.cap)
    print(format_matrix(results))
    mismatches = matches_paper(results)
    if mismatches:
        print("\ncells disagreeing with the paper:")
        for mismatch in mismatches:
            print(f"  {mismatch}")
        return 1
    print("\nmatches the paper's Table 2")
    return 0


def _cmd_fig8a(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt_all_modes
    from repro.bench.reporting import aggregate_ratios, format_fig8a_row
    from repro.bugs import all_scenarios

    per_bug = {}
    for sc in all_scenarios():
        per_bug[sc.name] = hunt_all_modes(sc, cap=args.cap)
        print(format_fig8a_row(sc.name, per_bug[sc.name]))
    print()
    print(aggregate_ratios(per_bug).summary())
    return 0


def _cmd_motivating(args: argparse.Namespace) -> int:
    from repro.core import ErPi, GroupConstraint, assert_read_equals
    from repro.net import Cluster
    from repro.rdl import CRDTLibrary

    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    erpi = ErPi(cluster, replica_scope="A", read_scoped=True)
    erpi.start()
    a, b = cluster.rdl("A"), cluster.rdl("B")
    a.set_add("problems", "otb")
    cluster.sync("A", "B")
    b.set_add("problems", "ph")
    cluster.sync("B", "A")
    b.set_remove("problems", "otb")
    cluster.sync("B", "A")
    a.set_value("problems")
    erpi.add_constraint(
        GroupConstraint(pairs=(("e1", "e2"), ("e4", "e5"), ("e7", "e8")))
    )
    report = erpi.end(assertions=[assert_read_equals("e10", frozenset({"ph"}))])
    print(report.summary())
    return 0 if report.violated else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.core.fuzzing import WorkloadFuzzer
    from repro.net import Cluster
    from repro.rdl import CRDTLibrary

    defects = set(args.defect or [])

    def factory() -> Cluster:
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid, defects=set(defects)))
        return cluster

    fuzzer = WorkloadFuzzer(factory, seed=args.seed)
    report = fuzzer.run(
        runs=args.runs, ops_per_run=args.ops, cap_per_run=args.cap
    )
    print(report.summary())
    for finding in report.findings[: args.show]:
        print(f"  {finding.describe()}")
    return 1 if report.findings else 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.bugs import scenario
    from repro.core import ErPi

    sc = scenario(args.bug)
    cluster = sc.build_cluster()
    erpi = ErPi(cluster, persist=True, memo=args.memo, dpor=args.dpor)
    erpi.start()
    sc.workload(cluster)
    for pair in sc.spec_groups():
        from repro.core.constraints import GroupConstraint

        erpi.add_constraint(GroupConstraint(pairs=(tuple(pair),)))
    report = erpi.end(assertions=sc.make_assertions(), cap=args.cap)
    text = erpi.export_datalog(args.output)
    print(
        f"exported {report.explored} explored interleavings "
        f"({len(text.encode()):,} bytes of Datalog) to {args.output}"
    )
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bench.reporting import format_table
    from repro.bugs import all_scenarios, fault_scenarios

    targets = [(sc, False) for sc in all_scenarios()]
    if args.faults:
        # Fault-bearing coverage: the crash-recovery scenarios with their
        # fault plans compiled in, explored to the cap (no early exit on the
        # seeded violation) so the pruners' fault-bearing classes actually
        # accumulate members for the differential check.
        targets.extend((sc, True) for sc in fault_scenarios())
    rows = []
    total_divergences = 0
    for sc, with_faults in targets:
        recorded = record_scenario(sc)
        result = hunt(
            recorded,
            "erpi",
            cap=args.cap,
            seed=args.seed,
            prefix_cache=args.prefix_cache and not with_faults,
            sanitize=args.rate,
            sanitize_sample_k=args.sample_k,
            faults=with_faults,
            stop_on_violation=not with_faults,
        )
        report = result.sanitizer
        total_divergences += len(report.divergences)
        rows.append(
            [
                sc.name + ("+faults" if with_faults else ""),
                result.explored,
                report.classes_checked,
                report.members_checked,
                report.shadow_checks,
                len(report.divergences),
                "OK" if report.ok else "DIVERGED",
            ]
        )
    print(
        format_table(
            ["Bug", "Replays", "Classes", "Members", "Shadow", "Div", "Verdict"],
            rows,
        )
    )
    if total_divergences:
        print(f"\n{total_divergences} divergence(s): pruning or cache is UNSOUND")
        return 1
    print("\nall equivalence classes and shadow replays agree")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.bench.harness import hunt, record_scenario
    from repro.bench.reporting import format_table
    from repro.bugs import fault_scenarios

    rows = []
    missed = 0
    for sc in fault_scenarios():
        result = hunt(
            record_scenario(sc),
            args.mode,
            cap=args.cap,
            seed=args.seed,
            memo=args.memo,
            dpor=args.dpor,
            faults=True,
            replay_timeout_s=args.replay_timeout,
        )
        if not result.found:
            missed += 1
        rows.append(
            [
                sc.name,
                sc.issue,
                sc.fault_plan().describe(),
                result.explored if result.found else "CAP",
                len(result.quarantined),
                "FOUND" if result.found else "missed",
            ]
        )
    print(
        format_table(
            ["Bug", "Issue#", "Fault plan", "Replays", "Quar", "Verdict"], rows
        )
    )
    if missed:
        print(f"\n{missed} crash-recovery scenario(s) NOT reproduced within the cap")
        return 1
    print("\nall crash-recovery scenarios reproduced")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bugs import scenario
    from repro.core.profiling import ResourceProfiler

    sc = scenario(args.bug)
    cluster = sc.build_cluster()
    profiler = ResourceProfiler(
        cluster, spec_groups=sc.spec_groups(), use_prefix_cache=args.prefix_cache
    )
    profiler.start()
    sc.workload(cluster)
    report = profiler.end(cap=args.cap)
    print(f"profiling {sc.name} across {report.replayed} interleavings:")
    print(report.summary())
    print("\nslowest interleavings:")
    for profile in report.worst("duration_s", top=3):
        print(
            f"  #{profile.index}: {profile.duration_s * 1e3:.2f} ms, "
            f"{profile.failed_ops} failed ops, {profile.state_bytes} B state"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ER-pi: exhaustive interleaving replay (Middleware 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("bugs", help="list the Table-1 bug scenarios")

    hunt = sub.add_parser("hunt", help="hunt one bug scenario")
    hunt.add_argument("bug", help="scenario name, e.g. Roshi-2")
    hunt.add_argument("--mode", choices=("erpi", "dfs", "rand"), default="erpi")
    hunt.add_argument("--cap", type=int, default=10_000)
    hunt.add_argument("--seed", type=int, default=0)
    hunt.add_argument("--show-interleaving", action="store_true")
    hunt.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard candidate replays across N shared-nothing worker "
        "processes (deterministic: verdicts match a serial hunt)",
    )
    hunt.add_argument(
        "--prefix-cache",
        action="store_true",
        help="reuse cached event-prefix snapshots between replays",
    )
    hunt.add_argument(
        "--memo",
        action="store_true",
        help="memoize canonical state digests and skip replays whose suffix "
        "outcome is already known from an equal intermediate state "
        "(sound-or-off: auto-disabled for subjects without "
        "canonical_state(), and never applied across fault events)",
    )
    hunt.add_argument(
        "--dpor",
        action="store_true",
        help="sleep-set/happens-before pruning: skip permutations that only "
        "reorder independent events (per-replica read/write footprints)",
    )
    hunt.add_argument(
        "--sanitize",
        nargs="?",
        const=1.0,
        type=float,
        default=None,
        metavar="RATE",
        help="differentially check pruning classes and (at RATE, default 1.0)"
        " shadow-replay cache-accelerated results; exit 2 on divergence",
    )
    hunt.add_argument(
        "--faults",
        action="store_true",
        help="compile the scenario's fault plan into the schedule and "
        "interleave the crash/recover events exhaustively",
    )
    hunt.add_argument(
        "--replay-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-replay wall-clock watchdog; a replay exceeding it is "
        "quarantined instead of hanging the hunt",
    )
    hunt.add_argument(
        "--trace",
        nargs="?",
        const="erpi-trace.jsonl",
        default=None,
        metavar="PATH",
        help="record spans for every pipeline stage and write them as a "
        "Chrome-trace-compatible JSONL file (default: erpi-trace.jsonl); "
        "implies --metrics",
    )
    hunt.add_argument(
        "--metrics",
        action="store_true",
        help="count interleavings generated/pruned/replayed/quarantined, "
        "cache hits, messages and replay latency; print the totals",
    )
    durability = hunt.add_mutually_exclusive_group()
    durability.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="run a coordinated hunt: every committed verdict is "
        "checkpointed to this journal (crashed workers are re-leased; a "
        "killed hunt can --resume)",
    )
    durability.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume a previously killed coordinated hunt from its journal: "
        "committed verdicts are replayed from the checkpoint, workers skip "
        "past them, and the final verdict map matches an uninterrupted run",
    )
    hunt.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        metavar="N",
        help="journal durability-barrier stride, in committed verdicts",
    )

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--cap", type=int, default=10_000)

    table2 = sub.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--cap", type=int, default=600)

    fig8a = sub.add_parser("fig8a", help="the full Figure-8a sweep (slow)")
    fig8a.add_argument("--cap", type=int, default=10_000)

    sub.add_parser("motivating", help="the town-reports motivating example")

    fuzz = sub.add_parser("fuzz", help="fuzz the CRDT-collection subject")
    fuzz.add_argument("--runs", type=int, default=10)
    fuzz.add_argument("--ops", type=int, default=5)
    fuzz.add_argument("--cap", type=int, default=200)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--show", type=int, default=3)
    fuzz.add_argument(
        "--defect",
        action="append",
        help="seed a library defect flag (repeatable), e.g. no_conflict_resolution",
    )

    profile = sub.add_parser("profile", help="resource-profile a bug workload")
    profile.add_argument("bug")
    profile.add_argument("--cap", type=int, default=300)
    profile.add_argument(
        "--prefix-cache",
        action="store_true",
        help="reuse cached event-prefix snapshots between replays",
    )

    export = sub.add_parser(
        "export", help="export a bug workload's session as a Datalog program"
    )
    export.add_argument("bug")
    export.add_argument("output")
    export.add_argument("--cap", type=int, default=200)
    export.add_argument(
        "--memo",
        action="store_true",
        help="arm the state-digest memo; prunes land as memo(digest, il) facts",
    )
    export.add_argument(
        "--dpor",
        action="store_true",
        help="arm sleep-set pruning; prunes carry footprint(il, event, mode, "
        "key) facts",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="differential soundness sweep: sample every pruner class and "
        "shadow-replay cached results across all bug scenarios",
    )
    sanitize.add_argument("--cap", type=int, default=200)
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument("--rate", type=float, default=1.0)
    sanitize.add_argument("--sample-k", type=int, default=2)
    sanitize.add_argument(
        "--prefix-cache",
        action="store_true",
        help="also exercise (and shadow-check) prefix-cache replay",
    )
    sanitize.add_argument(
        "--faults",
        action="store_true",
        help="also sweep the crash-recovery scenarios with their fault "
        "plans compiled in (covers fault-bearing equivalence classes)",
    )

    faults = sub.add_parser(
        "faults",
        help="hunt every seeded crash-recovery scenario with its fault plan",
    )
    faults.add_argument("--mode", choices=("erpi", "dfs", "rand"), default="erpi")
    faults.add_argument("--cap", type=int, default=10_000)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--memo",
        action="store_true",
        help="enable the state-digest memo pruner (inert on fault-bearing "
        "candidates, which is every candidate here — exercises the "
        "fault-boundary gating)",
    )
    faults.add_argument(
        "--dpor",
        action="store_true",
        help="enable sleep-set pruning (fault events are barriers: nothing "
        "commutes across a crash, recover or partition)",
    )
    faults.add_argument(
        "--replay-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-replay watchdog (default 30s); quarantines hung replays",
    )

    return parser


_COMMANDS = {
    "bugs": _cmd_bugs,
    "hunt": _cmd_hunt,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig8a": _cmd_fig8a,
    "motivating": _cmd_motivating,
    "fuzz": _cmd_fuzz,
    "profile": _cmd_profile,
    "export": _cmd_export,
    "sanitize": _cmd_sanitize,
    "faults": _cmd_faults,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
