#!/usr/bin/env python3
"""End-to-end hunt benchmark: time-to-verdict of real ER-pi hunts.

Run from the repository root:

    python3 huntbench/run.py --workload hunt --seed 1 --seconds 15 --trace 0

It hunts the workload's scenarios through the public harness
(``repro.bench.harness.record_scenario`` / ``hunt``) in fresh processes,
checks every verdict against a serial reference (``huntbench.gate``), and
prints each metric by name and unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every verdict is right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from huntbench import metrics  # noqa: E402
from huntbench.gate import run_gate  # noqa: E402
from huntbench.workloads import WORKLOADS  # noqa: E402

#: A run must end within three minutes, whatever the child processes do.
RUN_DEADLINE_S = 170.0
SCRATCH = ROOT / ".huntbench_tmp"
TRACES = ROOT / ".huntbench_out"


class ChildFailed(RuntimeError):
    pass


def _child(args: List[str], timeout_s: float) -> Dict[str, Any]:
    """Run ``huntbench.measure`` in a fresh process; return its JSON line.

    The child leads its own process group, so a timeout also reaches the
    pool workers it spawned.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "huntbench.measure", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"measurement exceeded {timeout_s:.0f}s") from None
    finally:
        # Pool workers are daemonic and exit with their parent; anything
        # left in the group after the child ended is killed here.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"measurement exited with code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise ChildFailed("measurement printed no result")
    return json.loads(lines[-1])


def _print_metrics(block: Dict[str, Dict[str, Any]]) -> None:
    for name, entry in block.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[workload_name]
    common = ["--workload", workload_name, "--seed", str(seed)]
    scratch = SCRATCH / str(os.getpid())
    trace_path: Optional[Path] = None
    try:
        reference = _child(
            [*common, "--reference", "--tmp-dir", str(scratch / "reference")],
            deadline - time.monotonic(),
        )
        measured_args = [
            *common, "--seconds", str(seconds), "--trace", str(int(trace)),
            "--tmp-dir", str(scratch / "run"),
        ]
        if trace:
            TRACES.mkdir(exist_ok=True)
            trace_path = TRACES / f"{workload_name}-seed{seed}.trace.jsonl"
            measured_args += ["--trace-path", str(trace_path)]
        measured = _child(measured_args, deadline - time.monotonic())
    except ChildFailed as exc:
        print(f"huntbench: {workload_name}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    passes = measured["passes"]
    attempted, failures = run_gate(workload, passes, reference)
    for failure in failures:
        print(f"VERDICT FAIL {workload_name}: {failure}")
    correct = not failures
    print(f"VERDICT PARITY: {'TRUE' if correct else 'FALSE'} "
          f"({workload_name}: {attempted - len(failures)}/{attempted} hunts)")

    def ttv(kind: str) -> List[float]:
        return [
            metrics.pass_end_to_end(p["hunts"])["time_to_verdict_s"]
            for p in passes if p["kind"] == kind
        ]

    untraced = [p for p in passes if p["kind"] == "untraced"]
    if trace:
        values = metrics.run_layers(
            [p["hunts"] for p in passes if p["kind"] == "layered"],
            uses_processes=workload.uses_processes,
            cpu_count=measured["cpu_count"],
            untraced_ttv=ttv("untraced"),
            traced_ttv=ttv("traced"),
            proc2_ttv=ttv("proc2"),
            verdict_fail_ratio=len(failures) / attempted,
        )
        block = metrics.metric_block(values, metrics.PER_LAYER)
        layered = sum(p["kind"] == "layered" for p in passes)
        print(f"{workload_name}: per-layer metrics (median of {layered} layered "
              f"passes; spans in {trace_path.relative_to(ROOT)})")
    else:
        per_pass = [metrics.pass_end_to_end(p["hunts"]) for p in untraced]
        values = {
            name: metrics.median(values[name] for values in per_pass)
            for name in per_pass[0]
        }
        values["peak_rss_mb"] = measured["peak_rss_mb"]
        block = metrics.metric_block(values, metrics.END_TO_END)
        print(f"{workload_name}: end-to-end metrics (median of {len(untraced)} passes; "
              f"verdict_fail_ratio = {len(failures) / attempted:.6g})")
    _print_metrics(block)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": block,
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end ER-pi hunt benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"huntbench: no ER-pi sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
