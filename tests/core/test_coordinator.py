"""Checkpointed hunt coordination (crash recovery + resume).

The coordinator's whole contract is *recovery without divergence*: whatever
dies — a SIGKILLed worker mid-batch or the hunt parent itself — the final
verdict map must be bit-for-bit the map an
uninterrupted run commits, and the exploration identity
``generated == pruned + replayed + quarantined + discarded`` must survive
the recovery.  These tests kill things and assert exactly that.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.bench.harness import hunt, make_explorer, record_scenario
from repro.bugs.registry import scenario
from repro.core.coordinator import CoordinatedHuntExplorer
from repro.core.journal import HuntJournal, JournalError
from repro.core.procpool import CallableWorkerTask, ProcessParallelExplorer
from repro.core.session import persist_exploration
from repro.datalog.store import InterleavingStore
from repro.obs.metrics import MetricsRegistry

CAP = 60
NAME = "Roshi-1"


def plain_stack():
    recorded = record_scenario(scenario(NAME))
    explorer = make_explorer(recorded, "erpi")
    return (
        explorer,
        recorded.engine,
        recorded.scenario.make_assertions(),
        recorded.events,
    )


def _wrap_kill(explorer, kill_at, sentinel):
    """Worker slot 1 SIGKILLs itself at candidate ``kill_at``.

    With a ``sentinel`` path only the first incarnation dies (it drops the
    sentinel before the kill, so the re-leased replacement survives); with
    ``sentinel=None`` every incarnation dies — the abandon path.
    """
    inner = explorer.candidates

    def candidates():
        me = multiprocessing.current_process().name
        for index, interleaving in enumerate(inner()):
            if index == kill_at and me == "erpi-proc-1":
                if sentinel is None:
                    os.kill(os.getpid(), signal.SIGKILL)
                elif not os.path.exists(sentinel):
                    with open(sentinel, "w") as handle:
                        handle.write("killed\n")
                    os.kill(os.getpid(), signal.SIGKILL)
            yield interleaving

    explorer.candidates = candidates
    return explorer


def kill_once_stack(sentinel, kill_at):
    explorer, engine, assertions, events = plain_stack()
    return _wrap_kill(explorer, kill_at, sentinel), engine, assertions, events


def kill_always_stack(kill_at):
    explorer, engine, assertions, events = plain_stack()
    return _wrap_kill(explorer, kill_at, None), engine, assertions, events


@pytest.fixture(scope="module")
def baseline():
    """The bit-for-bit reference: a 1-worker pool over the same stream."""
    recorded = record_scenario(scenario(NAME))
    explorer = make_explorer(recorded, "erpi")
    pool = ProcessParallelExplorer(
        explorer, CallableWorkerTask(plain_stack), workers=1,
        prefix_cache=True, seed=0,
    )
    return pool.explore(
        recorded.engine, recorded.scenario.make_assertions(),
        cap=CAP, stop_on_violation=False,
    )


def coordinated(task, journal=None, metrics=None, **kwargs):
    recorded = record_scenario(scenario(NAME))
    explorer = make_explorer(recorded, "erpi")
    if metrics is not None:
        explorer.metrics = metrics
        recorded.engine.metrics = metrics
    pool = CoordinatedHuntExplorer(
        explorer, task, workers=2, journal=journal,
        prefix_cache=True, seed=0, **kwargs,
    )
    result = pool.explore(
        recorded.engine, recorded.scenario.make_assertions(),
        cap=CAP, stop_on_violation=False,
    )
    return result, pool


def truncate_journal(path, keep_commits):
    """Simulate a parent killed mid-hunt: keep the header and the first
    ``keep_commits`` commits, then a torn trailing line."""
    records = [json.loads(line) for line in open(path) if line.strip()]
    keep = [records[0]]
    kept = 0
    for record in records[1:]:
        if record["type"] == "commit" and kept < keep_commits:
            keep.append(record)
            kept += 1
    with open(path, "w") as handle:
        for record in keep:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.write('{"type": "commit", "index": %d, "verd' % keep_commits)


class TestHappyPath:
    def test_coordinated_hunt_matches_uninterrupted_run(self, baseline, tmp_path):
        path = str(tmp_path / "happy.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "happy"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(plain_stack), journal=journal,
            metrics=metrics, checkpoint_every=16,
        )
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert result.found == baseline.found
        assert metrics.consistent()
        loaded = HuntJournal.load(path)
        assert loaded.is_final
        assert loaded.final_record["found"] == baseline.found
        assert len(loaded.commits) == CAP
        assert loaded.checkpoints >= 3


class TestCrashRecovery:
    def test_sigkilled_worker_is_re_leased_and_verdicts_match(
        self, baseline, tmp_path
    ):
        """The tentpole invariant: SIGKILL a worker between IPC frames and
        the hunt still commits the uninterrupted run's verdict map, with the
        exploration identity intact."""
        sentinel = str(tmp_path / "kill.sentinel")
        path = str(tmp_path / "kill.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "kill"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(kill_once_stack, (sentinel, 10)),
            journal=journal, metrics=metrics,
            heartbeat_interval_s=0.1,
            backoff_base_s=0.01, batch_size=8, checkpoint_every=16,
        )
        assert os.path.exists(sentinel), "worker 1 never reached the kill point"
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert not result.crashed, result.crash_reason
        assert metrics.consistent(), metrics.counters_with_prefix("interleavings")
        events = result.coordination["lease_events"]
        assert (1, 2, "re-leased") in events, events
        assert result.coordination["releases"] == 1
        assert metrics.counter("coordinator.leases.re-leased") == 1
        loaded = HuntJournal.load(path)
        assert len(loaded.commits) == CAP
        assert (1, 2, "re-leased") in loaded.lease_events

    def test_kill_mid_batch_merges_metrics_exactly_once(
        self, baseline, tmp_path
    ):
        """Regression for the metrics-merge double count: a re-leased slot
        can surface two finals (the dead incarnation's partial and its
        replacement's full shard).  Epoch-tagged merges keep exactly one
        count per committed candidate, so the merged replay counter equals
        the committed total and the exploration identity holds."""
        sentinel = str(tmp_path / "merge.sentinel")
        path = str(tmp_path / "merge.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "merge"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(kill_once_stack, (sentinel, 10)),
            journal=journal, metrics=metrics,
            heartbeat_interval_s=0.1,
            backoff_base_s=0.01, batch_size=8, checkpoint_every=16,
        )
        assert result.explored == CAP
        assert metrics.consistent(), metrics.counters_with_prefix("interleavings")
        assert metrics.counter("interleavings.replayed") == result.explored
        assert metrics.counter("interleavings.generated") == result.explored

    def test_repeatedly_dying_shard_is_quarantined_not_the_hunt(
        self, baseline, tmp_path
    ):
        path = str(tmp_path / "abandon.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "abandon"}})
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(kill_always_stack, (10,)),
            journal=journal, metrics=metrics,
            heartbeat_interval_s=0.1,
            backoff_base_s=0.01, max_releases=1, batch_size=8,
        )
        assert result.coordination["abandoned_shards"] == [1]
        assert not result.crashed, result.crash_reason
        assert result.explored == baseline.explored
        assert set(result.verdicts) == set(baseline.verdicts)
        abandoned = [
            q for q in result.quarantined if q.error_type == "ShardAbandoned"
        ]
        assert abandoned
        assert all(q.shard == 1 for q in abandoned)
        assert "(shard 1)" in abandoned[0].describe()
        kept = sum(
            1 for key, verdict in result.verdicts.items()
            if verdict == baseline.verdicts[key]
        )
        assert kept + len(abandoned) == CAP
        assert metrics.counter("coordinator.shards.quarantined") == 1
        assert metrics.consistent()


class TestResume:
    def test_resume_replays_checkpoint_to_identical_verdicts(
        self, baseline, tmp_path
    ):
        path = str(tmp_path / "resume.jsonl")
        journal = HuntJournal.create(path, {"hunt": {"hunt_id": "resume"}})
        full, _ = coordinated(
            CallableWorkerTask(plain_stack), journal=journal, checkpoint_every=16,
        )
        assert full.verdicts == baseline.verdicts
        truncate_journal(path, keep_commits=20)
        resumed_journal = HuntJournal.load(path)
        assert len(resumed_journal.commits) == 20
        metrics = MetricsRegistry()
        result, _ = coordinated(
            CallableWorkerTask(plain_stack), journal=resumed_journal,
            metrics=metrics, checkpoint_every=16,
        )
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert result.coordination["resumed_commits"] == 20
        assert metrics.counter("coordinator.commits.resumed") == 20
        assert metrics.consistent()
        final = HuntJournal.load(path)
        assert final.is_final
        assert len(final.commits) == CAP

    def test_resumes_a_journal_written_by_an_older_build(
        self, baseline, tmp_path
    ):
        """Journal compatibility: a journal in the format of builds that
        leased worker slots through a lock farm — a ``degraded`` record and
        a ``re-acquired`` lease status, neither written any more — torn
        mid-hunt, still loads and resumes to the uninterrupted verdict map."""
        path = str(tmp_path / "older.jsonl")
        records = [
            {
                "type": "header", "version": 1,
                "hunt": {
                    "scenario": NAME, "mode": "erpi", "seed": 0, "cap": CAP,
                    "workers": 2, "faults": False, "fixed": False,
                    "prefix_cache": False, "memo": False, "dpor": False,
                    "hunt_id": "0ld0ld0ld0ld",
                },
            },
            {"type": "lease", "slot": 0, "attempt": 1, "status": "acquired"},
            {"type": "lease", "slot": 1, "attempt": 1, "status": "acquired"},
            {"type": "degraded", "component": "lock-farm",
             "reason": "lock farm lost quorum during renewal"},
            {"type": "lease", "slot": 1, "attempt": 1, "status": "re-acquired"},
        ]
        kept = 25
        for index, (il_key, verdict) in enumerate(
            list(baseline.verdicts.items())[:kept]
        ):
            record = {"type": "commit", "index": index, "verdict": verdict,
                      "il": il_key}
            if verdict == "violation":
                record["messages"] = ["(violation journaled by an older build)"]
            records.append(record)
            if index == 15:
                records.append({"type": "checkpoint", "seq": 1, "committed": 16})
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.write('{"type": "commit", "index": %d, "verd' % kept)
        loaded = HuntJournal.load(path)
        assert len(loaded.commits) == kept
        assert (1, 1, "re-acquired") in loaded.lease_events
        result = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            resume=path, stop_on_violation=False,
        )
        assert result.verdicts == baseline.verdicts
        assert result.explored == baseline.explored
        assert result.coordination["resumed_commits"] == kept
        final = HuntJournal.load(path)
        assert final.is_final
        assert len(final.commits) == CAP

    def test_harness_resume_stops_early_on_journaled_violation(self, tmp_path):
        """stop_on_violation resume whose journal already holds the bug:
        no pool is spawned, the journaled violation is reported."""
        path = str(tmp_path / "found.jsonl")
        result = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path, checkpoint_every=16,
        )
        assert result.found
        truncate_journal(path, keep_commits=result.explored)
        resumed = hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            resume=path,
        )
        assert resumed.found
        assert resumed.violating.violated
        assert resumed.violating.violations
        assert resumed.explored == result.explored
        assert resumed.coordination["resumed_commits"] == result.explored

    def test_harness_refuses_mismatched_resume(self, tmp_path):
        path = str(tmp_path / "mismatch.jsonl")
        hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path, stop_on_violation=False,
        )
        truncate_journal(path, keep_commits=5)
        with pytest.raises(JournalError, match="configuration mismatch"):
            hunt(
                record_scenario(scenario(NAME)), "erpi", cap=CAP + 1,
                workers=2, resume=path,
            )

    def test_harness_refuses_resuming_a_final_journal(self, tmp_path):
        path = str(tmp_path / "final.jsonl")
        hunt(
            record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
            journal=path,
        )
        with pytest.raises(JournalError, match="nothing to resume"):
            hunt(
                record_scenario(scenario(NAME)), "erpi", cap=CAP, workers=2,
                resume=path,
            )


class TestPersistence:
    def test_lease_and_degraded_facts_land_in_the_store(self, tmp_path):
        result, _ = coordinated(CallableWorkerTask(plain_stack))
        store = InterleavingStore()
        persist_exploration(store, result)
        leases = store.leases()
        assert (0, 1, "acquired") in leases
        assert (1, 1, "acquired") in leases
        # The export renders them alongside the verdict facts.
        from repro.datalog.export import export_program

        program = export_program(store)
        assert 'lease(0, 1, "acquired").' in program


class TestCLIExitCodes:
    def test_recovered_but_found_exits_zero(self, capsys, tmp_path):
        """Exit-code audit: a hunt that re-leased its way past a crash and
        still reproduced the bug reports success."""
        import unittest.mock as mock

        from repro import cli
        from repro.core.explorers import ExplorationResult

        recovered = ExplorationResult(
            mode="erpi+coord2", found=True, explored=17, elapsed_s=0.1,
            violating=type(
                "V", (), {"violated": True, "violations": ["boom"],
                          "interleaving": ()},
            )(),
        )
        recovered.coordination = {
            "hunt_id": "x", "backend": "redlock", "degraded": False,
            "degraded_reason": None, "lease_events": [], "releases": 1,
            "abandoned_shards": [], "checkpoints": 2, "resumed_commits": 0,
            "journal": str(tmp_path / "j.jsonl"),
        }
        with mock.patch("repro.bench.harness.hunt", return_value=recovered):
            status = cli.main(["hunt", NAME, "--workers", "2", "--cap", "60"])
        out = capsys.readouterr().out
        assert status == 0
        assert "re-leased 1 shard(s)" in out

    def test_unrecoverable_crash_without_repro_exits_three(self, capsys):
        import unittest.mock as mock

        from repro import cli
        from repro.core.explorers import ExplorationResult

        crashed = ExplorationResult(
            mode="erpi+coord2", found=False, explored=5, elapsed_s=0.1,
            crashed=True, crash_reason="generation budget exhausted",
        )
        with mock.patch("repro.bench.harness.hunt", return_value=crashed):
            status = cli.main(["hunt", NAME, "--workers", "2", "--cap", "60"])
        out = capsys.readouterr().out
        assert status == 3
        assert "exploration crashed" in out
