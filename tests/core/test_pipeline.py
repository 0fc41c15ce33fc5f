"""One hunt pipeline: serial hunts and process workers build the same stack.

``hunt()`` builds its explorer with :func:`build_pipeline`; a pool worker
rebuilds its own from the hunt's :class:`HuntConfig`.  The two must agree
on everything that decides a verdict — the schedule, its validity
constraints, the fault description, the replay executor and the pruner
pipeline — with one deliberate difference: the state memo prunes in the
stream serially and at replay time on the pool.  The regression tests
below pin down the two places the copies this module replaced had
drifted: the resource budget and the journal's watchdog identity.
"""

import json
import pickle

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs.registry import fault_scenario_names, scenario, scenario_names
from repro.core import ErPi
from repro.core.errors import ResourceExhausted
from repro.core.journal import JournalError
from repro.core.pipeline import HuntConfig, build_pipeline
from repro.core.pruning import Pruner
from repro.core.resources import ResourceMeter
from repro.net import Cluster
from repro.rdl import CRDTLibrary

SCENARIOS = [(name, False) for name in scenario_names()] + [
    (name, True) for name in fault_scenario_names()
]


def pruner_names(explorer):
    return [pruner.name for pruner in explorer.pipeline.pruners]


def digest(explorer, engine):
    executor = engine.executor
    return {
        "schedule": [event.event_id for event in explorer.events],
        "order_constraints": explorer.order_constraints,
        "fault_plan": explorer.fault_plan_description,
        "executor": (type(executor).__name__, executor.timeout_s),
    }


@pytest.mark.parametrize("semantic", [False, True], ids=["plain", "memo+dpor"])
@pytest.mark.parametrize("name,faults", SCENARIOS, ids=[n for n, _ in SCENARIOS])
def test_serial_and_worker_builds_agree(name, faults, semantic):
    config = HuntConfig(
        scenario_name=name,
        faults=faults,
        memo=semantic,
        dpor=semantic,
        replay_timeout_s=30.0 if semantic else None,
    )
    recorded = record_scenario(scenario(name))
    serial = build_pipeline(recorded, config)
    worker, engine, assertions, audit_events = config.build()

    assert digest(serial, recorded.engine) == digest(worker, engine)
    assert audit_events == recorded.events
    assert [a.__name__ for a in assertions] == [
        a.__name__ for a in recorded.scenario.make_assertions()
    ]
    if faults:
        assert serial.fault_plan_description
        assert serial.order_constraints
    # The memo is the one stage placed by backend: last in the serial
    # stream, at replay time on the pool.
    if semantic:
        assert pruner_names(serial) == pruner_names(worker) + ["state_memo"]
        assert pruner_names(worker)[-1] == "dpor"
        assert serial.replay_memo is None
        assert worker.replay_memo.name == "state_memo"
    else:
        assert pruner_names(serial) == pruner_names(worker)
        assert serial.replay_memo is None and worker.replay_memo is None


def test_pool_parent_places_the_memo_like_its_workers():
    config = HuntConfig(scenario_name="OrbitDB-4", memo=True, dpor=True, workers=2)
    parent = build_pipeline(record_scenario(scenario("OrbitDB-4")), config)
    worker = config.build()[0]
    assert pruner_names(parent) == pruner_names(worker)
    assert parent.replay_memo is not None


def test_hunt_config_survives_a_pickle_round_trip():
    config = HuntConfig(
        scenario_name="Roshi-CR", mode="erpi", seed=3, fixed=True, faults=True,
        replay_timeout_s=2.5, memo=True, dpor=True, cap=123, workers=2,
        prefix_cache=True, budget_bytes=20_000, coordinated=True,
    )
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    assert clone.identity() == config.identity()


def test_each_hunt_installs_its_own_watchdog():
    """A reused recording does not keep an earlier hunt's executor."""
    recorded = record_scenario(scenario("Roshi-1"))
    hunt(recorded, "erpi", cap=5, replay_timeout_s=30.0)
    assert recorded.engine.executor.timeout_s == 30.0
    hunt(recorded, "erpi", cap=5)
    assert recorded.engine.executor.timeout_s is None


class ExhaustingPruner(Pruner):
    """Runs out of budget on its ``allowed + 1``-th candidate."""

    name = "exhausting"

    def __init__(self, allowed):
        super().__init__()
        self.allowed = allowed

    def key(self, interleaving):
        self.allowed -= 1
        if self.allowed < 0:
            raise ResourceExhausted("budget exhausted inside a pruner")
        return tuple(event.event_id for event in interleaving)


def test_session_still_raises_on_a_budget_crash():
    """``ErPi.end`` replays through ``Explorer.explore``, which turns a
    budget crash into a crashed result; the session re-raises it."""
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    erpi = ErPi(cluster)
    erpi.start()
    cluster.rdl("A").set_add("s", "x")
    cluster.sync("A", "B")
    cluster.rdl("B").set_add("s", "y")
    cluster.sync("B", "A")
    with pytest.raises(ResourceExhausted, match="inside a pruner"):
        erpi.end(extra_pruners=[ExhaustingPruner(allowed=3)])


class TestBudgetReachesWorkers:
    """Regression: the pool used to drop the meter's budget, so a budgeted
    Figure-10 hunt crashed serially but ran to its cap on two workers."""

    @pytest.mark.parametrize("name", ["Roshi-3", "OrbitDB-4"])
    def test_budget_crash_is_backend_independent(self, name):
        def run(workers):
            return hunt(
                record_scenario(scenario(name), fixed=True), "erpi", cap=2_000,
                meter=ResourceMeter(budget_bytes=20_000), workers=workers,
                stop_on_violation=False,
            )

        serial, pooled = run(1), run(2)
        assert serial.crashed
        assert serial.explored < 2_000
        assert pooled.crashed
        assert (pooled.explored, pooled.crash_reason) == (
            serial.explored, serial.crash_reason
        )


def truncate_journal(path, keep_commits, drop_header_keys=()):
    """Keep the header (minus ``drop_header_keys``) and the first
    ``keep_commits`` commits, then a torn trailing line."""
    records = [json.loads(line) for line in open(path) if line.strip()]
    for key in drop_header_keys:
        records[0]["hunt"].pop(key, None)
    commits = [r for r in records[1:] if r["type"] == "commit"][:keep_commits]
    with open(path, "w") as handle:
        for record in [records[0]] + commits:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.write('{"type": "commit", "index": %d, "verd' % keep_commits)


class TestJournalPinsTheWatchdog:
    CAP = 40

    def journaled(self, **kwargs):
        return hunt(
            record_scenario(scenario("Roshi-1")), "erpi", cap=self.CAP,
            workers=2, stop_on_violation=False, **kwargs,
        )

    def test_resume_under_a_different_watchdog_is_refused(self, tmp_path):
        """Regression: a 20-commit prefix resumed under a near-zero
        watchdog used to be accepted, mixing ``ok`` verdicts with
        ``quarantine`` ones no uninterrupted run produces."""
        path = str(tmp_path / "hunt.jsonl")
        self.journaled(journal=path)
        truncate_journal(path, keep_commits=20)
        with pytest.raises(JournalError, match="replay_timeout_s"):
            self.journaled(resume=path, replay_timeout_s=1e-9)

    def test_older_header_without_a_watchdog_still_resumes(self, tmp_path):
        """Journal compatibility: a header written before the watchdog and
        the budget were pinned resumes when neither is requested."""
        path = str(tmp_path / "older.jsonl")
        full = self.journaled(journal=path)
        truncate_journal(
            path, keep_commits=20,
            drop_header_keys=("replay_timeout_s", "budget_bytes"),
        )
        resumed = self.journaled(resume=path)
        assert resumed.coordination["resumed_commits"] == 20
        assert resumed.verdicts == full.verdicts
        assert resumed.explored == full.explored
