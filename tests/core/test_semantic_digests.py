"""State digests are a function of the semantic state, and memo hits commit
the same verdicts on every backend.

The state memo and the incremental digest cache only pay off when two
replays that reach the same semantic state hash the same.  A digest that
folds in a command counter or an object address never repeats: the memo
never merges, and the sampled cross-check of incremental digests fails and
switches them off.  These tests pin the digest to the semantic state — the
same interleaving replayed twice, or in another process, digests the same —
and pin what that buys on Roshi, whose state lives in a simulated Redis
farm.  They also pin how a process hunt commits a worker's memo hit: as the
candidate's ``ok`` verdict, so the verdict map does not depend on how many
workers (each with its own memo) shared the hunt.
"""

import itertools
import json
import os
import subprocess
import sys
import threading
from enum import Enum

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs import fault_scenario_names, scenario
from repro.bugs.registry import all_scenarios
from repro.core.journal import HuntJournal
from repro.core.pipeline import HuntConfig, build_pipeline
from repro.obs.metrics import MetricsRegistry
from repro.statehash import canonical_repr, state_digest

TABLE1_NAMES = [sc.name for sc in all_scenarios()]
CR_NAMES = fault_scenario_names()
ROSHI_TABLE1 = ("Roshi-1", "Roshi-2", "Roshi-3")

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def first_candidates(name, limit=3):
    """The scenario's first hunt candidates (fault plan compiled for CR)."""
    recorded = record_scenario(scenario(name))
    explorer = build_pipeline(recorded, HuntConfig(name, faults=name in CR_NAMES))
    return recorded, list(itertools.islice(explorer.candidates(), limit))


def replica_views(cluster):
    """Per replica: (canonical repr, digest) of ``(up, canonical_state())``."""
    views = {}
    for rid in cluster.replica_ids():
        host = cluster.host(rid)
        state = (host.up, host.rdl.canonical_state())
        views[rid] = (canonical_repr(state), state_digest(state))
    return views


class _Color(Enum):
    RED = 1


# ------------------------------------------------------ semantic digests


@pytest.mark.parametrize(
    "value",
    [threading.RLock(), [].append, object(), {"farm": [threading.Lock()]}],
    ids=["rlock", "bound-builtin", "object", "nested-lock"],
)
def test_statehash_refuses_address_bearing_reprs(value):
    with pytest.raises(TypeError, match="object address"):
        state_digest(value)


def test_statehash_digests_enum_members_by_their_repr():
    assert canonical_repr({"c": _Color.RED}) == "{'c':<_Color.RED: 1>,}"


@pytest.mark.parametrize("name", TABLE1_NAMES + CR_NAMES)
def test_same_interleaving_replayed_twice_digests_the_same(name):
    recorded, candidates = first_candidates(name)
    engine = recorded.engine
    target = candidates[0]
    engine.replay(target)
    first = replica_views(engine.cluster)
    # Other replays in between advance whatever bookkeeping the subject
    # keeps outside its semantic state.
    for other in candidates[1:]:
        engine.replay(other)
    engine.replay(target)
    second = replica_views(engine.cluster)
    assert {rid: view[1] for rid, view in first.items()} == {
        rid: view[1] for rid, view in second.items()
    }
    for text, _digest in first.values():
        assert " at 0x" not in text


_CHECKPOINT_DIGESTS = """
import json, sys
from repro.bench.harness import record_scenario
from repro.bugs import scenario
out = {}
for name in sys.argv[1:]:
    engine = record_scenario(scenario(name)).engine
    engine.restore()
    out[name] = engine.cluster.state_digest()
print(json.dumps(out))
"""


def test_checkpoint_digest_is_the_same_in_a_fresh_process():
    names = TABLE1_NAMES + CR_NAMES
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _CHECKPOINT_DIGESTS, *names],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    theirs = json.loads(completed.stdout)
    for name in names:
        engine = record_scenario(scenario(name)).engine
        engine.restore()
        assert engine.cluster.state_digest() == theirs[name], name


# ----------------------------------------------------- Roshi under the memo


@pytest.mark.parametrize("name,cap", [("Roshi-1", 300), ("Roshi-2", 300), ("Roshi-3", 200)])
def test_roshi_fixed_memo_hunt_merges_states_and_stays_sound(name, cap):
    metrics = MetricsRegistry()
    result = hunt(
        record_scenario(scenario(name), fixed=True), "erpi", cap=cap,
        memo=True, dpor=True, sanitize=1.0, metrics=metrics,
        stop_on_violation=False,
    )
    assert not result.found and not result.quarantined
    assert metrics.counter("digest.verify_failures") == 0
    assert metrics.counter("pruned.state_memo") > 0
    assert result.sanitizer is not None and result.sanitizer.ok
    assert not result.sanitizer.divergences


@pytest.mark.parametrize("name", ROSHI_TABLE1 + ("Roshi-CR", "Roshi-CR2"))
def test_roshi_defective_builds_are_still_found_under_the_memo(name):
    result = hunt(
        record_scenario(scenario(name)), "erpi", cap=10_000,
        memo=True, dpor=True, faults=name in CR_NAMES,
    )
    assert result.found, name


# ------------------------------------------- memo hits on the process pool


def pool_hunt(workers, memo=True, **kwargs):
    return hunt(
        record_scenario(scenario("OrbitDB-4"), fixed=True), "erpi", cap=400,
        workers=workers, memo=memo, dpor=True, stop_on_violation=False,
        **kwargs,
    )


def test_pool_memo_hits_commit_as_ok_on_any_worker_count():
    metrics = MetricsRegistry()
    two = pool_hunt(2, metrics=metrics)
    three = pool_hunt(3)
    assert two.verdicts == three.verdicts
    assert two.explored == three.explored == 400
    # A memo hit is the candidate's ok verdict, so the committed map is the
    # one the same pool commits without the memo.
    assert two.verdicts == pool_hunt(2, memo=False).verdicts
    # The replays the memo saved are counted replay-side, and the
    # exploration identity still holds.
    assert metrics.counter("replay.memo_hits") > 0
    assert metrics.counter("interleavings.replayed") == 400
    assert metrics.consistent()


def test_journal_with_pruned_commits_resumes_to_the_same_verdicts(tmp_path):
    """Older builds journaled a pool memo hit as ``pruned``.  Such a
    journal, torn mid-hunt, resumes to the uninterrupted verdict map."""
    path = str(tmp_path / "pruned.jsonl")
    uninterrupted = pool_hunt(2, journal=path)
    records = [json.loads(line) for line in open(path) if line.strip()]
    kept, rewritten = 150, 0
    with open(path, "w") as handle:
        for record in records:
            if record["type"] == "final":
                continue
            if record["type"] == "commit":
                if record["index"] >= kept:
                    continue
                if record["verdict"] == "ok" and record["index"] % 3 == 0:
                    record["verdict"] = "pruned"
                    rewritten += 1
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.write('{"type": "commit", "index": %d, "verd' % kept)
    assert rewritten > 0
    assert len(HuntJournal.load(path).commits) == kept
    resumed = pool_hunt(2, resume=path)
    assert resumed.coordination["resumed_commits"] == kept
    assert resumed.verdicts == uninterrupted.verdicts
    assert resumed.explored == uninterrupted.explored
