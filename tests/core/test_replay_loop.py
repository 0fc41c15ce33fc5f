"""The one replay loop: every start point and boundary hook, one behaviour.

``ReplayEngine`` replays every interleaving through one routine: it starts
from the longest cached prefix or from a full checkpoint restore, runs the
remaining events in one loop, and runs one boundary hook after each event
(store the prefix-cache entry, or update the memo's digests).  These tests
pin down that the choice of start point and hook never changes what a
replay observes, and that the per-replay defences — the watchdog, the
shadow sanitizer and the cache metrics — cover replays from every start.
"""

import itertools
import time

import pytest

import repro.core.replay as replay_mod
from repro.bench.harness import hunt, record_scenario
from repro.bugs import fault_scenario_names, scenario
from repro.bugs.registry import all_scenarios
from repro.core.events import make_update
from repro.core.pipeline import HuntConfig, build_pipeline
from repro.core.pruning import StateMemoPruner
from repro.core.replay import ReplayEngine, SequentialExecutor
from repro.faults.errors import ReplayTimeout
from repro.net.cluster import Cluster
from repro.obs.metrics import MetricsRegistry
from repro.rdl.crdts_lib import CRDTLibrary

TABLE1_NAMES = [sc.name for sc in all_scenarios()]
CR_NAMES = fault_scenario_names()

#: fresh, cached, memo without cache, memo with cache.
MODES = (
    (False, False),
    (True, False),
    (False, True),
    (True, True),
)


def candidates_of(name, limit=30):
    """The first ``limit`` candidates of the scenario's default hunt, with
    the fault plan compiled in for the crash-recovery scenarios."""
    recorded = record_scenario(scenario(name))
    explorer = build_pipeline(recorded, HuntConfig(name, faults=name in CR_NAMES))
    return list(itertools.islice(explorer.candidates(), limit))


def scratch_digest(cluster):
    """The cluster's digest from canonical walks, bypassing its digest cache."""
    enabled = cluster.digest_cache_enabled
    cluster.digest_cache_enabled = False
    try:
        return cluster.state_digest()
    finally:
        cluster.digest_cache_enabled = enabled


def observe(name, candidates, cache, memo):
    """Replay ``candidates`` in one mode; per candidate, everything the
    replay observed (wall-clock duration aside)."""
    recorded = record_scenario(scenario(name))
    engine = recorded.engine
    assertions = recorded.scenario.make_assertions()
    if cache:
        engine.enable_prefix_cache()
    memo_digests = []
    if memo:
        pruner = StateMemoPruner()
        pruner.bind([engine], assertions)
        original = pruner.record_replay

        def record_replay(interleaving, outcome, digests):
            memo_digests.append((interleaving, list(digests)))
            original(interleaving, outcome, digests)

        pruner.record_replay = record_replay
    observed = []
    for candidate in candidates:
        outcome = engine.replay(candidate, assertions)
        observed.append(
            (
                tuple(
                    (res.event.event_id, res.lamport, res.ok, res.result, res.error)
                    for res in outcome.event_results
                ),
                outcome.states,
                tuple(outcome.violations),
                engine.last_transport_stats,
                engine.last_suppressed_count,
            )
        )
    # Whether captured boundary by boundary or read off the memoised chain,
    # every boundary digest the memo learns is the digest of the state a
    # fresh replay of that prefix reaches (sampled).
    for interleaving, digests in memo_digests[::5]:
        for split, digest in enumerate(digests):
            engine.replay_fresh(interleaving[:split])
            assert digest == scratch_digest(engine.cluster), (interleaving, split)
    return observed, engine


@pytest.mark.parametrize("name", TABLE1_NAMES + CR_NAMES)
def test_every_start_point_and_hook_observes_the_same(name):
    # Each candidate twice: the second pass finds every transition memoised,
    # so the memo modes start from the cache where the subject allows it.
    candidates = candidates_of(name) * 2
    fresh, _ = observe(name, candidates, cache=False, memo=False)
    for cache, memo in MODES[1:]:
        observed, _ = observe(name, candidates, cache, memo)
        assert observed == fresh, (name, cache, memo)


def test_memo_replays_start_from_the_cache_once_memoised():
    candidates = candidates_of("OrbitDB-4") * 2
    _, engine = observe("OrbitDB-4", candidates, cache=True, memo=True)
    stats = engine.prefix_cache.stats
    # By the second pass every chain is memoised, so at least every replay
    # of that pass starts from the cache.
    assert stats.replays >= len(candidates) // 2
    assert stats.hits > 0


class TestWatchdogOnCachedReplays:
    @staticmethod
    def slow_engine(monkeypatch):
        original = CRDTLibrary.set_add

        def slow_set_add(self, name, item):
            time.sleep(0.05)
            original(self, name, item)

        monkeypatch.setattr(CRDTLibrary, "set_add", slow_set_add)
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        engine = ReplayEngine(cluster, SequentialExecutor(timeout_s=0.01))
        engine.checkpoint()
        return engine

    def test_cached_replays_raise_replay_timeout(self, monkeypatch):
        engine = self.slow_engine(monkeypatch)
        cache = engine.enable_prefix_cache()
        assert engine.prefix_cache_active()
        events = (
            make_update("e1", "A", "set_add", "s", "x"),
            make_update("e2", "B", "set_add", "s", "y"),
            make_update("e3", "A", "set_add", "s", "z"),
        )
        with pytest.raises(ReplayTimeout):
            engine.replay(events)
        assert cache.stats.replays == 1 and cache.stats.hits == 0
        # The timed-out replay cached its first event; this one adopts it
        # and still trips the watchdog in its suffix.
        with pytest.raises(ReplayTimeout):
            engine.replay(events)
        assert cache.stats.replays == 2 and cache.stats.hits == 1

    def test_cached_hunt_quarantines_what_a_plain_hunt_does(self, monkeypatch):
        original = replay_mod._invoke

        def slow_invoke(cluster, event, lamport):
            time.sleep(0.003)
            return original(cluster, event, lamport)

        monkeypatch.setattr(replay_mod, "_invoke", slow_invoke)
        quarantined = {}
        for prefix_cache in (False, True):
            result = hunt(
                record_scenario(scenario("OrbitDB-2")), "erpi", cap=12,
                prefix_cache=prefix_cache, replay_timeout_s=0.001,
                stop_on_violation=False,
            )
            quarantined[prefix_cache] = [
                (q.interleaving, q.error_type) for q in result.quarantined
            ]
        assert quarantined[False]
        assert quarantined[True] == quarantined[False]


def memo_cache_hunt(**kwargs):
    recorded = record_scenario(scenario("OrbitDB-4"), fixed=True)
    result = hunt(
        recorded, "erpi", cap=400,
        prefix_cache=True, memo=True, dpor=True, **kwargs,
    )
    return result, recorded.engine


def test_shadow_sanitizer_checks_every_cached_memo_replay():
    result, engine = memo_cache_hunt(sanitize=1.0)
    report = result.sanitizer
    assert engine.prefix_cache.stats.replays > 0
    assert report.shadow_checks == engine.prefix_cache.stats.replays
    assert report.ok and not report.divergences


def test_cache_metrics_count_cached_memo_replays():
    metrics = MetricsRegistry()
    result, engine = memo_cache_hunt(metrics=metrics)
    stats = engine.prefix_cache.stats
    hits = metrics.counter("replay.cache_hits")
    misses = metrics.counter("replay.cache_misses")
    assert hits > 0
    assert hits + misses == stats.replays
    assert hits == stats.hits
    assert metrics.counter("replay.fresh") == result.explored - stats.replays


@pytest.mark.parametrize(
    "name", ["Roshi-1", "Roshi-2", "Roshi-3", "OrbitDB-2", "ReplicaDB-1", "Yorkie-1"]
)
def test_sampled_digest_verification_passes(name):
    # The cross-check recomputes digests from scratch on the state the
    # replay left, before the final states are read (a Roshi read can
    # read-repair its farm); a mismatch would turn incremental digesting
    # off for the rest of the hunt.
    metrics = MetricsRegistry()
    hunt(
        record_scenario(scenario(name), fixed=True), "erpi", cap=70,
        memo=True, dpor=True, metrics=metrics,
    )
    assert metrics.counter("digest.verify_failures") == 0
