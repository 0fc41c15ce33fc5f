"""Semantic pruning: canonical state digests, memoized verdicts, DPOR.

The layer's contract is *sound-or-off*: a digest memo or a sleep-set prune
may only ever skip replays whose outcome is provably identical to one
already replayed — and when that proof is unavailable (a subject without
``canonical_state()``, a fault boundary, an observation outside the
footprint model) the pruner disables itself instead of guessing.  These
tests pin the digest algebra, the stitching rules, the gating, and the
end-to-end bug-finding behaviour across serial/thread/process backends.
"""

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs.registry import scenario
from repro.core.events import Event, EventKind
from repro.core.pruning import (
    DPORPruner,
    StateMemoPruner,
    event_footprint,
    trace_normal_form,
)
from repro.core.pruning.semantic import footprints_conflict
from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary
from repro.statehash import canonical_repr, combine_digests, state_digest

CR_SCENARIOS = ("Roshi-CR", "Roshi-CR2", "OrbitDB-CR", "ReplicaDB-CR", "Yorkie-CR")


def crdt_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def town_reports(cluster):
    a, b = cluster.rdl("A"), cluster.rdl("B")
    a.set_add("problems", "otb")
    cluster.sync("A", "B")
    b.set_add("problems", "ph")
    cluster.sync("B", "A")
    b.set_remove("problems", "otb")
    cluster.sync("B", "A")
    a.set_value("problems")


class _OpaqueLibrary(CRDTLibrary):
    """A subject that opts out of canonical state (digest unavailable)."""

    def canonical_state(self):
        return None


def local(event_id, replica, op="set_add"):
    return Event(event_id=event_id, replica_id=replica, kind=EventKind.UPDATE, op_name=op)


# ------------------------------------------------------------- statehash


class TestStateHash:
    def test_dict_insertion_order_is_irrelevant(self):
        left = {"a": 1, "b": [2, {"c": 3}]}
        right = {"b": [2, {"c": 3}], "a": 1}
        assert state_digest(left) == state_digest(right)
        assert canonical_repr(left) == canonical_repr(right)

    def test_value_change_changes_digest(self):
        assert state_digest({"a": 1}) != state_digest({"a": 2})
        assert state_digest([1, 2]) != state_digest([2, 1])  # lists are ordered

    def test_digest_is_deterministic_across_calls(self):
        value = {"k": frozenset({"x", "y"}), "n": (1, 2.5, None, True)}
        assert state_digest(value) == state_digest(value)

    def test_cycles_do_not_recurse_forever(self):
        loop = {}
        loop["self"] = loop
        assert isinstance(state_digest(loop), str)

    def test_combine_digests_is_order_independent(self):
        pairs = [("A", state_digest(1)), ("B", state_digest(2))]
        assert combine_digests(pairs) == combine_digests(list(reversed(pairs)))
        assert combine_digests(pairs) != combine_digests(
            [("A", state_digest(2)), ("B", state_digest(1))]
        )


class TestClusterDigest:
    def test_identical_workloads_hash_equal(self):
        one, two = crdt_cluster(), crdt_cluster()
        town_reports(one)
        town_reports(two)
        assert one.state_digest() == two.state_digest()

    def test_divergent_state_hashes_differently(self):
        one, two = crdt_cluster(), crdt_cluster()
        town_reports(one)
        town_reports(two)
        two.rdl("A").set_add("problems", "extra")
        assert one.state_digest() != two.state_digest()

    def test_digest_none_when_subject_is_opaque(self):
        cluster = Cluster()
        cluster.add_replica("A", CRDTLibrary("A"))
        cluster.add_replica("B", _OpaqueLibrary("B"))
        assert cluster.state_digest() is None


# ------------------------------------------------------ footprints / DPOR


class TestFootprintModel:
    def test_local_events_on_distinct_replicas_are_independent(self):
        assert not footprints_conflict(
            event_footprint(local("e1", "A")), event_footprint(local("e2", "B"))
        )

    def test_same_replica_conflicts(self):
        assert footprints_conflict(
            event_footprint(local("e1", "A")), event_footprint(local("e2", "A"))
        )

    def test_fault_events_are_barriers(self):
        crash = Event(
            event_id="f1", replica_id="A", kind=EventKind.CRASH, op_name="crash"
        )
        assert footprints_conflict(
            event_footprint(crash), event_footprint(local("e9", "Z"))
        )

    def test_normal_form_invariant_under_independent_swap(self):
        a, b = local("e1", "A"), local("e2", "B")
        assert trace_normal_form((a, b)) == trace_normal_form((b, a))

    def test_normal_form_distinguishes_conflicting_orders(self):
        a1, a2 = local("e1", "A"), local("e2", "A")
        assert trace_normal_form((a1, a2)) != trace_normal_form((a2, a1))


class TestDPORPruner:
    def test_unbound_pruner_never_prunes(self):
        pruner = DPORPruner()
        assert not pruner.is_redundant((local("e1", "A"), local("e2", "B")))
        assert pruner.disabled_reason is not None

    def test_prunes_independent_reorderings_once_bound(self):
        recorded = record_scenario(scenario("Roshi-1"))
        pruner = DPORPruner()
        pruner.bind((recorded.engine,), ())
        assert pruner.enabled, pruner.disabled_reason
        a, b = local("e1", "A"), local("e2", "B")
        assert not pruner.is_redundant((a, b))
        assert pruner.is_redundant((b, a))
        assert pruner.prune_log  # the prune is logged for Datalog export

    def test_observed_write_outside_model_disables(self):
        recorded = record_scenario(scenario("Roshi-1"))
        pruner = DPORPruner()
        pruner.bind((recorded.engine,), ())
        pruner.observe_write_set(local("e1", "A"), ["B"])
        assert not pruner.enabled
        assert "outside its footprint model" in pruner.disabled_reason

    def test_key_is_deterministic_across_instances(self):
        il = (local("e1", "A"), local("e2", "B"), local("e3", "A"))
        assert DPORPruner().key(il) == DPORPruner().key(il)


# ------------------------------------------------------------ state memo


class TestStateMemoPruner:
    def bound(self, name="Roshi-1", assertions=None):
        recorded = record_scenario(scenario(name))
        pruner = StateMemoPruner()
        asserts = (
            recorded.scenario.make_assertions() if assertions is None else assertions
        )
        pruner.bind((recorded.engine,), asserts)
        return recorded, pruner

    def test_bind_refuses_opaque_subject(self):
        from repro.core.replay import ReplayEngine

        cluster = Cluster()
        cluster.add_replica("A", _OpaqueLibrary("A"))
        engine = ReplayEngine(cluster)
        engine.checkpoint()
        pruner = StateMemoPruner()
        pruner.bind((engine,), ())
        assert not pruner.enabled
        assert "canonical_state" in pruner.disabled_reason

    def test_replayed_candidate_becomes_redundant(self):
        recorded, pruner = self.bound()
        candidate = tuple(recorded.events)
        assert not pruner.is_redundant(candidate)  # nothing memoized yet
        recorded.engine.replay(candidate, pruner.assertions)
        assert pruner.replays_recorded == 1
        assert pruner.is_redundant(candidate)
        assert pruner.hits == 1
        assert pruner.memo_log  # (digest, il) pair kept for Datalog export

    def test_stitched_violation_is_never_pruned(self):
        def always_fails(outcome):
            return "synthetic violation"

        recorded, pruner = self.bound(assertions=(always_fails,))
        candidate = tuple(recorded.events)
        recorded.engine.replay(candidate, ())
        assert not pruner.is_redundant(candidate)
        assert pruner.stitched_violations == 1
        assert pruner.stats.pruned == 0

    def test_fault_bearing_candidates_are_never_pruned(self):
        recorded, pruner = self.bound()
        crash = Event(
            event_id="f1", replica_id="A", kind=EventKind.CRASH, op_name="crash"
        )
        candidate = tuple(recorded.events) + (crash,)
        assert not pruner.is_redundant(candidate)

    def test_meter_exhaustion_freezes_instead_of_crashing(self):
        class TinyMeter:
            remaining_bytes = StateMemoPruner.ENTRY_COST - 1

            def charge(self, category, nbytes):  # pragma: no cover - frozen first
                raise AssertionError("must not charge past the budget")

        recorded = record_scenario(scenario("Roshi-1"))
        pruner = StateMemoPruner()
        pruner.bind((recorded.engine,), (), meter=TinyMeter())
        recorded.engine.replay(tuple(recorded.events), ())
        assert pruner.frozen
        assert pruner.entries == 0


# --------------------------------------------------------- hunt behaviour


class TestSemanticHunts:
    def test_memo_dpor_hunt_replays_fewer_same_bug(self):
        baseline = hunt(
            record_scenario(scenario("OrbitDB-2")), "erpi", cap=500,
            stop_on_violation=False,
        )
        pruned = hunt(
            record_scenario(scenario("OrbitDB-2")), "erpi", cap=500,
            memo=True, dpor=True, stop_on_violation=False,
        )
        assert baseline.found and pruned.found
        assert pruned.explored < baseline.explored
        assert (
            pruned.pruning_stats.get("state_memo", 0)
            + pruned.pruning_stats.get("dpor", 0)
            > 0
        )

    def test_memo_dpor_hunt_is_sanitizer_clean(self):
        result = hunt(
            record_scenario(scenario("Roshi-1")), "erpi", cap=300,
            memo=True, dpor=True, prefix_cache=True, sanitize=0.25,
            stop_on_violation=False,
        )
        assert result.found
        assert result.sanitizer is not None and result.sanitizer.ok

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backends_find_the_same_violation(self, backend):
        kwargs = {}
        if backend == "process":
            kwargs = {"workers": 2}
        result = hunt(
            record_scenario(scenario("Roshi-1")), "erpi", cap=120,
            memo=True, dpor=True, **kwargs,
        )
        assert result.found
        assert result.violating is not None
        ids = tuple(e.event_id for e in result.violating.interleaving)
        expected = hunt(
            record_scenario(scenario("Roshi-1")), "erpi", cap=120
        ).violating.interleaving
        assert ids == tuple(e.event_id for e in expected)

    def test_process_verdict_maps_identical_across_worker_counts(self):
        results = {}
        for workers in (2, 3):
            results[workers] = hunt(
                record_scenario(scenario("Roshi-1")), "erpi", cap=120,
                workers=workers,
                memo=True, dpor=True, stop_on_violation=False,
            )
        assert results[2].verdicts == results[3].verdicts
        assert results[2].explored == results[3].explored


class TestCrashRecoveryWithSemanticPruning:
    """Satellite: every seeded crash-recovery bug is still found with the
    semantic pruners armed, with zero sanitizer divergences — and the memo
    stays inert on fault-bearing candidates (soundness over savings)."""

    @pytest.mark.parametrize("name", CR_SCENARIOS)
    def test_cr_bug_found_with_memo_dpor_faults(self, name):
        result = hunt(
            record_scenario(scenario(name)), "erpi", cap=2000,
            memo=True, dpor=True, faults=True, sanitize=0.2,
        )
        assert result.found, name
        assert not result.quarantined
        assert result.sanitizer is None or result.sanitizer.ok
        # Every candidate carries the compiled fault events, so the memo
        # must never claim a stitch across a crash/recover boundary.
        assert result.pruning_stats.get("state_memo", 0) == 0


class TestSessionAndDatalogPersistence:
    def run_session(self):
        from repro.core import ErPi, GroupConstraint, assert_read_equals

        cluster = crdt_cluster()
        erpi = ErPi(cluster, persist=True, memo=True, dpor=True)
        erpi.start()
        town_reports(cluster)
        erpi.add_constraint(
            GroupConstraint(pairs=(("e1", "e2"), ("e4", "e5"), ("e7", "e8")))
        )
        report = erpi.end(
            assertions=[assert_read_equals("e10", frozenset({"ph"}))], cap=200
        )
        return erpi, report

    def test_semantic_prunes_land_as_facts(self):
        erpi, report = self.run_session()
        assert erpi._memo_pruner.enabled, erpi._memo_pruner.disabled_reason
        assert erpi._dpor_pruner.enabled, erpi._dpor_pruner.disabled_reason
        memos = erpi.store.memos()
        assert len(memos) == report.pruning_stats["state_memo"] > 0
        for digest, il_id in memos:
            assert isinstance(digest, str) and len(digest) == 16
            assert il_id in erpi.store.pruned_ids("state_memo")

    def test_footprint_facts_describe_dpor_prunes(self):
        erpi, report = self.run_session()
        dpor_pruned = erpi.store.pruned_ids("dpor")
        assert len(dpor_pruned) == report.pruning_stats["dpor"]
        for il_id, event_id, mode, key in erpi.store.footprints():
            assert il_id in dpor_pruned
            assert mode in ("r", "w", "b")
            assert key.startswith(("replica:", "chan:", "*"))

    def test_export_renders_new_relations(self):
        erpi, report = self.run_session()
        text = erpi.export_datalog()
        assert "// .decl memo(" in text
        assert "// .decl footprint(" in text
        if erpi.store.memos():
            assert "\nmemo(" in text
        if erpi.store.footprints():
            assert "\nfootprint(" in text
