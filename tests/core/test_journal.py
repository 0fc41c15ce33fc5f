"""The hunt journal: durable append-only checkpointing for coordinated hunts.

The journal's contract is narrow but strict: appends are durable, a torn
*trailing* line (writer killed mid-append) is tolerated, corruption anywhere
else refuses to load, and the committed prefix must be contiguous — a resume
must never silently skip or reorder committed work.
"""

import json
import os

import pytest

from repro.core.journal import HuntJournal, JournalError, JournaledOutcome


def make_journal(tmp_path, name="hunt.jsonl", header=None):
    return HuntJournal.create(
        str(tmp_path / name), header or {"hunt": {"hunt_id": "t1"}}
    )


class TestLifecycle:
    def test_create_load_roundtrip(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.commit(0, "ok", "a|b")
        journal.commit(1, "violation", "b|a", messages=("boom",))
        journal.close()
        loaded = HuntJournal.load(journal.path)
        assert loaded.header["hunt"]["hunt_id"] == "t1"
        assert [r["verdict"] for r in loaded.commits] == ["ok", "violation"]
        assert loaded.commits[1]["messages"] == ["boom"]
        assert not loaded.is_final

    def test_final_record(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.commit(0, "ok", "a")
        journal.final(found=False, explored=1)
        journal.close()
        loaded = HuntJournal.load(journal.path)
        assert loaded.is_final
        assert loaded.final_record == {
            "type": "final", "found": False, "explored": 1,
            "crashed": False, "crash_reason": None,
        }

    def test_append_requires_open_handle(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.close()
        with pytest.raises(JournalError):
            journal.commit(0, "ok", "a")
        journal.reopen()
        journal.commit(0, "ok", "a")
        journal.close()

    def test_create_replaces_previous_journal(self, tmp_path):
        first = make_journal(tmp_path)
        first.commit(0, "ok", "a")
        first.close()
        fresh = make_journal(tmp_path, header={"hunt": {"hunt_id": "t2"}})
        fresh.close()
        loaded = HuntJournal.load(fresh.path)
        assert loaded.header["hunt"]["hunt_id"] == "t2"
        assert loaded.commits == []

    def test_context_manager_closes(self, tmp_path):
        with make_journal(tmp_path) as journal:
            journal.commit(0, "ok", "a")
        assert journal._handle is None


class TestCrashTolerance:
    def test_torn_trailing_line_is_dropped(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.commit(0, "ok", "a")
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"type": "commit", "index": 1, "verd')
        loaded = HuntJournal.load(journal.path)
        assert len(loaded.commits) == 1

    def test_mid_file_corruption_refuses(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.commit(0, "ok", "a")
        journal.commit(1, "ok", "b")
        journal.close()
        lines = open(journal.path).read().splitlines()
        lines[1] = lines[1][:-4]  # corrupt a non-trailing record
        with open(journal.path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt record"):
            HuntJournal.load(journal.path)

    def test_reopen_compacts_torn_tail_away(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.commit(0, "ok", "a")
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"torn')
        loaded = HuntJournal.load(journal.path)
        loaded.reopen()
        loaded.commit(1, "ok", "b")
        loaded.close()
        reloaded = HuntJournal.load(journal.path)
        assert [r["index"] for r in reloaded.commits] == [0, 1]

    def test_missing_header_refuses(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "commit", "index": 0, "verdict": "ok", "il": "a"}\n')
        with pytest.raises(JournalError, match="missing header"):
            HuntJournal.load(str(path))

    def test_version_mismatch_refuses(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "header", "version": 99}) + "\n")
        with pytest.raises(JournalError, match="version"):
            HuntJournal.load(str(path))

    def test_missing_file_refuses(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            HuntJournal.load(str(tmp_path / "nope.jsonl"))

    def test_noncontiguous_commits_refuse(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.commit(0, "ok", "a")
        journal.commit(2, "ok", "c")  # gap: index 1 never committed
        journal.close()
        loaded = HuntJournal.load(journal.path)
        with pytest.raises(JournalError, match="contiguous"):
            loaded.commits


class TestCheckpoint:
    def test_checkpoint_rewrites_atomically(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.commit(0, "ok", "a")
        journal.checkpoint(1, committed=1)
        # The rewrite must leave no temp file and keep appends working.
        assert not os.path.exists(journal.path + ".tmp")
        journal.commit(1, "ok", "b")
        journal.close()
        loaded = HuntJournal.load(journal.path)
        assert loaded.checkpoints == 1
        assert len(loaded.commits) == 2

    def test_lease_and_degraded_events_roundtrip(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.lease(1, 1, "acquired")
        journal.lease(1, 1, "expired")
        journal.lease(1, 2, "re-leased")
        journal.close()
        loaded = HuntJournal.load(journal.path)
        assert loaded.lease_events == [
            (1, 1, "acquired"), (1, 1, "expired"), (1, 2, "re-leased")
        ]


class TestJournaledOutcome:
    def test_quacks_like_a_violating_outcome(self):
        outcome = JournaledOutcome(("e1", "e2"), ["invariant broken"])
        assert outcome.violated
        assert outcome.violations == ["invariant broken"]
        assert outcome.interleaving == ("e1", "e2")
