"""Storage-fault seams: FaultyFS, checkpoint checksums, journal/ledger salvage."""

import json
import sqlite3

import pytest

from repro.errors import StorageExhausted
from repro.obs.ledger import RunLedger
from repro.resilience.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.resilience.diskfaults import (
    DISK_FAULT_CLASSES,
    FaultyFS,
    InjectedStorageCrash,
    RealFS,
    quarantine_path,
    sqlite_is_healthy,
    tear_tail,
)
from repro.serve.jobs import JobState
from repro.serve.journal import JobJournal

REQUEST = {"workload": "tpch", "query": "Q6"}


class TestFaultyFS:
    def test_fires_exactly_once_on_the_chosen_op(self, tmp_path):
        fs = FaultyFS("enospc", at_op=2)
        fs.write_atomic(tmp_path / "a", b"one")  # op 1: clean
        with pytest.raises(OSError) as info:
            fs.write_atomic(tmp_path / "b", b"two")  # op 2: faults
        assert "No space left" in str(info.value)
        fs.write_atomic(tmp_path / "c", b"three")  # fired; clean again
        assert (tmp_path / "a").read_bytes() == b"one"
        assert not (tmp_path / "b").exists()
        assert (tmp_path / "c").read_bytes() == b"three"

    def test_torn_write_leaves_prefix_plus_garbage(self, tmp_path):
        fs = FaultyFS("torn_write", seed=1)
        data = b"x" * 300
        with pytest.raises(InjectedStorageCrash):
            fs.write_atomic(tmp_path / "f", data)
        torn = (tmp_path / "f").read_bytes()
        assert len(torn) == len(data)
        assert torn[:100] == data[:100]
        assert torn != data

    def test_short_write_truncates(self, tmp_path):
        fs = FaultyFS("short_write")
        with pytest.raises(InjectedStorageCrash):
            fs.write_atomic(tmp_path / "f", b"y" * 300)
        assert (tmp_path / "f").read_bytes() == b"y" * 100

    def test_lost_fsync_writes_nothing(self, tmp_path):
        fs = FaultyFS("lost_fsync")
        with pytest.raises(InjectedStorageCrash):
            fs.write_atomic(tmp_path / "f", b"z")
        assert not (tmp_path / "f").exists()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultyFS("gamma_rays")
        assert "torn_write" in DISK_FAULT_CLASSES

    def test_real_fs_atomic_write_roundtrip(self, tmp_path):
        fs = RealFS()
        fs.write_atomic(tmp_path / "f", b"payload")
        assert fs.read_bytes(tmp_path / "f") == b"payload"
        assert not (tmp_path / "f.tmp").exists()


class TestQuarantineHelpers:
    def test_quarantine_moves_file_and_sqlite_siblings(self, tmp_path):
        (tmp_path / "db").write_bytes(b"main")
        (tmp_path / "db-wal").write_bytes(b"wal")
        destination = quarantine_path(tmp_path / "db")
        assert destination.name == "db.corrupt-0"
        assert destination.read_bytes() == b"main"
        assert not (tmp_path / "db").exists()
        assert not (tmp_path / "db-wal").exists()
        # a second quarantine of the same name picks the next slot
        (tmp_path / "db").write_bytes(b"again")
        assert quarantine_path(tmp_path / "db").name == "db.corrupt-1"

    def test_sqlite_health_check(self, tmp_path):
        path = tmp_path / "ok.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        assert sqlite_is_healthy(path)
        tear_tail(path, nbytes=path.stat().st_size - 40, seed=3)
        assert not sqlite_is_healthy(path)
        assert sqlite_is_healthy(tmp_path / "missing.sqlite")


class TestCheckpointHardening:
    def test_enospc_on_save_raises_storage_exhausted(self, tmp_path):
        store = CheckpointStore(tmp_path, fs=FaultyFS("enospc"))
        with pytest.raises(StorageExhausted) as info:
            store.save({"version": CHECKPOINT_VERSION, "completed": []})
        assert info.value.store == "checkpoint"

    def test_torn_checkpoint_quarantined_on_load(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(
            {"version": CHECKPOINT_VERSION, "completed": ["setup"], "degradations": []}
        )
        with pytest.raises(InjectedStorageCrash):
            CheckpointStore(tmp_path, fs=FaultyFS("torn_write")).save(
                {"version": CHECKPOINT_VERSION, "completed": ["setup", "from_clause"],
                 "degradations": []}
            )
        fresh = CheckpointStore(tmp_path)
        assert fresh.load() is None  # corrupt bytes never parse as state
        assert fresh.quarantined is not None
        assert fresh.quarantined.exists()

    def test_lost_fsync_preserves_previous_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = {
            "version": CHECKPOINT_VERSION, "completed": ["setup"], "degradations": []
        }
        store.save(state)
        with pytest.raises(InjectedStorageCrash):
            CheckpointStore(tmp_path, fs=FaultyFS("lost_fsync")).save(
                {"version": CHECKPOINT_VERSION, "completed": ["setup", "from_clause"],
                 "degradations": []}
            )
        # the never-durable write is simply absent; the old state survives
        assert CheckpointStore(tmp_path).load()["completed"] == ["setup"]


class TestJournalHardening:
    def test_commit_enospc_rolls_back_and_stays_writable(self, tmp_path):
        journal = JobJournal(tmp_path / "j.sqlite",
                             fs=FaultyFS("enospc", ops="commit"))
        with pytest.raises(StorageExhausted) as info:
            journal.create("job-000001", REQUEST)
        assert info.value.store == "journal"
        assert journal.jobs() == []  # rolled back, not half-written
        journal.create("job-000001", REQUEST)  # one-shot fault: retry lands
        assert [j["job_id"] for j in journal.jobs()] == ["job-000001"]
        journal.close()

    def test_post_commit_crash_keeps_the_transition_durable(self, tmp_path):
        """Mid-transition SIGKILL: the commit is durable, the process is not."""
        path = tmp_path / "j.sqlite"
        journal = JobJournal(path)
        journal.create("job-000001", REQUEST)
        crashy = JobJournal(path, fs=FaultyFS("lost_fsync", ops="commit"))
        with pytest.raises(InjectedStorageCrash):
            crashy.transition("job-000001", JobState.RUNNING, "attempt 1")
        # no close(): the process died; a new process must see the commit
        reopened = JobJournal(path)
        assert reopened.job("job-000001")["state"] == "running"
        assert reopened.recover() == ["job-000001"]  # requeued, attempt + 1
        assert reopened.job("job-000001")["state"] == "queued"
        assert reopened.job("job-000001")["attempt"] == 2
        reopened.close()
        journal.close()

    def test_torn_last_page_salvages_and_quarantines(self, tmp_path):
        """SIGKILL mid-page: reopen salvages rows instead of crashing."""
        path = tmp_path / "j.sqlite"
        journal = JobJournal(path)
        for index in range(1, 4):
            journal.create(f"job-{index:06d}", REQUEST)
        journal.transition("job-000001", JobState.RUNNING, "attempt 1")
        journal.close()
        tear_tail(path, nbytes=path.stat().st_size - 40, seed=9)
        assert not sqlite_is_healthy(path)
        reopened = JobJournal(path)  # must not raise
        assert sqlite_is_healthy(path)
        assert reopened.salvage_report is not None
        assert reopened.salvage_report["quarantined_file"].endswith(".corrupt-0")
        # whatever survived is queryable and the journal accepts new work
        reopened.create("job-000009", REQUEST)
        assert any(j["job_id"] == "job-000009" for j in reopened.jobs())
        events = reopened.events_list("journal_quarantined")
        assert len(events) == 1
        reopened.close()

    def test_corrupt_request_row_is_quarantined_not_fatal(self, tmp_path):
        """A non-terminal job whose request_json rotted fails structurally."""
        path = tmp_path / "j.sqlite"
        journal = JobJournal(path)
        journal.create("job-000001", REQUEST)
        journal.create("job-000002", REQUEST)
        journal.transition("job-000002", JobState.RUNNING, "attempt 1")
        journal.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE jobs SET request_json = ? WHERE job_id = ?",
            ('{"torn', "job-000002"),
        )
        conn.commit()
        conn.close()
        reopened = JobJournal(path)
        recovered = reopened.recover()
        assert recovered == []  # the corrupt job must not be requeued
        record = reopened.job("job-000002")
        assert record["state"] == "failed"
        assert "quarantined" in record["error"]
        # the healthy sibling is untouched
        assert reopened.job("job-000001")["state"] == "queued"
        reopened.close()


class TestLedgerHardening:
    def test_commit_eio_rolls_back_and_stays_writable(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.sqlite",
                           fs=FaultyFS("eio", ops="commit"))
        with pytest.raises(StorageExhausted) as info:
            ledger.begin_run(label="r1")
        assert info.value.store == "ledger"
        run_id = ledger.begin_run(label="r1")  # one-shot fault: retry lands
        ledger.finish_run(run_id, status="completed")
        assert len(ledger.runs()) == 1
        ledger.close()

    def test_corrupt_ledger_quarantined_on_open(self, tmp_path):
        path = tmp_path / "l.sqlite"
        ledger = RunLedger(path)
        run_id = ledger.begin_run(label="old")
        ledger.finish_run(run_id, status="completed")
        ledger.close()
        tear_tail(path, nbytes=path.stat().st_size - 40, seed=5)
        reopened = RunLedger(path)  # quarantines, starts fresh
        assert reopened.quarantined is not None
        assert reopened.quarantined.exists()
        assert reopened.runs() == []
        run_id = reopened.begin_run(label="new")
        reopened.finish_run(run_id, status="completed")
        assert len(reopened.runs()) == 1
        reopened.close()

    def test_storage_exhausted_pickles_cleanly(self):
        import pickle

        error = StorageExhausted("journal", "disk full")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.store == "journal"
        assert "disk full" in str(clone)


def test_checkpoint_checksum_mismatch_is_quarantined(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save({"version": CHECKPOINT_VERSION, "completed": [], "degradations": []})
    raw = json.loads(store.path.read_text())
    raw["completed"] = ["forged"]  # content changed, checksum stale
    store.path.write_text(json.dumps(raw))
    fresh = CheckpointStore(tmp_path)
    assert fresh.load() is None
    assert fresh.quarantined is not None
