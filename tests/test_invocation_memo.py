"""The invocation memo: one lookup/store path for in-process and isolated
invocations, its keying cost in the cache report, and per-table digests."""

from __future__ import annotations

import pytest

from repro.apps.executable import InvocationMemo, SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import UnmasqueExtractor
from repro.datagen import tpch
from repro.engine.storage import FrozenRows
from repro.obs.provenance import PROBE, ProvenanceRecorder
from repro.workloads import tpch_queries


@pytest.fixture(scope="module")
def q6_db():
    return tpch.build_database(scale=0.0002, seed=3)


def _extract_q6(db, isolate: str):
    recorder = ProvenanceRecorder()
    app = SQLExecutable(tpch_queries.QUERIES["Q6"].sql, name="memo-q6")
    outcome = UnmasqueExtractor(
        db,
        app,
        ExtractionConfig(run_checker=False, jobs=1, isolate=isolate),
        provenance=recorder,
    ).extract()
    probes = [e for e in recorder.events if e.kind == PROBE]
    return outcome, probes


class TestMemoProvenance:
    def test_isolated_probes_record_the_same_memo_facts(self, q6_db):
        local, local_probes = _extract_q6(q6_db, "none")
        isolated, isolated_probes = _extract_q6(q6_db, "process")

        assert isolated.sql == local.sql
        assert len(isolated_probes) == len(local_probes)
        local_cached = sum(e.cached for e in local_probes)
        assert local_cached > 0
        assert sum(e.cached for e in isolated_probes) == local_cached
        assert local_cached == local.caches["invocation_cache"]["hits"]
        assert all(e.db_fingerprint for e in local_probes)
        assert [e.db_fingerprint for e in isolated_probes] == [
            e.db_fingerprint for e in local_probes
        ]
        assert [e.cached for e in isolated_probes] == [
            e.cached for e in local_probes
        ]

    def test_key_seconds_reported_next_to_hits(self, q6_db):
        outcome, _ = _extract_q6(q6_db, "none")
        stats = outcome.caches["invocation_cache"]
        assert stats["misses"] + stats["hits"] > 0
        assert stats["key_seconds"] > 0


class TestMemoKeying:
    def test_bypass_runs_record_no_fingerprint(self, q6_db):
        db = q6_db.clone()
        app = SQLExecutable("select count(*) from nation")
        app.memo = InvocationMemo(max_rows=0)
        app.run(db)
        assert db.last_invocation == {"cached": False, "fingerprint": ""}
        assert app.memo.stats()["bypasses"] == 1

    def test_repeat_state_is_a_hit_with_the_same_fingerprint(self, q6_db):
        db = q6_db.clone()
        app = SQLExecutable("select count(*) from region")
        app.memo = InvocationMemo()
        first = app.run(db)
        fingerprint = db.last_invocation["fingerprint"]
        assert fingerprint == db.fingerprint()
        assert app.run(db) is first
        assert db.last_invocation == {"cached": True, "fingerprint": fingerprint}

    def test_untouched_tables_are_not_hashed_again(self, q6_db, monkeypatch):
        from repro.engine import storage

        db = q6_db.clone()
        db.fingerprint()
        hashed = []
        real = storage._hash_rows
        monkeypatch.setattr(
            storage, "_hash_rows", lambda rows: hashed.append(len(rows)) or real(rows)
        )
        db.fingerprint()
        assert hashed == []
        db.replace_rows("region", db.rows("region")[:2])
        db.fingerprint()
        assert hashed == [2]

    def test_concurrent_keying_on_replicas(self, q6_db):
        """Scheduler threads key replicas of one base snapshot at once: the
        digests they memoize on the shared lists, and the counters they add
        under the memo lock, must come out as if keyed one at a time."""
        import sys
        import threading

        base = q6_db.clone().snapshot()
        expected = {}
        for rows in range(4):
            reference = q6_db.replica(base)
            reference.replace_rows("region", reference.rows("region")[:rows])
            expected[rows] = reference.fingerprint()
        base = q6_db.clone().snapshot()  # fresh lists, no digests yet
        memo = InvocationMemo()
        bypassing = InvocationMemo(max_rows=0)
        seen, threads = [], []

        def worker(index):
            for round_ in range(25):
                db = q6_db.replica(base)
                rows = (index + round_) % 4
                db.replace_rows("region", db.rows("region")[:rows])
                seen.append((rows, memo.key_for(db, None)[0]))
                bypassing.key_for(db, None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 * 25
        assert all(key == expected[rows] for rows, key in seen)
        assert bypassing.stats()["bypasses"] == 8 * 25
        assert memo.stats()["key_seconds"] > 0

    def test_frozen_rows_pickle_as_plain_lists(self):
        import pickle

        rows = FrozenRows([(1, "a"), (2, "b")])
        rows.digest = b"x" * 32
        clone = pickle.loads(pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(clone) is list and clone == rows
