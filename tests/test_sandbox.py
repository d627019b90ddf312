"""Transactional sandbox: snapshot/restore, CoW, and the D_I invariant.

The paper assumes D_I is always restored after extraction mutates the client
database (§3.2); these tests make that a checked guarantee at three levels —
the engine (snapshot/restore/sandbox), the session (every black-box
invocation is isolated), and the pipeline (after any module outcome the silo
is byte-identical to D_I, including chaos-faulted and crash/resume runs).
"""

from __future__ import annotations

import time

import pytest

from repro.apps.executable import CallableExecutable, SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.datagen import tpch
from repro.engine import Column, Database, IntegerType, TableSchema, VarcharType
from repro.engine.database import DatabaseSnapshot
from repro.engine.result import Result
from repro.errors import ExecutableTimeoutError
from repro.resilience.faults import FaultPlan, FaultyExecutable, InjectedCrashError
from repro.workloads import tpch_queries

QUERY = tpch_queries.QUERIES["Q6"].sql


def small_db() -> Database:
    db = Database(
        [
            TableSchema(
                name="t",
                columns=(Column("k", IntegerType()), Column("v", VarcharType(8))),
                primary_key=("k",),
            )
        ]
    )
    db.insert("t", [(1, "a"), (2, "b"), (3, "c")])
    return db


class TestEngineSandbox:
    def test_snapshot_restore_round_trips_dml(self):
        db = small_db()
        before = db.fingerprint()
        token = db.snapshot()
        db.execute("delete from t where k = 1")
        db.execute("update t set v = 'zz' where k = 2")
        db.insert("t", [(9, "x")])
        assert db.fingerprint() != before
        db.restore(token)
        assert db.fingerprint() == before
        assert db.rows("t") == [(1, "a"), (2, "b"), (3, "c")]

    def test_restore_undoes_ddl(self):
        db = small_db()
        before = db.fingerprint()
        token = db.snapshot()
        db.rename_table("t", "t_renamed")
        db.execute("create table extra (x int)")
        db.restore(token)
        assert db.fingerprint() == before
        assert db.table_names == ["t"]

    def test_token_is_immutable_under_later_mutations(self):
        db = small_db()
        token = db.snapshot()
        db.insert("t", [(4, "d")])  # in-place append must copy-on-write
        db.execute("update t set v = 'q'")
        assert token.rows["t"] == [(1, "a"), (2, "b"), (3, "c")]

    def test_token_restores_repeatedly(self):
        db = small_db()
        before = db.fingerprint()
        token = db.snapshot()
        for _ in range(3):
            db.clear_table("t")
            db.restore(token)
            assert db.fingerprint() == before

    def test_sandbox_context_restores_on_success_and_error(self):
        db = small_db()
        before = db.fingerprint()
        with db.sandbox():
            db.insert("t", [(7, "g")])
        assert db.fingerprint() == before
        with pytest.raises(RuntimeError):
            with db.sandbox():
                db.clear_table("t")
                raise RuntimeError("mid-block crash")
        assert db.fingerprint() == before

    def test_snapshot_equality_is_content_based(self):
        a, b = small_db(), small_db()
        assert a.snapshot() == b.snapshot()
        b.insert("t", [(4, "d")])
        assert a.snapshot() != b.snapshot()
        with pytest.raises(TypeError):
            hash(a.snapshot())
        assert isinstance(a.snapshot(), DatabaseSnapshot)

    def test_fingerprint_sensitive_to_row_order(self):
        a, b = small_db(), small_db()
        b.replace_rows("t", [(3, "c"), (2, "b"), (1, "a")])
        assert a.fingerprint() != b.fingerprint()  # byte-for-byte, not set-wise


class TestInvocationIsolation:
    def test_mutating_application_cannot_dirty_the_silo(self):
        db = small_db()

        def vandal(database):
            database.execute("delete from t")
            database.insert("t", [(99, "zz")])
            return Result(["k"], [(99,)])

        session = ExtractionSession(
            db, CallableExecutable(vandal), ExtractionConfig()
        )
        before = session.silo.fingerprint()
        result = session.run()
        assert result.rows == [(99,)]
        assert session.silo.fingerprint() == before

    def test_timeout_mid_dml_is_rolled_back(self):
        db = small_db()

        def slow_writer(database):
            database.insert("t", [(50, "partial")])
            time.sleep(0.02)
            for _ in database.scan("t"):  # polls the cooperative deadline
                pass
            return Result(["k"], [(50,)])

        session = ExtractionSession(
            db,
            CallableExecutable(slow_writer),
            ExtractionConfig(retry_base_delay=0.0),
        )
        before = session.silo.fingerprint()
        with pytest.raises(ExecutableTimeoutError):
            session.run(timeout=0.001)
        assert session.silo.fingerprint() == before
        assert session.stats.invocation_timeouts >= 1

    def test_retried_attempts_each_start_clean(self):
        db = small_db()
        attempts = []

        def flaky_writer(database):
            # Every attempt must observe the pristine 3-row table, or a
            # retry after partial DML would double-apply.
            attempts.append(database.row_count("t"))
            database.insert("t", [(60 + len(attempts), "w")])
            if len(attempts) < 3:
                from repro.errors import TransientExecutableError

                raise TransientExecutableError("boom")
            return Result(["n"], [(database.row_count("t"),)])

        session = ExtractionSession(
            db,
            CallableExecutable(flaky_writer),
            ExtractionConfig(retry_base_delay=0.0),
        )
        before = session.silo.fingerprint()
        result = session.run()
        assert attempts == [3, 3, 3]
        assert result.rows == [(4,)]
        assert session.silo.fingerprint() == before


@pytest.fixture(scope="module")
def sandbox_tpch_db():
    return tpch.build_database(scale=0.001, seed=13)


def _config(**overrides):
    return ExtractionConfig(sandbox_verify=True, **overrides)


class TestPipelineInvariant:
    """After any module outcome the silo equals D_I byte-for-byte.

    ``sandbox_verify=True`` makes the pipeline itself assert the fingerprint
    at every step boundary, so a clean completion of these extractions *is*
    the per-module assertion; the explicit checks cover the terminal state.
    """

    def test_successful_extraction_keeps_silo_at_di(self, sandbox_tpch_db):
        extractor = UnmasqueExtractor(
            sandbox_tpch_db, SQLExecutable(QUERY, obfuscate_text=True), _config()
        )
        outcome = extractor.extract()
        assert outcome.sql
        assert extractor.session.silo_matches_di()
        # ...and D_I is the *prepared* instance, not a coincidence: it still
        # carries every original row.
        session = extractor.session
        assert session.silo.total_rows() == sandbox_tpch_db.total_rows()

    def test_chaos_faulted_extraction_keeps_silo_at_di(self, sandbox_tpch_db):
        plan = FaultPlan(transient_rate=0.10, latency_rate=0.05, seed=77)
        app = FaultyExecutable(SQLExecutable(QUERY, obfuscate_text=True), plan)
        extractor = UnmasqueExtractor(
            sandbox_tpch_db,
            app,
            _config(retry_base_delay=0.0, retry_max_attempts=8, fail_fast=False),
        )
        outcome = extractor.extract()
        assert extractor.session.silo_matches_di()
        assert outcome.stats.retries > 0  # faults actually fired

    def test_crash_unwind_restores_silo(self, sandbox_tpch_db, tmp_path):
        app = FaultyExecutable(
            SQLExecutable(QUERY, obfuscate_text=True), FaultPlan(crash_at=30)
        )
        extractor = UnmasqueExtractor(
            sandbox_tpch_db, app, _config(), checkpoint_dir=tmp_path
        )
        with pytest.raises(InjectedCrashError):
            extractor.extract()
        # The terminal finally ran during the unwind: silo is back at D_I.
        assert extractor.session.silo_matches_di()

    def test_crash_resume_completes_with_silo_at_di(self, sandbox_tpch_db, tmp_path):
        app = FaultyExecutable(
            SQLExecutable(QUERY, obfuscate_text=True), FaultPlan(crash_at=30)
        )
        with pytest.raises(InjectedCrashError):
            UnmasqueExtractor(
                sandbox_tpch_db, app, _config(), checkpoint_dir=tmp_path
            ).extract()

        clean = SQLExecutable(QUERY, obfuscate_text=True)
        extractor = UnmasqueExtractor(
            sandbox_tpch_db, clean, _config(), checkpoint_dir=tmp_path
        )
        outcome = extractor.extract()
        assert outcome.resumed_modules
        assert outcome.sql
        assert extractor.session.silo_matches_di()

    def test_having_pipeline_restores_silo_on_exit(self, sandbox_tpch_db):
        sql = (
            "select o_custkey, count(*) as n from orders "
            "group by o_custkey having count(*) >= 2"
        )
        extractor = UnmasqueExtractor(
            sandbox_tpch_db,
            SQLExecutable(sql, obfuscate_text=True),
            ExtractionConfig(extract_having=True),
        )
        outcome = extractor.extract()
        assert outcome.sql
        assert extractor.session.silo_matches_di()
