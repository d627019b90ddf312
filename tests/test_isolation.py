"""Worker-pool isolation tests: kills, caps, classification, quarantine.

The pool is exercised directly with the hostile executables from
``tests/isolation_workloads.py`` (importable by the worker process) over
both handle kinds — local subprocess workers and a loopback worker agent
over TCP — then end-to-end through a real extraction under
``isolate="process"``.
"""

from __future__ import annotations

import pickle

import pytest

from repro.apps.executable import SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.engine.catalog import Column, TableSchema
from repro.engine.database import Database
from repro.engine.types import IntegerType, VarcharType
from repro.errors import (
    ExecutableTimeoutError,
    UndefinedTableError,
    WorkerCrashedError,
    WorkerQuarantined,
)
from repro.isolation.agent import WorkerAgent
from repro.isolation.protocol import ProtocolError, pack_executable
from repro.isolation.remote import RemoteHandleFactory, RemoteSpec
from repro.isolation.supervisor import WorkerPool, WorkerSpec
from repro.obs import MetricsRegistry, Tracer

from tests.isolation_workloads import (
    Aborter,
    AbortOnce,
    BusyLooper,
    EchoNation,
    MemoryHog,
    RowCounter,
    TablePrinter,
)


def nation_db() -> Database:
    db = Database(
        [
            TableSchema(
                name="nation",
                columns=(
                    Column("n_nationkey", IntegerType()),
                    Column("n_name", VarcharType(25)),
                ),
                primary_key=("n_nationkey",),
            )
        ]
    )
    db.insert("nation", [(0, "ALGERIA"), (1, "ARGENTINA"), (2, "BRAZIL")])
    return db


@pytest.fixture
def pool_factory(request):
    """Builds pools of the test class's ``handle_kind``."""
    pools = []
    agents = []

    def make(executable, **spec_kwargs) -> WorkerPool:
        spec_kwargs.setdefault("default_timeout", 10.0)
        spec = WorkerSpec(**spec_kwargs)
        factory = None
        if request.cls.handle_kind == "remote":
            # the agent spawns the workers, so it applies the memory cap
            agent = WorkerAgent(spec=spec)
            agents.append(agent)
            factory = RemoteHandleFactory(RemoteSpec(peers=(agent.start(),)))
        pool = WorkerPool(executable, spec, factory=factory)
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.close()
    for agent in agents:
        agent.stop()


class TestWorkerPool:
    """The pool contract, on local subprocess handles."""

    handle_kind = "process"

    def test_clean_invocation_round_trip(self, pool_factory):
        pool = pool_factory(EchoNation())
        reply = pool.invoke(nation_db(), None)
        assert reply["ok"]
        assert reply["result"].rows == [(0, "ALGERIA"), (1, "ARGENTINA"), (2, "BRAZIL")]
        assert reply["stats"]["rows_scanned"] >= 3
        assert reply["stats"]["maxrss_bytes"] > 0

    def test_kill_on_deadline(self, pool_factory):
        pool = pool_factory(BusyLooper(seconds=60.0), kill_grace=0.2)
        with pytest.raises(ExecutableTimeoutError):
            pool.invoke(nation_db(), 0.3)
        assert pool.stats.kills == 1
        assert pool.stats.crashes == 0

    def test_rss_cap_kill_classified_as_oom(self, pool_factory):
        pool = pool_factory(
            MemoryHog(), memory_limit_bytes=256 * 1024 * 1024
        )
        with pytest.raises(WorkerCrashedError) as info:
            pool.invoke(nation_db(), None)
        assert info.value.kind == "oom"
        assert pool.stats.crashes == 1

    def test_abort_classified_and_retryable(self, pool_factory):
        pool = pool_factory(Aborter())
        with pytest.raises(WorkerCrashedError) as info:
            pool.invoke(nation_db(), None)
        assert info.value.kind == "abort"
        # the retry layer must treat a worker crash as transient
        from repro.resilience.retry import RetryPolicy

        assert RetryPolicy().is_retryable(info.value)

    def test_restart_accounting_after_crash(self, pool_factory):
        pool = pool_factory(AbortOnce())
        db = nation_db()
        with pytest.raises(WorkerCrashedError):
            pool.invoke(db, None)
        reply = pool.invoke(db, None)  # fresh worker, clean run
        assert reply["ok"]
        assert pool.stats.crashes == 1
        assert pool.stats.restarts == 1
        assert pool.consecutive_abnormal == 0  # streak reset by the reply

    def test_first_worker_of_each_slot_is_not_a_restart(self, pool_factory):
        # Serial invocations rotate through the slots; the second slot's
        # first worker is startup, not a replacement, even though the first
        # slot has already run an invocation.
        pool = pool_factory(RowCounter(), pool_size=2)
        db = nation_db()
        assert pool.invoke(db, None)["ok"]
        assert pool.invoke(db, None)["ok"]
        assert [handle.alive for handle in pool._handles] == [True, True]
        assert pool.stats.crashes == 0
        assert pool.stats.restarts == 0
        assert pool.respawns == 0

    def test_concurrent_callers_are_counted_exactly_once(self, pool_factory):
        # More callers than slots: excess callers queue for a slot, and the
        # shared ledger neither loses nor double-counts an invocation.
        import sys
        import threading

        pool = pool_factory(RowCounter(), pool_size=2)
        db = nation_db()
        replies, errors = [], []

        def caller():
            try:
                for _ in range(3):
                    replies.append(pool.invoke(db, None))
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [reply["result"].rows for reply in replies] == [[(3,)]] * 12
        assert pool.stats.invocations == pool.ordinal == 12
        assert pool.stats.restarts == 0

    def test_quarantine_after_consecutive_crashes(self, pool_factory):
        pool = pool_factory(Aborter(), quarantine_threshold=3, max_respawns=10)
        db = nation_db()
        outcomes = []
        for _ in range(5):
            try:
                pool.invoke(db, None)
            except WorkerCrashedError:
                outcomes.append("crash")
            except WorkerQuarantined:
                outcomes.append("quarantined")
        # K-th consecutive abnormal exit flips to quarantine, and it sticks
        assert outcomes == ["crash", "crash", "quarantined", "quarantined", "quarantined"]
        assert pool.stats.crashes == 3
        assert pool.quarantine_error is not None

    def test_respawn_budget_exhaustion_quarantines(self, pool_factory):
        pool = pool_factory(
            Aborter(), quarantine_threshold=100, max_respawns=2
        )
        db = nation_db()
        with pytest.raises(WorkerCrashedError):
            pool.invoke(db, None)
        with pytest.raises(WorkerCrashedError):
            pool.invoke(db, None)  # respawn 1
        with pytest.raises(WorkerCrashedError):
            pool.invoke(db, None)  # respawn 2
        with pytest.raises(WorkerQuarantined) as info:
            pool.invoke(db, None)  # respawn budget spent
        assert "respawn budget" in str(info.value)

    def test_stdout_chatter_does_not_corrupt_frames(self, pool_factory):
        pool = pool_factory(TablePrinter())
        reply = pool.invoke(nation_db(), None)
        assert reply["ok"]
        assert reply["result"].rows == [(0,), (1,), (2,)]

    def test_clean_engine_error_round_trips_semantically(self, pool_factory):
        pool = pool_factory(SQLExecutable("select x from ghost_table"))
        reply = pool.invoke(nation_db(), None)
        assert not reply["ok"]
        error = reply["error"]
        # identity must survive pickling: the From-clause extractor reads it
        assert isinstance(error, UndefinedTableError)
        assert error.table_name == "ghost_table"
        assert pool.stats.crashes == 0  # a clean reply, not an abnormal exit

    def test_table_deltas_track_supervisor_state(self, pool_factory):
        pool = pool_factory(RowCounter())
        db = nation_db()
        assert pool.invoke(db, None)["result"].rows == [(3,)]
        db.replace_rows("nation", [(7, "FRANCE")])
        assert pool.invoke(db, None)["result"].rows == [(1,)]
        db.insert("nation", [(8, "GERMANY")])
        assert pool.invoke(db, None)["result"].rows == [(2,)]
        # unchanged state ships no delta but still answers correctly
        assert pool.invoke(db, None)["result"].rows == [(2,)]

    def test_worker_dml_rolls_back_between_runs(self, pool_factory):
        pool = pool_factory(
            SQLExecutable("delete from nation where n_nationkey >= 0")
        )
        db = nation_db()
        first = pool.invoke(db, None)
        assert first["ok"]
        # the worker's sandbox restored its replica: same deletable rows again
        second = pool.invoke(db, None)
        assert second["result"].rows == first["result"].rows

    def test_unpicklable_executable_fails_eagerly(self):
        from repro.apps.executable import CallableExecutable

        opaque = CallableExecutable(lambda db: None, name="lambda-app")
        with pytest.raises(ProtocolError, match="lambda-app"):
            pack_executable(opaque)

    def test_crash_error_pickles_faithfully(self):
        error = WorkerCrashedError("segfault", "pid 1 died", ordinal=42)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.kind == "segfault"
        assert clone.ordinal == 42
        quarantined = WorkerQuarantined("why", crashes=4, respawns=9)
        clone = pickle.loads(pickle.dumps(quarantined))
        assert (clone.reason, clone.crashes, clone.respawns) == ("why", 4, 9)


class TestWorkerPoolOverTcp(TestWorkerPool):
    """The same contract, on TCP handles to a loopback worker agent."""

    handle_kind = "remote"


class TestIsolatedExtraction:
    SQL = "select l_orderkey, l_quantity from lineitem where l_quantity > 30"

    def test_isolated_extraction_matches_in_process(self, tpch_db):
        config = ExtractionConfig(run_checker=False)
        clean = UnmasqueExtractor(
            tpch_db, SQLExecutable(self.SQL), config
        ).extract()

        import dataclasses

        isolated_config = dataclasses.replace(config, isolate="process")
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics, keep_spans=False)
        app = SQLExecutable(self.SQL)
        extractor = UnmasqueExtractor(tpch_db, app, isolated_config, tracer=tracer)
        outcome = extractor.extract()

        assert outcome.sql == clean.sql
        # observability parity: local counters advanced once per invocation
        assert app.invocation_count == outcome.stats.total_invocations
        assert (
            metrics.counter("invocations_total").value
            == outcome.stats.total_invocations
        )
        assert extractor.session.backend.pool.closed

    def test_isolated_trace_strategy_mirrors_access_log(self, tpch_db):
        config = ExtractionConfig(
            isolate="process",
            from_clause_strategy="trace",
            run_checker=False,
        )
        outcome = UnmasqueExtractor(
            tpch_db, SQLExecutable(self.SQL), config
        ).extract()
        assert list(outcome.query.tables) == ["lineitem"]

    def test_quarantined_best_effort_verdict(self, tpch_db):
        config = ExtractionConfig(
            isolate="process",
            fail_fast=False,
            run_checker=False,
            retry_max_attempts=2,
            retry_base_delay=0.0,
            worker_quarantine_threshold=2,
            worker_max_respawns=4,
        )
        outcome = UnmasqueExtractor(tpch_db, Aborter(), config).extract()
        assert outcome.verdict == "quarantined"
        assert outcome.degradations
        assert outcome.degradations[-1].error == "WorkerQuarantined"

    def test_quarantined_fail_fast_raises(self, tpch_db):
        config = ExtractionConfig(
            isolate="process",
            fail_fast=True,
            run_checker=False,
            retry_max_attempts=2,
            retry_base_delay=0.0,
            worker_quarantine_threshold=2,
            worker_max_respawns=4,
        )
        with pytest.raises(WorkerQuarantined):
            UnmasqueExtractor(tpch_db, Aborter(), config).extract()

    def test_isolated_budget_counts_invocations_once(self, tpch_db):
        config = ExtractionConfig(
            isolate="process",
            run_checker=False,
            budget_invocations=10**9,
            budget_rows_scanned=10**12,
        )
        extractor = UnmasqueExtractor(tpch_db, SQLExecutable(self.SQL), config)
        outcome = extractor.extract()
        assert outcome.budget is not None
        assert outcome.budget["invocations"] == outcome.stats.total_invocations
        assert outcome.budget["rows_scanned"] > 0


class TestHardFaultChaos:
    SQL = "select l_orderkey, l_quantity from lineitem where l_quantity > 30"

    def _chaos(self, db, profile, clean_sql):
        import dataclasses

        from repro.resilience.faults import FAULT_PROFILES, FaultyExecutable

        plan = FAULT_PROFILES[profile].with_seed(1337)
        config = ExtractionConfig(
            isolate="process",
            worker_default_timeout=1.0,
            run_checker=False,
            retry_max_attempts=6,
            retry_base_delay=0.0,
            retry_timeouts=plan.injects_timeouts,
        )
        app = FaultyExecutable(SQLExecutable(self.SQL), plan)
        extractor = UnmasqueExtractor(db, app, config)
        outcome = extractor.extract()
        assert outcome.sql == clean_sql
        return extractor.session.backend.pool.stats

    def test_crash_profile_converges_under_isolation(self, tpch_db):
        clean = UnmasqueExtractor(
            tpch_db, SQLExecutable(self.SQL), ExtractionConfig(run_checker=False)
        ).extract()
        stats = self._chaos(tpch_db, "crash", clean.sql)
        assert stats.crashes > 0
        assert stats.restarts == stats.crashes

    def test_hang_profile_converges_under_isolation(self, tpch_db):
        clean = UnmasqueExtractor(
            tpch_db, SQLExecutable(self.SQL), ExtractionConfig(run_checker=False)
        ).extract()
        stats = self._chaos(tpch_db, "hang", clean.sql)
        assert stats.kills > 0

    def test_hard_draws_are_per_ordinal_not_streamed(self):
        from repro.resilience.faults import FaultPlan

        plan = FaultPlan(name="t", crash_rate=0.2, seed=99)
        first = [plan.draw_hard(i) for i in range(1, 200)]
        second = [plan.draw_hard(i) for i in range(1, 200)]
        assert first == second  # deterministic per ordinal, stateless
        # ~20% crash rate: both outcomes must appear, so a retried
        # invocation (fresh ordinal) is not doomed to replay its fault
        assert any(kind == "crash" for kind in first)
        assert any(kind is None for kind in first)
        # the soft-fault stream is untouched by hard draws
        import random

        rng_a, rng_b = random.Random(99), random.Random(99)
        soft = FaultPlan(name="s", transient_rate=0.1, crash_rate=0.2, seed=99)
        for ordinal in range(1, 50):
            soft.draw_hard(ordinal)
            assert soft.draw(rng_a) == FaultPlan(
                name="s0", transient_rate=0.1
            ).draw(rng_b)


class TestSessionCloseAndBackendSelection:
    def test_unknown_isolation_backend_rejected(self, tpch_db):
        from repro.errors import ExtractionError

        with pytest.raises(ExtractionError, match="unknown isolation backend"):
            ExtractionSession(
                tpch_db,
                SQLExecutable("select n_name from nation"),
                ExtractionConfig(isolate="thread"),
            )

    def test_close_is_idempotent(self, tpch_db):
        session = ExtractionSession(
            tpch_db,
            SQLExecutable("select n_name from nation"),
            ExtractionConfig(isolate="process"),
        )
        session.close()
        session.close()
        assert session.backend.pool.closed
