"""Worker-pool isolation tests: kills, caps, classification, quarantine.

The pool is exercised directly with the hostile executables from
``tests/isolation_workloads.py`` (importable by the worker process) over
both handle kinds — local subprocess workers and a loopback worker agent
over TCP — then end-to-end through a real extraction under
``isolate="process"``.
"""

from __future__ import annotations

import itertools
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
    ExtractionError,
    UndefinedTableError,
    WorkerCrashedError,
    WorkerQuarantined,
)
from repro.isolation.agent import WorkerAgent
from repro.isolation.protocol import ProtocolError, pack_executable
from repro.isolation.remote import RemoteHandleFactory, RemoteSpec
from repro.isolation import supervisor
from repro.isolation.supervisor import WorkerPool, WorkerSpec
from repro.obs import MetricsRegistry, Tracer

from tests.isolation_workloads import (
    Aborter,
    AbortOnce,
    BusyLooper,
    EchoNation,
    MemoryHog,
    PaddedCounter,
    RowCounter,
    TablePrinter,
    ThreadLeaver,
    UnpickleFails,
    invoke_on_both_slots,
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
        # Two concurrent callers reach the second slot; its first worker is
        # startup, not a replacement, even though the first slot has
        # already run an invocation.
        pool = pool_factory(RowCounter(), pool_size=2)
        db = nation_db()
        assert pool.invoke(db, None)["ok"]
        assert pool.invoke(db, None)["ok"]
        # slots are leased last in, first out: serial callers keep the
        # worker that holds their state
        assert [
            handle is not None and not handle.ledger.fresh
            for handle in pool._handles
        ] == [True, False]
        assert [reply["ok"] for reply in invoke_on_both_slots(pool, db)] == [
            True,
            True,
        ]
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

    def test_desynchronised_frame_takes_the_crash_path(self, pool_factory):
        pool = pool_factory(RowCounter())
        db = nation_db()
        assert pool.invoke(db, None)["ok"]
        handle = pool._handles[0]
        # the ledger records a frame the worker never received, so the next
        # frame cuts a run out of a list the worker does not hold
        db.replace_rows("nation", [(7, "FRANCE"), (8, "GERMANY")])
        _, handle.ledger = handle.ledger.frame(db)
        db.install_rows("nation", db.rows("nation")[:1])
        with pytest.raises(WorkerCrashedError) as info:
            pool.invoke(db, None)
        assert info.value.kind == "exit-18"  # EXIT_PROTOCOL, no reply
        # a respawned worker gets the replica by value
        assert pool.invoke(db, None)["result"].rows == [(1,)]
        assert pool.stats.crashes == pool.stats.restarts == 1

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


class TestConcurrentBoot:
    """Local pools start every slot's worker together on the first invocation."""

    handle_kind = "process"

    def test_first_invocation_starts_every_slot(self, pool_factory):
        pool = pool_factory(RowCounter(), pool_size=2)
        assert pool.invoke(nation_db(), None)["ok"]
        workers = pool.factory.workers
        assert len(workers) == 2
        assert all(worker.alive for worker in workers)
        assert pool.stats.restarts == pool.respawns == 0

    def test_uninvoked_pool_spawns_nothing(self, pool_factory, monkeypatch):
        started = []

        class Spy(supervisor.WorkerHandle):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(supervisor, "WorkerHandle", Spy)
        pool = pool_factory(RowCounter(), pool_size=2)
        pool.close()
        assert started == []

    def test_failed_handshake_fails_every_first_lease(self, pool_factory):
        pool = pool_factory(UnpickleFails(), pool_size=2)
        db = nation_db()
        errors = invoke_on_both_slots(pool, db)
        assert all(isinstance(error, ExtractionError) for error in errors)
        messages = [str(error) for error in errors]
        assert messages[0] == messages[1]
        assert "unpickle-fails cannot be rebuilt" in messages[0]
        assert pool._handles == [None, None]
        assert pool.stats.restarts == pool.respawns == 0
        assert pool.stats.crashes == 0
        assert all(worker.proc.returncode is not None
                   for worker in pool.factory.workers)

    def test_close_reaps_every_started_worker(self, pool_factory):
        pool = pool_factory(RowCounter(), pool_size=3)
        assert pool.invoke(nation_db(), None)["ok"]
        workers = list(pool.factory.workers)
        assert len(workers) == 3  # one leased slot, two never leased
        pool.close()
        assert all(worker.proc.returncode is not None for worker in workers)


class TestWarmWorkers:
    """Healthy local workers outlive their pool and serve the next one."""

    SQL = "select l_orderkey, l_quantity from lineitem where l_quantity > 30"

    @staticmethod
    def warm_pool(executable, stash, **spec_kwargs) -> WorkerPool:
        spec_kwargs.setdefault("default_timeout", 10.0)
        return WorkerPool(
            executable,
            WorkerSpec(**spec_kwargs),
            factory=supervisor.LocalHandleFactory(stash=stash),
        )

    def test_second_extraction_starts_no_process(self, tpch_db, monkeypatch):
        clean = UnmasqueExtractor(
            tpch_db, SQLExecutable(self.SQL), ExtractionConfig(run_checker=False)
        ).extract()
        config = ExtractionConfig(isolate="process", jobs=2, run_checker=False)
        UnmasqueExtractor(tpch_db, SQLExecutable(self.SQL), config).extract()

        started = []
        spawn = supervisor.WorkerHandle.__init__

        def spy(self, *args, **kwargs):
            started.append(self)
            spawn(self, *args, **kwargs)

        monkeypatch.setattr(supervisor.WorkerHandle, "__init__", spy)
        extractor = UnmasqueExtractor(tpch_db, SQLExecutable(self.SQL), config)
        warm = extractor.extract()
        assert started == []
        assert warm.sql == clean.sql
        assert warm.stats.total_invocations == clean.stats.total_invocations
        pool = extractor.session.backend.pool
        assert pool.stats.restarts == pool.respawns == 0

    def test_abnormal_workers_are_never_taken_again(self):
        db = nation_db()
        stash = supervisor.WorkerStash()
        crashed = self.warm_pool(AbortOnce(), stash)
        with pytest.raises(WorkerCrashedError):
            crashed.invoke(db, None)
        dead = crashed.factory.workers[0]
        assert crashed.invoke(db, None)["ok"]  # a healthy replacement
        healthy = crashed._handles[0]
        crashed.close()
        assert dead.proc.returncode is not None
        assert stash.take(None) is healthy
        assert stash.take(None) is None
        healthy.kill()

        stash = supervisor.WorkerStash()
        killed = self.warm_pool(BusyLooper(seconds=60.0), stash, kill_grace=0.2)
        with pytest.raises(ExecutableTimeoutError):
            killed.invoke(db, 0.3)
        killed.close()
        assert killed._handles[0].proc.returncode is not None
        assert stash.take(None) is None

        stash = supervisor.WorkerStash()
        quarantined = self.warm_pool(RowCounter(), stash)
        assert quarantined.invoke(db, None)["ok"]
        with pytest.raises(WorkerQuarantined):
            quarantined.quarantine("refused")
        quarantined.close()
        assert quarantined._handles[0].proc.returncode is not None  # reaped
        assert stash.take(None) is None

    def test_memory_cap_keys_the_stash_and_size_bounds_it(self):
        db = nation_db()
        stash = supervisor.WorkerStash()
        uncapped = self.warm_pool(RowCounter(), stash)
        assert uncapped.invoke(db, None)["ok"]
        parked = uncapped._handles[0]
        uncapped.close()
        capped = self.warm_pool(
            RowCounter(), stash, memory_limit_bytes=512 * 1024 * 1024
        )
        assert capped.invoke(db, None)["ok"]
        assert capped._handles[0] is not parked
        capped.close()
        # one-slot pools bound the stash at one worker: the capped one is reaped
        assert capped._handles[0].proc.returncode is not None
        assert stash.take(512 * 1024 * 1024) is None
        assert stash.take(None) is parked
        parked.kill()

    def test_worker_that_died_while_parked_is_replaced(self):
        db = nation_db()
        stash = supervisor.WorkerStash()
        first = self.warm_pool(RowCounter(), stash)
        assert first.invoke(db, None)["ok"]
        parked = first._handles[0]
        first.close()
        parked.proc.kill()
        parked.proc.wait(timeout=10)
        second = self.warm_pool(RowCounter(), stash)
        assert second.invoke(db, None)["result"].rows == [(3,)]
        assert second._handles[0] is not parked
        assert second.respawns == 0
        second.close()
        stash.drain()

    def test_reinit_clears_last_injected_and_shipped(self, monkeypatch):
        from repro.resilience.faults import FaultPlan, FaultyExecutable

        plan = FaultPlan(name="slow", latency_rate=1.0, latency_seconds=0.0)
        db = nation_db()
        stash = supervisor.WorkerStash()
        first = self.warm_pool(FaultyExecutable(EchoNation(), plan), stash)
        for _ in range(2):
            assert first.invoke(db, None)["ok"]
        handle = first._handles[0]
        assert handle.last_injected["latency"] == 2
        assert not handle.ledger.fresh
        first.close()
        assert handle.ledger.fresh  # parking let go of the silo's rows

        shipped = []
        frame = supervisor.ShipLedger.frame

        def spy(ledger, database):
            shipping, after = frame(ledger, database)
            shipped.append(
                (
                    shipping["reset"],
                    sorted(shipping["tables"]),
                    [type(rows) for rows in shipping["rows"].values()],
                )
            )
            return shipping, after

        monkeypatch.setattr(supervisor.ShipLedger, "frame", spy)
        second = self.warm_pool(FaultyExecutable(EchoNation(), plan), stash)
        reply = second.invoke(db, None)
        assert second._handles[0] is handle
        assert handle.last_injected["latency"] == 1  # a fresh executable
        assert reply["stats"]["invocation_count"] == 1
        # the worker started an empty replica, so the same silo ships in
        # full, by value: nothing the previous pool shipped is reused
        assert shipped == [(True, ["nation"], [list])]
        assert len(reply["result"].rows) == 3
        handle.reinit(second.executable_blob)
        assert handle.last_injected == {} and handle.ledger.fresh
        second.close()
        stash.drain()

    def test_worker_left_running_a_thread_is_reaped(self):
        db = nation_db()
        stash = supervisor.WorkerStash()
        pool = self.warm_pool(ThreadLeaver(), stash)
        assert pool.invoke(db, None)["result"].rows == [(3,)]
        worker = pool._handles[0]
        assert supervisor._thread_count(worker.proc.pid) == 2
        pool.close()
        assert worker.proc.returncode is not None
        assert stash.take(None) is None

    def test_parked_worker_that_stalls_reinit_is_replaced_by_a_spawn(
        self, monkeypatch
    ):
        import signal
        import threading

        db = nation_db()
        stash = supervisor.WorkerStash()
        first = self.warm_pool(RowCounter(), stash)
        assert first.invoke(db, None)["ok"]
        parked = first._handles[0]
        first.close()
        # a stopped worker reads nothing, so the 1 MiB init frame would
        # block its write forever without the watchdog
        parked.proc.send_signal(signal.SIGSTOP)
        monkeypatch.setattr(supervisor, "_SPAWN_TIMEOUT", 4.0)
        second = self.warm_pool(PaddedCounter(), stash)
        assert len(second.executable_blob) > 1 << 20
        replies = []
        invoker = threading.Thread(
            target=lambda: replies.append(second.invoke(db, None)), daemon=True
        )
        invoker.start()
        invoker.join(timeout=60)
        if invoker.is_alive():
            parked.proc.kill()  # unblock the write before failing
        assert not invoker.is_alive()
        assert replies[0]["result"].rows == [(3,)]
        assert second._handles[0] is not parked
        assert parked.proc.returncode == -signal.SIGKILL
        assert second.respawns == second.stats.restarts == 0
        second.close()
        stash.drain()

    def test_concurrent_pools_never_share_a_worker(self):
        import sys
        import threading

        stash = supervisor.WorkerStash()
        db = nation_db()
        lock = threading.Lock()
        in_use: set = set()
        errors = []

        def extraction_loop():
            try:
                for _ in range(3):
                    pool = self.warm_pool(RowCounter(), stash)
                    assert pool.invoke(db, None)["result"].rows == [(3,)]
                    handle = pool._handles[0]
                    with lock:
                        assert handle not in in_use
                        in_use.add(handle)
                    assert pool.invoke(db, None)["result"].rows == [(3,)]
                    assert pool._handles[0] is handle
                    with lock:
                        in_use.discard(handle)
                    pool.close()
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=extraction_loop) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        parked = stash.take(None)
        assert parked is not None and parked.alive
        assert stash.take(None) is None  # bounded by the one-slot pools
        parked.kill()

    def test_exiting_process_leaves_no_live_worker(self):
        import os
        import subprocess
        import sys

        import repro

        roots = [
            os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        ]
        script = (
            "from repro.apps.executable import SQLExecutable\n"
            "from repro.core.config import ExtractionConfig\n"
            "from repro.core.pipeline import UnmasqueExtractor\n"
            "from repro.datagen import tpch\n"
            "from repro.isolation.supervisor import PARKED_WORKERS\n"
            "db = tpch.build_database(scale=0.0005, seed=11)\n"
            "config = ExtractionConfig(isolate='process', jobs=2, run_checker=False)\n"
            f"app = SQLExecutable({self.SQL!r})\n"
            "UnmasqueExtractor(db, app, config).extract()\n"
            "print([w.pid for idle in PARKED_WORKERS._idle.values() for w in idle])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(roots)),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        pids = eval(done.stdout.decode().strip().splitlines()[-1])
        assert pids  # the extraction parked its workers
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestWorkerImportClosure:
    """A worker imports only what it unpickles — never the pipeline stack."""

    def test_worker_unpickles_without_core(self):
        import os
        import subprocess
        import sys

        import repro
        import tests.isolation_workloads
        from repro.apps.enki import registry
        from repro.resilience.faults import FAULT_PROFILES, FaultyExecutable

        command = next(iter(registry.commands.values())).executable()
        blobs = [
            pack_executable(executable)
            for executable in (
                SQLExecutable("select n_name from nation"),
                command,
                FaultyExecutable(command, FAULT_PROFILES["crash"]),
                Aborter(),
            )
        ]
        roots = [
            os.path.dirname(os.path.dirname(os.path.abspath(module.__file__)))
            for module in (repro, tests.isolation_workloads)
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(roots))
        probe = (
            "import pickle, sys\n"
            "import repro.isolation.worker\n"
            "for blob in pickle.load(sys.stdin.buffer):\n"
            "    pickle.loads(blob)\n"
            "heavy = ('repro.core', 'networkx', 'numpy')\n"
            "print(sorted(name for name in sys.modules if name in heavy))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            input=pickle.dumps(blobs),
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().strip() == "[]"


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

        # hard faults are drawn per invocation ordinal: take the first seed
        # whose plan fires early in any extraction of SQL
        base = FAULT_PROFILES[profile]
        plan = next(
            candidate
            for candidate in map(base.with_seed, itertools.count())
            if any(candidate.draw_hard(ordinal) for ordinal in range(1, 10))
        )
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
        return extractor.session.backend.pool.stats, app.injected

    def test_crash_profile_converges_under_isolation(self, tpch_db):
        clean = UnmasqueExtractor(
            tpch_db, SQLExecutable(self.SQL), ExtractionConfig(run_checker=False)
        ).extract()
        stats, injected = self._chaos(tpch_db, "crash", clean.sql)
        assert stats.crashes > 0
        assert stats.restarts == stats.crashes
        # an aborted worker never replies: the supervisor counts its fault
        assert injected["crash"] == stats.crashes

    def test_hang_profile_converges_under_isolation(self, tpch_db):
        clean = UnmasqueExtractor(
            tpch_db, SQLExecutable(self.SQL), ExtractionConfig(run_checker=False)
        ).extract()
        stats, injected = self._chaos(tpch_db, "hang", clean.sql)
        assert stats.kills > 0
        assert injected["hang"] == stats.kills

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
