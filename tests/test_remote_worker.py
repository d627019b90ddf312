"""Remote isolation: agent + transport + leases/fencing + failure detection.

Covers the TCP handle kind (:mod:`repro.isolation.remote`) of the worker
pool against a real in-process :class:`~repro.isolation.agent.WorkerAgent`
on loopback, plus the pure pieces (EWMA detector, health registry) in
isolation.  The pool contract both handle kinds share (round-trip, kills,
crash classification, quarantine, delta tracking) is parametrized over both
in ``tests/test_isolation.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.apps.executable import SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import UnmasqueExtractor
from repro.errors import (
    ExecutableTimeoutError,
    ExtractionError,
    PeerQuarantined,
    PeerUnavailable,
    TransientExecutableError,
    WorkerCrashedError,
    WorkerQuarantined,
)
from repro.isolation.agent import WorkerAgent
from repro.isolation.protocol import (
    ProtocolError,
    TcpTransport,
    TransportTimeout,
)
from repro.isolation.remote import (
    FailureDetector,
    PeerHealthRegistry,
    RemoteHandleFactory,
    RemoteSpec,
)
from repro.isolation.supervisor import WorkerPool, WorkerSpec
from repro.workloads import tpch_queries
from tests.isolation_workloads import AbortOnce, BusyLooper, RowCounter


@pytest.fixture()
def agent():
    worker_agent = WorkerAgent()
    worker_agent.start()
    yield worker_agent
    worker_agent.stop()


def remote_pool(executable, remote_spec, registry=None, **spec_kwargs):
    factory = RemoteHandleFactory(remote_spec, registry=registry)
    return WorkerPool(executable, WorkerSpec(**spec_kwargs), factory=factory)


def make_pool(agent, executable=None, **overrides):
    executable = executable or RowCounter()
    defaults = dict(
        peers=(agent.address,),
        default_timeout=5.0,
        kill_grace=0.5,
        heartbeat_interval=0.2,
        backoff_base=0.01,
        backoff_max=0.05,
        connect_timeout=2.0,
    )
    defaults.update(overrides)
    remote = {key: defaults.pop(key) for key in list(defaults)
              if key in RemoteSpec.__dataclass_fields__}
    return remote_pool(executable, RemoteSpec(**remote), **defaults)


class TestFailureDetector:
    def test_cold_detector_returns_the_ceiling(self):
        detector = FailureDetector(k=4.0, floor=0.25, ceiling=10.0)
        assert detector.timeout() == 10.0

    def test_ewma_tracks_the_mean_and_deviation(self):
        detector = FailureDetector(k=4.0, floor=0.0, ceiling=60.0)
        for _ in range(50):
            detector.observe(0.1)
        # stable RTTs: dev decays toward zero, timeout approaches the mean
        assert 0.09 < detector.timeout() < 0.35

    def test_floor_and_ceiling_clamp(self):
        detector = FailureDetector(k=4.0, floor=0.25, ceiling=1.0)
        detector.observe(0.0001)
        assert detector.timeout() == 0.25
        for _ in range(10):
            detector.observe(5.0)
        assert detector.timeout() == 1.0

    def test_jittery_links_widen_the_timeout(self):
        steady = FailureDetector(k=4.0, floor=0.0, ceiling=60.0)
        jittery = FailureDetector(k=4.0, floor=0.0, ceiling=60.0)
        for index in range(40):
            steady.observe(0.1)
            jittery.observe(0.02 if index % 2 else 0.18)
        assert jittery.timeout() > steady.timeout()


class TestPeerHealthRegistry:
    def test_snapshot_shape_and_ages(self):
        registry = PeerHealthRegistry(("a:1", "b:2"))
        registry.note_heartbeat("a:1", rtt=0.01)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"a:1", "b:2"}
        assert snapshot["a:1"]["state"] == "up"
        assert snapshot["a:1"]["last_heartbeat_age"] is not None
        assert snapshot["b:2"]["state"] == "unknown"
        assert snapshot["b:2"]["last_heartbeat_age"] is None

    def test_healthy_until_every_peer_is_down(self):
        registry = PeerHealthRegistry(("a:1", "b:2"))
        registry.note_down("a:1")
        assert registry.healthy()
        registry.note_quarantine("b:2")
        assert not registry.healthy()
        assert registry.snapshot()["b:2"]["quarantines"] == 1


class TestPeerErrors:
    def test_peer_unavailable_is_retryable_and_picklable(self):
        import pickle

        error = PeerUnavailable("h:1", "partition suspected", ordinal=3)
        assert isinstance(error, TransientExecutableError)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.address == "h:1"
        assert clone.ordinal == 3

    def test_peer_quarantined_is_a_worker_quarantine(self):
        error = PeerQuarantined("all peers dead", 2, 5, peers=("h:1",))
        assert isinstance(error, WorkerQuarantined)
        assert error.peers == ("h:1",)


class TestRemotePoolBasics:
    def test_invoke_runs_on_the_agent_worker(self, agent, tpch_db):
        pool = make_pool(agent)
        try:
            reply = pool.invoke(tpch_db, timeout=5.0)
            assert reply["ok"]
            assert reply["result"].row_count > 0
            assert pool.stats.invocations == 1
            health = pool.health()
            assert agent.address in health["peers"]
        finally:
            pool.close()

    def test_incremental_state_ship(self, agent, tpch_db):
        pool = make_pool(agent)
        try:
            pool.invoke(tpch_db, timeout=5.0)
            handle = pool._handles[0]
            first_ship = dict(handle.shipped)
            pool.invoke(tpch_db, timeout=5.0)
            # unchanged db → second invocation ships no deltas
            assert dict(handle.shipped) == first_ship
        finally:
            pool.close()

    def test_no_peers_is_an_immediate_error(self):
        with pytest.raises(ExtractionError):
            remote_pool(RowCounter(), RemoteSpec(peers=()))

    def test_unreachable_peer_quarantines_with_structured_error(self):
        spec = RemoteSpec(
            peers=("127.0.0.1:1",),  # reserved port: nothing listens
            connect_timeout=0.2,
            backoff_base=0.001,
            backoff_max=0.002,
            max_reconnects=2,
        )
        pool = remote_pool(RowCounter(), spec)
        try:
            from repro.datagen import tpch

            db = tpch.build_database(scale=0.0002, seed=3)
            with pytest.raises(PeerQuarantined):
                pool.invoke(db, timeout=1.0)
            # quarantine is sticky
            with pytest.raises(PeerQuarantined):
                pool.invoke(db, timeout=1.0)
            assert pool.quarantine_error is not None
        finally:
            pool.close()


class TestRemoteFailureModes:
    def test_worker_crash_is_classified_and_respawned(self, agent, tpch_db):
        pool = make_pool(agent, executable=AbortOnce())
        try:
            with pytest.raises(WorkerCrashedError) as info:
                pool.invoke(tpch_db, timeout=5.0)
            assert info.value.kind == "abort"
            assert pool.stats.crashes == 1
            # the connection died with the worker; the next invocation
            # reconnects (= respawns) and succeeds on a fresh worker
            reply = pool.invoke(tpch_db, timeout=5.0)
            assert reply["ok"]
            assert pool.respawns >= 1
            assert pool.consecutive_abnormal == 0
        finally:
            pool.close()

    def test_hard_timeout_is_killed_by_the_agent(self, agent, tpch_db):
        pool = make_pool(agent, executable=BusyLooper(seconds=60.0),
                         default_timeout=0.4, kill_grace=0.2)
        try:
            with pytest.raises(ExecutableTimeoutError):
                pool.invoke(tpch_db, timeout=0.4)
            assert pool.stats.kills == 1
            assert pool.stats.crashes == 0
        finally:
            pool.close()

    def test_agent_restart_mid_stream_is_a_retryable_peer_error(
        self, agent, tpch_db
    ):
        pool = make_pool(agent)
        try:
            pool.invoke(tpch_db, timeout=5.0)
            # tear down every live connection out from under the pool
            with agent._lock:
                connections = list(agent._connections)
            for connection in connections:
                connection.transport.close()
            with pytest.raises(PeerUnavailable):
                pool.invoke(tpch_db, timeout=5.0)
            # reconnect restores service on the same agent
            reply = pool.invoke(tpch_db, timeout=5.0)
            assert reply["ok"]
        finally:
            pool.close()


class TestTransportSecurity:
    def test_agent_refuses_non_loopback_without_secret(self):
        worker_agent = WorkerAgent(host="0.0.0.0")
        with pytest.raises(ValueError, match="non-loopback"):
            worker_agent.start()

    def test_agent_accepts_non_loopback_with_secret(self):
        worker_agent = WorkerAgent(host="0.0.0.0", secret=b"hunter2")
        worker_agent.start()
        worker_agent.stop()

    def test_shared_secret_end_to_end(self, tpch_db):
        worker_agent = WorkerAgent(secret=b"hunter2")
        address = worker_agent.start()
        try:
            pool = remote_pool(
                RowCounter(),
                RemoteSpec(peers=(address,), secret=b"hunter2",
                           connect_timeout=2.0),
                default_timeout=5.0,
            )
            try:
                assert pool.invoke(tpch_db, timeout=5.0)["ok"]
            finally:
                pool.close()
        finally:
            worker_agent.stop()

    def test_unauthenticated_supervisor_is_refused(self):
        # A client without the secret never gets past the frame MAC: the
        # agent drops the connection without ever unpickling a payload.
        worker_agent = WorkerAgent(secret=b"hunter2")
        address = worker_agent.start()
        try:
            transport = TcpTransport.connect(address, timeout=2.0)
            try:
                transport.send({"cmd": "hello", "epoch": 0, "req": 1})
                with pytest.raises((EOFError, ProtocolError,
                                    TransportTimeout)):
                    transport.recv(2.0)
            finally:
                transport.close()
        finally:
            worker_agent.stop()


class TestAgentRequestValidation:
    def test_init_without_executable_is_a_structured_error(self, agent):
        transport = TcpTransport.connect(agent.address, timeout=2.0)
        try:
            transport.send({"cmd": "init", "epoch": 7, "req": 1})
            reply = transport.recv(2.0)
            assert reply["ok"] is False
            assert "executable" in str(reply["error"])
            # fencing meta is echoed even on the error path...
            assert reply["epoch"] == 7
            assert reply["req"] == 1
            # ...and the connection survives for a corrected retry
            transport.send({"cmd": "ping", "epoch": 7, "req": 2})
            assert transport.recv(2.0)["pong"]
        finally:
            transport.close()


class TestFencing:
    def test_stale_epoch_replies_are_fenced(self, agent, tpch_db):
        pool = make_pool(agent)
        try:
            pool.invoke(tpch_db, timeout=5.0)
            handle = pool._handles[0]
            with handle.lock:
                # park a request the supervisor then abandons: the reply
                # arrives carrying the old epoch and must be dropped by the
                # next request's matching reader
                old_epoch = handle.epoch
                handle.transport.send(
                    {"cmd": "ping", "epoch": old_epoch, "req": 99_991}
                )
                handle.abandon()
                assert handle.epoch == old_epoch + 1
                rtt = handle.ping()  # drains + fences the stale pong
                assert rtt >= 0.0
                assert handle.fenced_replies >= 1
        finally:
            pool.close()

    def test_lease_epoch_bumps_never_double_account(self, agent, tpch_db):
        """A retried invocation reuses the budget slot exactly once."""
        pool = make_pool(agent)
        try:
            pool.invoke(tpch_db, timeout=5.0)
            before = pool.stats.invocations
            handle = pool._handles[0]
            with handle.lock:
                handle.abandon()  # presumed-dead: lease fenced
            reply = pool.invoke(tpch_db, timeout=5.0)
            assert reply["ok"]
            assert pool.stats.invocations == before + 1
        finally:
            pool.close()


class TestReconnectAccounting:
    def test_fresh_slot_first_connect_is_not_a_reconnect(self, agent, tpch_db):
        # With pool_size > 1, a sibling slot's invocations must not make an
        # unused slot's first-ever dial look like a worker replacement.
        pool = make_pool(agent, pool_size=2)
        try:
            pool.invoke(tpch_db, timeout=5.0)  # slot 0 connects and runs
            late = pool._handles[1]
            assert not late.has_connected
            with late.lock:
                pool.factory.ready(late)
            assert late.has_connected
            assert pool.respawns == 0
            assert pool.stats.restarts == 0
            assert pool.factory.registry.snapshot()[agent.address]["reconnects"] == 0
        finally:
            pool.close()

    def test_second_connect_of_a_handle_is_a_reconnect(self, agent, tpch_db):
        pool = make_pool(agent)
        try:
            pool.invoke(tpch_db, timeout=5.0)
            handle = pool._handles[0]
            with handle.lock:
                handle.mark_dead()
                pool.factory.ready(handle)
            assert pool.respawns == 1
            assert pool.stats.restarts == 1
            assert pool.factory.registry.snapshot()[agent.address]["reconnects"] == 1
        finally:
            pool.close()


class TestHeartbeats:
    def test_heartbeats_feed_the_registry_and_detector(self, agent, tpch_db):
        registry = PeerHealthRegistry((agent.address,))
        pool = remote_pool(
            RowCounter(),
            RemoteSpec(peers=(agent.address,), heartbeat_interval=0.05),
            registry=registry,
            default_timeout=5.0,
        )
        try:
            pool.invoke(tpch_db, timeout=5.0)
            deadline = time.time() + 3.0
            while time.time() < deadline:
                entry = registry.snapshot()[agent.address]
                if entry["last_heartbeat_age"] is not None:
                    break
                time.sleep(0.05)
            entry = registry.snapshot()[agent.address]
            assert entry["state"] == "up"
            assert entry["last_heartbeat_age"] is not None
            assert entry["rtt"] is not None
            detector = pool._handles[0].detector
            assert detector.timeout() < detector.ceiling
        finally:
            pool.close()

    def test_heartbeat_never_blocks_an_inflight_invocation(self, agent, tpch_db):
        pool = make_pool(agent, heartbeat_interval=0.02)
        try:
            stop = threading.Event()
            errors = []

            def hammer():
                try:
                    while not stop.is_set():
                        pool.invoke(tpch_db, timeout=5.0)
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            thread = threading.Thread(target=hammer)
            thread.start()
            time.sleep(0.6)
            stop.set()
            thread.join(timeout=10)
            assert not errors
        finally:
            pool.close()


class TestEndToEndRemoteExtraction:
    def test_q6_extraction_matches_inline(self, tpch_db):
        worker_agent = WorkerAgent()
        address = worker_agent.start()
        try:
            sql = tpch_queries.QUERIES["Q6"].sql
            inline = UnmasqueExtractor(
                tpch_db,
                SQLExecutable(sql, obfuscate_text=True, name="inline"),
                ExtractionConfig(),
            ).extract()
            remote = UnmasqueExtractor(
                tpch_db,
                SQLExecutable(sql, obfuscate_text=True, name="remote"),
                ExtractionConfig(isolate="remote", worker_peers=(address,)),
            ).extract()
            assert remote.verdict == "ok"
            assert remote.sql == inline.sql
        finally:
            worker_agent.stop()

    def test_remote_without_peers_is_a_config_error(self, tpch_db):
        sql = tpch_queries.QUERIES["Q6"].sql
        with pytest.raises(ExtractionError):
            UnmasqueExtractor(
                tpch_db,
                SQLExecutable(sql, obfuscate_text=True, name="nopeers"),
                ExtractionConfig(isolate="remote"),
            ).extract()
