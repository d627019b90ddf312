"""Remote handles: leases, fencing, failure detection over TCP.

A :class:`RemoteWorkerHandle` is the TCP kind of worker handle leased by the
one :class:`~repro.isolation.supervisor.WorkerPool`: a connection to a worker
agent (:mod:`repro.isolation.agent`) instead of a subprocess pipe pair.  The
pool's ledger, crash taxonomy, quarantine policy and delta shipping are the
same for both kinds; :class:`RemoteHandleFactory` switches on the policy that
only a network needs and only remote handles use.

The exactly-once contract over a lossy wire (DESIGN.md §5.18) rests on three
mechanisms:

* **Lease epochs + fencing tokens.**  Every request carries ``(epoch,
  req)``; the agent echoes them verbatim.  The handle's reader delivers only
  the reply matching the request *currently in flight* and silently drops
  everything else (counted as ``fenced_replies_total``).  When the
  supervisor abandons a request — read deadline expired, connection torn —
  it bumps the epoch first, so a presumed-dead worker's late reply can never
  be mistaken for a live one: its side effects are never folded, its rows
  are never charged, its result is never memoized.
* **Adaptive failure detection.**  Heartbeat RTTs feed an EWMA mean/deviation
  estimator; read deadlines for heartbeats and the network allowance on run
  replies are ``mean + k·dev`` (clamped), so a slow-but-healthy link widens
  its own deadlines instead of mass-false-positiving into reconnect storms.
* **Capped-backoff reconnect with requeue.**  A dead connection is replaced
  with exponential backoff; when one peer's reconnect budget is spent the
  slot fails over to the next healthy peer (the requeue path), and only when
  *every* peer is down does the pool flip into a sticky
  :class:`~repro.errors.PeerQuarantined` — the transport analogue of the
  respawn-budget quarantine.

Invocation side effects are idempotent by construction (a probe reply is a
pure function of the shipped replica), so at-most-once delivery per lease +
retry-with-new-lease composes into exactly-once *accounting*: each logical
invocation is charged and folded exactly once, whichever attempt's reply
made it home.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ExtractionError, PeerQuarantined, PeerUnavailable
from repro.isolation.protocol import ProtocolError, TcpTransport, TransportTimeout
from repro.isolation.supervisor import _SPAWN_TIMEOUT, HardTimeout, WorkerDied

#: transport exceptions that mean "this connection is no longer usable"
_CONNECTION_ERRORS = (EOFError, ProtocolError, ConnectionError, OSError)


@dataclass(frozen=True)
class RemoteSpec:
    """Transport policy for remote handles, lifted from the extraction config.

    Pool policy (deadlines, kill grace, quarantine threshold, respawn budget,
    pool size) lives in :class:`~repro.isolation.supervisor.WorkerSpec` and
    applies to both handle kinds; a worker replacement is a reconnect here.
    """

    #: ``host:port`` worker-agent addresses; slots round-robin across them
    peers: tuple = ()
    #: TCP connect + hello deadline per dial attempt
    connect_timeout: float = 5.0
    #: idle-handle heartbeat period, seconds
    heartbeat_interval: float = 0.5
    #: reconnect backoff: base * 2^failures, capped
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: consecutive reconnect failures before a peer is declared down
    max_reconnects: int = 5
    #: shared transport secret (per-frame HMAC key); must match the agents'.
    #: None means an empty MAC key — acceptable on loopback only, and agents
    #: refuse non-loopback listens in that mode.
    secret: Optional[bytes] = None


class FailureDetector:
    """EWMA RTT estimator → adaptive timeout (mean + k·dev, clamped).

    The classic Jacobson/Karels shape: a slow link raises its own mean and
    deviation, widening the timeout; a fast link keeps deadlines tight so
    real partitions are detected quickly.  Before any sample arrives the
    timeout sits at the ceiling — a cold connection gets the benefit of the
    doubt exactly once.

    One detector is shared per *peer* across every pool slot (all
    connections to a peer traverse the same link, so their samples belong
    in one estimator), which means invocation threads and the heartbeat
    thread feed it concurrently — a small lock keeps each EWMA update
    atomic so interleaved ``observe`` calls cannot tear the mean/dev pair.
    """

    #: timeout = rtt_mean + K * rtt_dev, clamped to [FLOOR, CEILING] seconds
    K = 4.0
    FLOOR = 0.25
    CEILING = 10.0

    def __init__(self, k: float = K, floor: float = FLOOR,
                 ceiling: float = CEILING, alpha: float = 0.25):
        self.k = k
        self.floor = floor
        self.ceiling = ceiling
        self.alpha = alpha
        self.rtt_mean: Optional[float] = None
        self.rtt_dev = 0.0
        self.samples = 0
        self._lock = threading.Lock()

    def observe(self, rtt: float) -> None:
        with self._lock:
            if self.rtt_mean is None:
                self.rtt_mean = rtt
                self.rtt_dev = rtt / 2
            else:
                self.rtt_dev = (
                    (1 - self.alpha) * self.rtt_dev
                    + self.alpha * abs(rtt - self.rtt_mean)
                )
                self.rtt_mean = (
                    (1 - self.alpha) * self.rtt_mean + self.alpha * rtt
                )
            self.samples += 1

    def timeout(self) -> float:
        with self._lock:
            return self._timeout_locked()

    def _timeout_locked(self) -> float:
        if self.rtt_mean is None:
            return self.ceiling
        return min(self.ceiling,
                   max(self.floor, self.rtt_mean + self.k * self.rtt_dev))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "rtt_mean": self.rtt_mean,
                "rtt_dev": self.rtt_dev,
                "samples": self.samples,
                "timeout": self._timeout_locked(),
            }


class PeerHealthRegistry:
    """Thread-safe per-peer health ledger, shared across pools and jobs.

    The serve layer owns one of these for its whole lifetime and threads it
    into every job's pool, so ``/status`` and ``/healthz`` report peer state
    that survives individual extractions.
    """

    def __init__(self, peers=()):
        self._lock = threading.Lock()
        self._peers: dict = {}
        for address in peers:
            self._entry(address)

    def _entry(self, address: str) -> dict:
        entry = self._peers.get(address)
        if entry is None:
            entry = {
                "state": "unknown",   # unknown | up | suspect | down
                "last_heartbeat": None,  # monotonic time of last good pong
                "rtt": None,
                "connects": 0,
                "reconnects": 0,
                "fenced_replies": 0,
                "duplicates_dropped": 0,
                "quarantines": 0,
            }
            self._peers[address] = entry
        return entry

    def note_connect(self, address: str, reconnect: bool) -> None:
        with self._lock:
            entry = self._entry(address)
            entry["state"] = "up"
            entry["connects"] += 1
            if reconnect:
                entry["reconnects"] += 1

    def note_heartbeat(self, address: str, rtt: float) -> None:
        with self._lock:
            entry = self._entry(address)
            entry["state"] = "up"
            entry["last_heartbeat"] = time.monotonic()
            entry["rtt"] = rtt

    def note_suspect(self, address: str) -> None:
        with self._lock:
            entry = self._entry(address)
            if entry["state"] != "down":
                entry["state"] = "suspect"

    def note_down(self, address: str) -> None:
        with self._lock:
            self._entry(address)["state"] = "down"

    def note_fenced(self, address: str, count: int = 1) -> None:
        with self._lock:
            self._entry(address)["fenced_replies"] += count

    def note_duplicates(self, address: str, count: int) -> None:
        with self._lock:
            self._entry(address)["duplicates_dropped"] += count

    def note_quarantine(self, address: str) -> None:
        with self._lock:
            entry = self._entry(address)
            entry["state"] = "down"
            entry["quarantines"] += 1

    def snapshot(self) -> dict:
        """JSON-safe per-peer view (heartbeat age in seconds, not a stamp)."""
        now = time.monotonic()
        with self._lock:
            view = {}
            for address, entry in self._peers.items():
                out = dict(entry)
                stamp = out.pop("last_heartbeat")
                out["last_heartbeat_age"] = (
                    round(now - stamp, 3) if stamp is not None else None
                )
                view[address] = out
            return view

    def healthy(self) -> bool:
        """At least one peer is not known-down (vacuously true when empty)."""
        with self._lock:
            if not self._peers:
                return True
            return any(e["state"] != "down" for e in self._peers.values())


class RemoteWorkerHandle:
    """One leased connection to a worker agent, plus its lease state.

    Unlike a local handle, a remote handle outlives its connections: the
    factory reconnects it in place, so its epoch keeps rising across
    reconnects.  All request/response access happens under :attr:`lock`
    (the pool's slot lock) — the invoking scheduler thread holds it for the
    whole invocation, the heartbeat thread only pings when it can take it
    uncontended, so frames on one transport are never interleaved.
    """

    def __init__(self, address: str, factory: "RemoteHandleFactory",
                 lock: threading.Lock):
        self.address = address
        self.factory = factory
        self.detector = factory.detectors[address]
        self.lock = lock
        self.transport: Optional[TcpTransport] = None
        #: lease generation: bumped on every reconnect and every abandoned
        #: request, so a stale reply's tokens can never match
        self.epoch = 0
        self._req = 0
        #: replies dropped by the fencing reader on this handle
        self.fenced_replies = 0
        self._duplicates_seen = 0
        #: table → (schema, shipped row-list reference) for delta shipping
        self.shipped: dict = {}
        self.last_injected: dict = {}
        self.suspect = False
        self.reconnect_failures = 0
        #: set after this handle's first successful connect, so only its
        #: second and later connects count as reconnects/respawns — a fresh
        #: slot's first dial (pool_size > 1) is not a worker replacement
        self.has_connected = False
        self.agent_pid: Optional[int] = None
        #: hello-handshake round-trip of the current connection — the first
        #: heartbeat sample, recorded even when the idle ping loop never gets
        #: the lock (busy pools: the invocations themselves prove liveness)
        self.last_hello_rtt: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.transport is not None and self.transport.alive

    # -- lease-fenced request/response --------------------------------------

    def run(self, message: dict, deadline_seconds: float) -> dict:
        """One fenced ``run`` round-trip, failures mapped to pool outcomes.

        The agent arms its local SIGKILL clock with ``deadline_seconds``; the
        supervisor waits that long plus the failure detector's network
        allowance.  Raises :class:`~repro.errors.PeerUnavailable` on a
        partition or torn connection — the lease is fenced *before* this
        raises, so the retried invocation can never be double-counted.
        """
        factory = self.factory
        message["deadline"] = deadline_seconds
        try:
            reply = self.request(
                message, deadline_seconds + self.detector.timeout()
            )
        except TransportTimeout:
            # Partition or straggler: fence the lease, keep the connection
            # for the late-reply path, requeue via retry.
            self.abandon()
            factory.registry.note_suspect(self.address)
            factory.pool.count("transport_partitions_total")
            raise PeerUnavailable(
                self.address,
                f"no reply within {deadline_seconds:.3f}s"
                " + network allowance (partition suspected)",
                ordinal=message["ordinal"],
            ) from None
        except _CONNECTION_ERRORS as error:
            self.mark_dead()
            factory.registry.note_suspect(self.address)
            raise PeerUnavailable(
                self.address,
                f"connection failed mid-invocation: {error}",
                ordinal=message["ordinal"],
            ) from None
        finally:
            factory.drain_counters(self)
        if reply.get("hard_timeout"):
            # The agent SIGKILLed its worker and closed up shop.
            self.mark_dead()
            raise HardTimeout()
        if reply.get("crashed"):
            self.mark_dead()
            raise WorkerDied(
                reply.get("kind", "unknown"),
                f"remote worker on {self.address} died with status "
                f"{reply.get('returncode')}",
                reply.get("returncode"),
            )
        # a fenced run reply is liveness evidence as good as a pong: keep the
        # peer's heartbeat age fresh through busy stretches where the idle
        # ping loop can never take the lock
        factory.registry.note_heartbeat(self.address, self.detector.rtt_mean or 0.0)
        return reply

    def request(self, message: dict, deadline_seconds: float) -> dict:
        """Send one fenced request and wait for *its* reply.

        Any reply bearing other tokens — a pong from an earlier heartbeat, a
        run reply from an abandoned lease — is dropped and counted.  Raises
        :class:`~repro.isolation.protocol.TransportTimeout` when the deadline
        expires; the caller decides whether that fences the lease.
        """
        self._req += 1
        req = self._req
        message = {**message, "epoch": self.epoch, "req": req}
        self.transport.send(message)
        return self._recv_matching(req, deadline_seconds)

    def _recv_matching(self, req: int, deadline_seconds: float) -> dict:
        deadline = time.perf_counter() + deadline_seconds
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TransportTimeout()
            reply = self.transport.recv(remaining)
            if reply.get("epoch") == self.epoch and reply.get("req") == req:
                return reply
            self.fenced_replies += 1

    def ping(self) -> float:
        """One heartbeat round-trip; returns the RTT and feeds the detector."""
        started = time.perf_counter()
        reply = self.request({"cmd": "ping"}, self.detector.timeout())
        if not reply.get("pong"):
            raise ProtocolError(f"expected a pong, got {reply!r}")
        rtt = time.perf_counter() - started
        self.detector.observe(rtt)
        return rtt

    # -- lease lifecycle -----------------------------------------------------

    def abandon(self) -> None:
        """Give up on the outstanding request: new epoch, connection kept.

        The transport may still deliver the old reply later; the epoch bump
        guarantees the fencing reader drops it.  Keeping the connection open
        is deliberate — a straggler is cheaper to keep than to re-dial, and
        the late reply arriving at all proves the link works.
        """
        self.epoch += 1
        self.suspect = True

    def mark_dead(self) -> None:
        """The connection is unusable: close it and fence the lease."""
        self.epoch += 1
        self.suspect = False
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        self.shipped = {}

    def connect(self, executable_blob: bytes) -> None:
        """Dial, handshake, and init a fresh worker on the agent.

        Raises any of :data:`_CONNECTION_ERRORS` /
        :class:`~repro.isolation.protocol.TransportTimeout` on failure; the
        factory's reconnect loop translates those into backoff + failover.
        """
        self.mark_dead()
        spec = self.factory.spec
        transport = self.factory.dial(self.address, spec.connect_timeout)
        try:
            self.transport = transport
            started = time.perf_counter()
            hello = self.request({"cmd": "hello"},
                                 max(spec.connect_timeout,
                                     self.detector.timeout()))
            if not hello.get("hello"):
                raise ProtocolError(f"bad hello reply: {hello!r}")
            # the handshake round-trip seeds the failure detector, so even
            # the first run request gets a calibrated network allowance
            self.last_hello_rtt = time.perf_counter() - started
            self.detector.observe(self.last_hello_rtt)
            self.agent_pid = hello.get("agent_pid")
            init = self.request(
                {"cmd": "init", "executable": executable_blob}, _SPAWN_TIMEOUT
            )
            if not init.get("ok"):
                raise ExtractionError(
                    f"remote worker on {self.address} failed to initialise: "
                    f"{init.get('error')}"
                )
        except BaseException:
            self.transport = None
            transport.close()
            raise
        self.suspect = False
        self.reconnect_failures = 0
        self.has_connected = True
        self.shipped = {}

    def shutdown(self) -> None:
        if self.transport is not None:
            try:
                self.transport.send({"cmd": "shutdown",
                                     "epoch": self.epoch, "req": self._req + 1})
            except Exception:
                pass
            self.transport.close()
            self.transport = None

    def drain_transport_counters(self) -> tuple:
        """(new fenced, new duplicate) counts since the last drain."""
        fenced = self.fenced_replies
        self.fenced_replies = 0
        duplicates = 0
        if self.transport is not None:
            duplicates = self.transport.duplicates_dropped - self._duplicates_seen
            if duplicates < 0:
                duplicates = self.transport.duplicates_dropped
            self._duplicates_seen = self.transport.duplicates_dropped
        return fenced, duplicates


class RemoteHandleFactory:
    """Handle factory for ``--isolate remote``: one agent connection per slot.

    Owns the policy only a network needs: per-peer failure detectors, the
    shared :class:`PeerHealthRegistry`, capped-backoff reconnect with peer
    failover, and the idle-handle heartbeat thread.  Reconnects are the
    remote kind's respawns and are charged to the pool's respawn budget.
    """

    def __init__(self, spec: RemoteSpec,
                 registry: Optional[PeerHealthRegistry] = None,
                 transport_factory: Optional[Callable] = None):
        if not spec.peers:
            raise ExtractionError("remote isolation requires at least one peer")
        self.spec = spec
        self.registry = registry if registry is not None else PeerHealthRegistry(
            spec.peers
        )
        self.dial = transport_factory or (
            lambda address, timeout: TcpTransport.connect(
                address, timeout=timeout, secret=spec.secret
            )
        )
        #: one detector per peer: every connection to a peer shares its link
        self.detectors = {address: FailureDetector() for address in spec.peers}
        #: peers declared down after a spent reconnect budget
        self._peer_down: dict = {address: False for address in spec.peers}
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None

    def attach(self, pool) -> None:
        """Give every slot of ``pool`` its handle and start the heartbeat."""
        self.pool = pool
        peers = self.spec.peers
        self.handles = [
            RemoteWorkerHandle(peers[slot % len(peers)], self, lock)
            for slot, lock in enumerate(pool.slot_locks)
        ]
        pool._handles[:] = self.handles
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="remote-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def quarantined(self, reason: str, crashes: int, respawns: int):
        return PeerQuarantined(reason, crashes, respawns, peers=self.spec.peers)

    def health(self) -> dict:
        return {"peers": self.registry.snapshot()}

    def close(self) -> None:
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=2)

    # -- connection management ----------------------------------------------

    def ready(self, handle: RemoteWorkerHandle) -> RemoteWorkerHandle:
        """Leave the handle with a live, trusted connection (or raise).

        Caller holds ``handle.lock``.  A suspect connection is probed with a
        ping first — a pong clears suspicion without re-dialling (and the
        probe's reader drains any fenced late replies, which is the
        partition-then-late-reply recovery path).
        """
        if handle.alive and handle.suspect:
            try:
                handle.ping()
                handle.suspect = False
                self.registry.note_heartbeat(handle.address,
                                             handle.detector.rtt_mean or 0.0)
            except (TransportTimeout, *_CONNECTION_ERRORS):
                handle.mark_dead()
            finally:
                self.drain_counters(handle)
        if handle.alive:
            return handle
        while True:
            if self._peer_down.get(handle.address, False):
                self._failover(handle)
            if handle.reconnect_failures > 0:
                backoff = min(
                    self.spec.backoff_base * (2 ** (handle.reconnect_failures - 1)),
                    self.spec.backoff_max,
                )
                time.sleep(backoff)
            # only this handle's second and later connects are worker
            # replacements; a fresh slot's first dial is plain startup even
            # when sibling slots have already run invocations
            is_reconnect = handle.has_connected
            if is_reconnect:
                self.pool.charge_respawn()
                self.pool.count("transport_reconnects_total")
            try:
                handle.connect(self.pool.executable_blob)
            except (TransportTimeout, *_CONNECTION_ERRORS):
                handle.reconnect_failures += 1
                self.registry.note_suspect(handle.address)
                if handle.reconnect_failures >= self.spec.max_reconnects:
                    self._declare_peer_down(handle.address)
                    handle.reconnect_failures = 0
                    self._failover(handle)  # raises when no peer is left
                continue
            self.registry.note_connect(handle.address, reconnect=is_reconnect)
            self._peer_down[handle.address] = False
            if handle.last_hello_rtt is not None:
                # the handshake IS the first heartbeat: on busy pools the
                # idle ping loop may never win the lock, so record it here
                self.registry.note_heartbeat(handle.address,
                                             handle.last_hello_rtt)
                self.pool.observe("heartbeat_rtt_seconds", handle.last_hello_rtt)
            return handle

    def _failover(self, handle: RemoteWorkerHandle) -> None:
        """Re-point a handle at the next healthy peer; caller holds its lock."""
        peers = self.spec.peers
        if all(self._peer_down.get(a) for a in peers):
            self.pool.quarantine("every peer is unreachable")
        start = peers.index(handle.address)
        ordered = [peers[(start + offset) % len(peers)]
                   for offset in range(1, len(peers) + 1)]
        target = next(a for a in ordered if not self._peer_down.get(a))
        handle.address = target
        handle.detector = self.detectors[target]
        handle.reconnect_failures = 0

    def _declare_peer_down(self, address: str) -> None:
        self._peer_down[address] = True
        self.registry.note_quarantine(address)
        self.pool.count("peer_quarantines_total", labels={"peer": address})

    def drain_counters(self, handle: RemoteWorkerHandle) -> None:
        """Fold the handle's fencing/dedup tallies into metrics + registry."""
        fenced, duplicates = handle.drain_transport_counters()
        if fenced:
            self.registry.note_fenced(handle.address, fenced)
            self.pool.count("fenced_replies_total", fenced)
        if duplicates:
            self.registry.note_duplicates(handle.address, duplicates)
            self.pool.count("transport_duplicates_dropped_total", duplicates)

    def _heartbeat_loop(self) -> None:
        while not self._heartbeat_stop.wait(self.spec.heartbeat_interval):
            for handle in self.handles:
                if self._heartbeat_stop.is_set():
                    return
                if not handle.lock.acquire(blocking=False):
                    continue  # an invocation owns the connection; it IS the probe
                try:
                    if not handle.alive or handle.suspect:
                        continue
                    try:
                        rtt = handle.ping()
                    except TransportTimeout:
                        handle.abandon()  # fences the lost pong
                        self.registry.note_suspect(handle.address)
                        self.pool.count("heartbeat_timeouts_total")
                        continue
                    except _CONNECTION_ERRORS:
                        handle.mark_dead()
                        self.registry.note_suspect(handle.address)
                        continue
                    self.registry.note_heartbeat(handle.address, rtt)
                    self.pool.observe("heartbeat_rtt_seconds", rtt)
                finally:
                    self.drain_counters(handle)
                    handle.lock.release()
