"""The worker pool: one ledger over local-subprocess and TCP-agent handles.

A :class:`WorkerPool` leases slots to *handles*, built and revived by a
*handle factory*.  There are two handle kinds with the same small
run/shutdown/alive surface:

* :class:`WorkerHandle` (this module, the default) — one local worker
  subprocess behind a :class:`~repro.isolation.protocol.PipeTransport`;
* :class:`~repro.isolation.remote.RemoteWorkerHandle` — one lease-fenced
  connection to a worker agent over
  :class:`~repro.isolation.protocol.TcpTransport`.

Each handle turns its own failures into the pool's few outcomes — a reply,
:class:`HardTimeout`, :class:`WorkerDied` with a crash kind, or (remote only)
a retryable :class:`~repro.errors.PeerUnavailable` — and the pool owns
everything else:

* the **wall clock** — every request has a hard deadline; a worker that has
  not replied by then is SIGKILLed (by the supervisor locally, by the agent
  remotely), which is the only preemption that works against a busy-looping
  application (cooperative engine deadlines never fire inside
  ``while True: pass``);
* the **ledger** — invocations, RSS peaks, crash/restart/kill counts are
  all recorded here exactly once, whatever happened to the worker;
* the **crash taxonomy** — abnormal exits are classified by wait status
  (SIGSEGV/SIGBUS → ``segfault``, SIGABRT → ``abort``, the memory-cap exit
  status or an OOM-killer SIGKILL → ``oom``, a deadline SIGKILL → hard
  timeout) and folded into the retryable-vs-fatal scheme of
  :mod:`repro.resilience.retry`: crashes are transient (respawn + retry),
  hard timeouts are :class:`~repro.errors.ExecutableTimeoutError` with the
  exact semantics the From-clause extractor already relies on;
* the **quarantine policy** — K consecutive abnormal exits, or a spent
  respawn budget, flips the pool into a sticky
  :class:`~repro.errors.WorkerQuarantined` state (the factory picks the
  subclass): an executable that kills every process it touches gets a
  structured refusal, not an infinite respawn loop.  A respawn is charged
  per handle: only a slot's *second* and later worker counts as a restart.

State shipping is incremental: each handle keeps a :class:`ShipLedger` of
the row lists and schemas its worker holds, and a ``run`` frame names what
the worker already holds instead of shipping it again (copy-on-write row
lists are rebound on every mutation, so object identity is a sound change
detector — and the ledger's held reference pins the id against reuse).  The
ledger is committed only once the worker answers, so a request lost on the
wire re-ships the same tables on retry.  A fresh worker starts with an
empty ledger and receives the full silo on its first run.  Slots are leased
last in, first out, so the sequential probes of an extraction stay on the
worker that already holds their state.

Local workers can outlive their pool.  A pool built with the process-wide
:data:`PARKED_WORKERS` stash (the isolation backend's pools are) parks each
healthy worker at close instead of shutting it down, and the next such pool
re-initialises it with its own executable instead of spawning.  A parked
worker drops its replica and executable, and parking and re-init clear the
handle's ship ledger, so the next pool ships its silo in full and nothing
of the previous extraction's data stays referenced on either side.
"""

from __future__ import annotations

import atexit
import itertools
import operator
import os
import queue
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    ExecutableTimeoutError,
    ExtractionError,
    WorkerCrashedError,
    WorkerQuarantined,
)
from repro.isolation.protocol import (
    EXIT_MEMORY,
    PipeTransport,
    TransportTimeout,
    pack_executable,
    write_frame,
)

#: exit-signal → crash kind (negated Popen returncodes)
_SIGNAL_KINDS = {
    signal.SIGSEGV: "segfault",
    signal.SIGBUS: "segfault",
    signal.SIGABRT: "abort",
    signal.SIGKILL: "oom",  # not ours → almost always the kernel OOM killer
}

#: seconds allowed for a fresh worker to answer the init handshake
_SPAWN_TIMEOUT = 30.0


@dataclass(frozen=True)
class WorkerSpec:
    """Pool policy, lifted from :class:`~repro.core.config.ExtractionConfig`."""

    #: RLIMIT_AS cap per worker, bytes (None = uncapped)
    memory_limit_bytes: Optional[int] = None
    #: hard deadline when the caller passed no cooperative timeout, seconds
    default_timeout: float = 30.0
    #: slack added to the cooperative timeout before SIGKILL, so clean
    #: engine-side timeouts win the race and SIGKILL only fires on real hangs
    kill_grace: float = 1.0
    #: consecutive abnormal exits before the executable is quarantined
    quarantine_threshold: int = 4
    #: total respawns allowed over the pool's lifetime
    max_respawns: int = 128
    #: number of leased slots; sized to ``--jobs`` so the probe scheduler's
    #: threads each lease their own worker (slot leasing makes concurrent
    #: invocations safe at any pool size — excess callers queue)
    pool_size: int = 1


class HardTimeout(Exception):
    """A handle's worker blew its hard deadline and was SIGKILLed."""


class WorkerDied(Exception):
    """A handle's worker exited abnormally before replying."""

    def __init__(self, kind: str, detail: str, returncode: Optional[int] = None):
        super().__init__(detail)
        self.kind = kind
        self.returncode = returncode


class WorkerHandle:
    """One local worker subprocess behind a :class:`PipeTransport`.

    Constructing a handle starts the process and sends it the ``init``
    frame without waiting for the reply; :meth:`handshake` completes the
    init handshake.  Splitting the two lets the pool boot every slot's
    interpreter at once.  The in-process pool and the remote
    :mod:`repro.isolation.agent` (which supervises a local worker on behalf
    of a network supervisor) both spawn through here.
    """

    def __init__(self, spec: WorkerSpec, executable_blob: bytes):
        command = [sys.executable, "-m", "repro.isolation.worker"]
        if spec.memory_limit_bytes:
            command += ["--memory-limit-bytes", str(spec.memory_limit_bytes)]
        env = dict(os.environ)
        # The worker must import repro regardless of how the parent found it:
        # prepend the directory *containing* the repro package.
        import repro

        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker tracebacks stay visible on the user's stderr
            env=env,
        )
        self.transport = PipeTransport(self.proc.stdin, self.proc.stdout.fileno())
        #: True from sending a run request until its reply arrives; a worker
        #: left in flight may still write that reply, so it is never parked
        self.in_flight = False
        self.reinit(executable_blob)
        self._send_init()

    def reinit(self, executable_blob: bytes) -> None:
        """Queue an ``init`` frame; :meth:`handshake` sends it and waits.

        This is how a parked worker takes the next pool's executable (the
        worker accepts ``init`` at any time).  Everything an extraction left
        on the handle is reset: the chaos-injection counts (the worker
        unpickles a fresh executable) and the ship ledger (the worker
        starts an empty replica on ``init``).
        """
        self.ledger = ShipLedger()
        self.last_injected: dict[str, int] = {}
        #: the worker's pid as it reported it; None while a handshake is
        #: pending
        self.pid: Optional[int] = None
        self._pending_init: Optional[bytes] = executable_blob

    @property
    def reinit_pending(self) -> bool:
        """A queued ``init`` not yet sent: a parked worker being re-used."""
        return self._pending_init is not None

    def _send_init(self) -> None:
        """Send the queued ``init`` frame, SIGKILLing a worker that stalls it.

        A worker that stopped reading would block the write for good once
        the executable outgrows the pipe buffer; killing it turns that into
        a broken pipe within :data:`_SPAWN_TIMEOUT`.
        """
        blob, self._pending_init = self._pending_init, None
        watchdog = threading.Timer(_SPAWN_TIMEOUT, self.proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            self.transport.send({"cmd": "init", "executable": blob})
        except OSError as error:
            self.kill()
            raise ExtractionError(
                f"isolated worker failed to initialise: {error}"
            ) from None
        finally:
            watchdog.cancel()

    def handshake(self) -> None:
        """Wait for the worker's ``init`` reply; a no-op once it succeeded.

        Raises :class:`~repro.errors.ExtractionError` (worker reaped) when
        the worker times out, dies, or cannot unpickle the executable.
        """
        if self.pid is not None:
            return
        if self._pending_init is not None:
            self._send_init()
        try:
            reply = self.transport.recv(_SPAWN_TIMEOUT)
        except TransportTimeout:
            self.kill()
            raise ExtractionError(
                "isolated worker failed to initialise: init handshake timed out"
            ) from None
        except (EOFError, OSError) as error:
            self.kill()
            raise ExtractionError(
                f"isolated worker failed to initialise: {error}"
            ) from None
        if not reply.get("ok"):
            error = reply.get("error")
            self.kill()
            raise ExtractionError(f"isolated worker failed to initialise: {error}")
        self.pid = reply.get("pid", self.proc.pid)

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    @property
    def parkable(self) -> bool:
        """Alive, initialised, idle, and running nothing but its main thread.

        A thread the executable left behind would keep running while the
        worker is parked and into the next extraction, so such a worker is
        reaped instead.
        """
        return (
            self.pid is not None
            and not self.in_flight
            and self.alive
            and _thread_count(self.proc.pid) == 1
        )

    def park(self) -> None:
        """Tell the worker to drop its executable and replica while idle."""
        write_frame(self.proc.stdin, {"cmd": "park"})
        self.ledger = ShipLedger()

    def run(self, message: dict, deadline_seconds: float) -> dict:
        """Send one request and read its reply under a hard deadline.

        Raises :class:`HardTimeout` (worker SIGKILLed) when the deadline
        expires and :class:`WorkerDied` when the pipe closes mid-reply.
        """
        self.in_flight = True
        try:
            self.transport.send(message)
            reply = self.transport.recv(deadline_seconds)
            self.in_flight = False
            return reply
        except TransportTimeout:
            self.kill()
            raise HardTimeout() from None
        except (EOFError, OSError):
            self.kill()  # reap; usually already dead
            raise WorkerDied(
                self.exit_kind(),
                f"worker pid {self.pid} died with status {self.proc.returncode}",
                self.proc.returncode,
            ) from None

    def kill(self) -> None:
        """SIGKILL and reap; idempotent."""
        if self.proc.poll() is None:
            try:
                self.proc.kill()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel refusal
            pass
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                if pipe is not None:
                    pipe.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        """Ask the worker to exit without waiting; :meth:`reap` waits."""
        if self.proc.poll() is None and not self.proc.stdin.closed:
            try:
                write_frame(self.proc.stdin, {"cmd": "shutdown"})
                self.proc.stdin.close()
            except Exception:
                pass

    def reap(self) -> None:
        """Wait for an exit :meth:`shutdown` asked for, escalating to SIGKILL."""
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def exit_kind(self) -> str:
        """Classify a dead worker's wait status into the crash taxonomy."""
        code = self.proc.returncode
        if code is None:  # pragma: no cover - callers reap first
            return "unknown"
        if code < 0:
            return _SIGNAL_KINDS.get(-code, f"signal-{-code}")
        if code == EXIT_MEMORY:
            return "oom"
        return f"exit-{code}"


def _thread_count(pid: int) -> Optional[int]:
    """Threads of process ``pid`` per ``/proc``; None when unreadable."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


class WorkerStash:
    """Idle local workers kept warm between pools, keyed by memory cap.

    The cap is the only worker property fixed at spawn (``RLIMIT_AS``);
    everything else arrives with ``init`` or per request.  The stash holds
    at most as many workers as the largest pool that uses it, so parked
    workers never outnumber one pool's slots.  A parked worker holds no
    executable and no replica, only its interpreter.  Parked workers are
    shut down and reaped at interpreter exit; one whose parent dies without
    that exits on stdin EOF.  A stash built with ``parks=False`` admits
    no pool, so it never holds a worker and its pools reap every worker at
    close.
    """

    def __init__(self, parks: bool = True):
        self.parks = parks
        self._lock = threading.Lock()
        self._idle: dict[Optional[int], list[WorkerHandle]] = {}
        #: the largest pool size seen
        self.bound = 0

    def admit(self, pool_size: int) -> None:
        if not self.parks:
            return
        with self._lock:
            self.bound = max(self.bound, pool_size)

    def take(self, memory_limit_bytes: Optional[int]) -> Optional[WorkerHandle]:
        """A parked worker with this cap, or None."""
        with self._lock:
            idle = self._idle.get(memory_limit_bytes)
            return idle.pop() if idle else None

    def park(self, worker: WorkerHandle, memory_limit_bytes: Optional[int]) -> bool:
        """Keep ``worker`` for a later pool; False when the stash is full."""
        with self._lock:
            if sum(map(len, self._idle.values())) >= self.bound:
                return False
            self._idle.setdefault(memory_limit_bytes, []).append(worker)
            return True

    def drain(self) -> None:
        """Shut down and reap every parked worker."""
        with self._lock:
            workers = [worker for idle in self._idle.values() for worker in idle]
            self._idle.clear()
        for worker in workers:
            worker.shutdown()
        for worker in workers:
            worker.reap()


#: the isolation backend's stash (see :class:`LocalHandleFactory`)
PARKED_WORKERS = WorkerStash()
atexit.register(PARKED_WORKERS.drain)


class LocalHandleFactory:
    """Handle factory for ``--isolate process``: a subprocess per handle.

    A pool that is never invoked spawns nothing.  Its first invocation
    starts every slot's worker at once — process start plus ``init`` frame —
    and each worker completes its handshake on the lease that first takes
    it, so the interpreters boot in parallel rather than one per slot's
    first lease.  A slot whose worker died gets a fresh one, and only that
    replacement is a respawn.

    Starting a worker takes a parked one from the ``stash`` first (a fresh
    ``init`` frame, not a spawn, and not a respawn either), and close parks
    each slot's worker that is :attr:`~WorkerHandle.parkable` unless the
    pool is quarantined or the stash is full.  The re-init is sent by the
    leasing slot's own handshake, outside the factory lock; a parked worker
    that fails it is killed and replaced by a spawn, again without charging
    a respawn.  With a stash that never parks, close reaps every worker.
    """

    def __init__(self, stash: WorkerStash):
        self.stash = stash

    def attach(self, pool: "WorkerPool") -> None:
        self.pool = pool
        self.stash.admit(len(pool.slot_locks))
        self._lock = threading.Lock()
        #: every worker started and not yet replaced, leased or not;
        #: :meth:`close` reaps them all
        self.workers: list[WorkerHandle] = []
        #: started workers no slot has taken yet; None until the first
        #: invocation boots the pool
        self._unleased: Optional[list[WorkerHandle]] = None

    def ready(self, handle: Optional[WorkerHandle]) -> WorkerHandle:
        if handle is not None and handle.alive:
            return handle
        if handle is not None:
            self.pool.charge_respawn()
            with self._lock:
                self.workers.remove(handle)
                fresh = self._start()
        else:
            fresh = self._first_worker()
        reused = fresh.reinit_pending
        try:
            fresh.handshake()
        except ExtractionError:
            if not reused:
                raise
            with self._lock:  # handshake reaped it; nothing to charge
                self.workers.remove(fresh)
                fresh = self._spawn()
            fresh.handshake()
        return fresh

    def _first_worker(self) -> WorkerHandle:
        """A slot's first worker: boots the pool on its first invocation."""
        with self._lock:
            if self._unleased is None:
                self._unleased = []
                for _ in self.pool.slot_locks:
                    self._unleased.append(self._start())
            if self._unleased:
                return self._unleased.pop()
            # a slot whose first worker failed its handshake
            return self._start()

    def _start(self) -> WorkerHandle:
        """Start one worker, parked or new; caller holds the factory lock."""
        worker = self.stash.take(self.pool.spec.memory_limit_bytes)
        if worker is None:
            return self._spawn()
        worker.reinit(self.pool.executable_blob)
        self.workers.append(worker)
        return worker

    def _spawn(self) -> WorkerHandle:
        """Spawn one new worker; caller holds the factory lock."""
        worker = WorkerHandle(self.pool.spec, self.pool.executable_blob)
        self.workers.append(worker)
        return worker

    def quarantined(self, reason: str, crashes: int, respawns: int):
        return WorkerQuarantined(reason, crashes, respawns)

    def health(self) -> dict:
        return {}

    def release(self, worker: WorkerHandle) -> None:
        """Park a slot's healthy worker, or ask it to exit."""
        if self.pool.quarantine_error is None and worker.parkable:
            try:
                worker.park()
            except OSError:  # exited since the check; close reaps it
                return
            if self.stash.park(worker, self.pool.spec.memory_limit_bytes):
                with self._lock:
                    self.workers.remove(worker)
                return
        worker.shutdown()

    def close(self) -> None:
        """Reap every unparked worker; the pool has released its slots'.

        A worker no slot ever took holds no state and is killed outright.
        """
        with self._lock:
            for worker in self._unleased or ():
                worker.kill()
            self._unleased = []
            workers = list(self.workers)
        for worker in workers:
            worker.reap()


@dataclass
class PoolStats:
    """Lifetime accounting, reported on the chaos CLI and in span tags."""

    invocations: int = 0
    crashes: int = 0
    kills: int = 0
    restarts: int = 0
    rss_peak_bytes: int = 0


class WorkerPool:
    """Slot-leased pool of worker handles for one executable."""

    def __init__(self, executable, spec: WorkerSpec, metrics=None, factory=None):
        self.spec = spec
        self.metrics = metrics
        self.executable_blob = pack_executable(executable)
        self.stats = PoolStats()
        self.ordinal = 0
        self.consecutive_abnormal = 0
        self.respawns = 0
        self.quarantine_error: Optional[WorkerQuarantined] = None
        #: accumulated chaos-injection counts from workers that already died
        self.injected_base: dict[str, int] = {}
        #: ``("kill" | "crash", ordinal)`` per abnormal exit: a worker that
        #: dies or is killed never reports what it injected
        self.hard_exits: list[tuple[str, int]] = []
        size = max(1, spec.pool_size)
        #: one handle per slot; None until the factory first makes it ready
        self._handles: list = [None] * size
        #: slot leasing: a caller takes a slot index for the whole invocation
        #: (blocking when all are leased), so each handle — and its ship
        #: ledger — is touched by one thread at a time.  The per-slot lock is
        #: held for the whole invocation too, so background work (remote
        #: heartbeats) only ever touches idle slots.  Slots are leased last
        #: in, first out: sequential callers keep the worker that already
        #: holds their state, and a second slot serves only concurrent ones.
        self._slots: queue.LifoQueue = queue.LifoQueue()
        for slot in reversed(range(size)):
            self._slots.put(slot)
        self.slot_locks = [threading.Lock() for _ in range(size)]
        #: guards the pool ledger (ordinal, stats, quarantine, respawns,
        #: injected totals, metrics) against concurrent scheduler threads
        self._lock = threading.Lock()
        self.closed = False
        self.factory = (
            factory
            if factory is not None
            else LocalHandleFactory(WorkerStash(parks=False))
        )
        self.factory.attach(self)

    # -- public API ---------------------------------------------------------

    def invoke(self, db, timeout: Optional[float]) -> dict:
        """Run one invocation on a leased handle; returns the worker's reply.

        Raises :class:`~repro.errors.ExecutableTimeoutError` on a hard-
        deadline kill, :class:`~repro.errors.WorkerCrashedError` on an
        abnormal exit, :class:`~repro.errors.PeerUnavailable` (retryable; the
        lease is fenced first) when a remote peer is unreachable, and
        :class:`~repro.errors.WorkerQuarantined` once the executable is
        quarantined.  A *clean* application error is not raised here: the
        reply comes back with ``ok=False`` so the backend can mirror the
        run's stats before re-raising it.
        """
        with self._lock:
            if self.closed:
                raise ExtractionError("worker pool is closed")
            if self.quarantine_error is not None:
                raise self.quarantine_error
        slot = self._slots.get()
        try:
            with self.slot_locks[slot]:
                handle = self._handles[slot] = self.factory.ready(
                    self._handles[slot]
                )
                return self._run(handle, db, timeout)
        finally:
            self._slots.put(slot)

    def health(self) -> dict:
        """Point-in-time pool health, for breakers and the serve /status view."""
        with self._lock:
            view = {
                "invocations": self.stats.invocations,
                "crashes": self.stats.crashes,
                "kills": self.stats.kills,
                "restarts": self.stats.restarts,
                "consecutive_abnormal": self.consecutive_abnormal,
                "respawns": self.respawns,
                "respawn_budget": self.spec.max_respawns,
                "quarantined": self.quarantine_error is not None,
            }
        view.update(self.factory.health())
        return view

    def injected_totals(self) -> dict[str, int]:
        """Chaos-injection counts across all worker generations."""
        totals = dict(self.injected_base)
        if self.closed:
            # close absorbed every slot's counts, and a slot's worker may
            # since count for the later pool that took it from the stash
            return totals
        for handle in self._handles:
            if handle is not None:
                for key, value in handle.last_injected.items():
                    totals[key] = totals.get(key, 0) + value
        return totals

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
        for slot, handle in enumerate(self._handles):
            if handle is not None:
                with self.slot_locks[slot]:
                    self._absorb_injected(handle)
                    self.factory.release(handle)
        # after every slot's worker was asked to exit, so a local close
        # waits for one worker's exit, not the sum of them
        self.factory.close()

    # -- ledger hooks for handle factories ----------------------------------

    def charge_respawn(self) -> None:
        """Charge one worker replacement; quarantines once the budget is spent."""
        with self._lock:
            if self.respawns >= self.spec.max_respawns:
                self._quarantine("respawn budget spent")
            self.respawns += 1
            self.stats.restarts += 1
            self._count("worker_restarts_total")

    def quarantine(self, reason: str):
        """Flip the sticky quarantine and raise it."""
        with self._lock:
            self._quarantine(reason)

    def count(self, name: str, amount: int = 1, labels: Optional[dict] = None) -> None:
        if self.metrics is not None:
            with self._lock:
                self.metrics.counter(name, labels=labels).inc(amount)

    def observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            with self._lock:
                self.metrics.histogram(name).observe(value)

    # -- internals ----------------------------------------------------------

    def _run(self, handle, db, timeout: Optional[float]) -> dict:
        with self._lock:
            self.ordinal += 1
            ordinal = self.ordinal
            self.stats.invocations += 1
        effective = timeout if timeout is not None else self.spec.default_timeout
        shipping, ledger = handle.ledger.frame(db)
        message = {"cmd": "run", "ordinal": ordinal, "timeout": timeout, **shipping}
        try:
            reply = handle.run(message, effective + self.spec.kill_grace)
        except HardTimeout:
            with self._lock:
                self.stats.kills += 1
                self.hard_exits.append(("kill", ordinal))
                self._count("worker_kills_total")
                self._note_abnormal(handle)
            raise ExecutableTimeoutError(
                f"isolated invocation {ordinal} exceeded its "
                f"{effective:.3f}s hard deadline and was killed"
            ) from None
        except WorkerDied as death:
            with self._lock:
                self.stats.crashes += 1
                self.hard_exits.append(("crash", ordinal))
                self._count("worker_crashes_total")
                self._note_abnormal(handle)
            raise WorkerCrashedError(death.kind, str(death), ordinal=ordinal) from None
        # A reply — normal or a clean application error — means the worker
        # applied the frame and survived the invocation: commit the ledger
        # and end the crash streak.
        handle.ledger = ledger
        with self._lock:
            self.consecutive_abnormal = 0
            self._record_reply_stats(handle, reply)
        return reply

    def _note_abnormal(self, handle) -> None:
        """Record an abnormal exit; caller holds the pool lock."""
        self._absorb_injected(handle)
        self.consecutive_abnormal += 1
        if self.consecutive_abnormal >= self.spec.quarantine_threshold:
            self._quarantine(
                f"{self.consecutive_abnormal} consecutive abnormal worker exits"
            )

    def _quarantine(self, reason: str):
        """Flip the sticky quarantine; caller holds the pool lock."""
        self.quarantine_error = self.factory.quarantined(
            reason, self.consecutive_abnormal, self.respawns
        )
        self._count("worker_quarantines_total")
        raise self.quarantine_error

    def _absorb_injected(self, handle) -> None:
        for key, value in handle.last_injected.items():
            self.injected_base[key] = self.injected_base.get(key, 0) + value
        handle.last_injected = {}

    def _record_reply_stats(self, handle, reply: dict) -> None:
        stats = reply.get("stats") or {}
        rss = int(stats.get("maxrss_bytes", 0))
        if rss > self.stats.rss_peak_bytes:
            self.stats.rss_peak_bytes = rss
            if self.metrics is not None:
                self.metrics.gauge("worker_rss_peak_bytes").set(rss)
        if "injected" in stats:
            handle.last_injected = dict(stats["injected"])

    def _count(self, name: str) -> None:
        """Tick a counter; caller holds the pool lock."""
        if self.metrics is not None:
            self.metrics.counter(name).inc()


# -- incremental state shipping ---------------------------------------------


class ShipLedger:
    """The row lists and schemas one worker holds, as its last reply confirmed.

    Each object the worker holds is named by a *reference*, a number drawn
    from this ledger's own sequence (never an ``id()``, which the worker
    could not resolve and which a later object could reuse).  The ledger
    keeps every held object alive and maps the object's ``id`` to its
    reference, so an identity test is a sound "the worker has this" test.

    :meth:`frame` returns the shipping fields of the next ``run`` frame and
    the ledger as it will stand once the worker applied them; the pool
    commits that ledger only when the worker replies.  A changed table ships
    its schema only when the worker lacks it, and its rows as:

    * the reference of a held list (a rename, a restore, a replica state);
    * ``(ref, start, stop)`` when they are a contiguous run of a held list,
      checked element by element by identity (the minimizer's halves, the
      monotonicity sentinel's halved instance, a restore's copy);
    * the rows themselves otherwise.

    Runs are found through the list each held list was cut from (its
    *origin*, the last list shipped by value): one position lookup per held
    list, not a scan of its rows.

    Beyond the live tables the worker holds at most twice the replica's
    peak table count in row lists and as many schemas, and at most its
    peak row count in rows, so it holds at most about twice its largest
    replica.  Empty lists are released first, then the least recently live
    objects.  A fresh ledger's first frame tells the worker to drop whatever
    it holds, so a ledger reset while the worker survives (a remote
    abandon) re-ships the replica in full.
    """

    def __init__(self):
        #: True until a frame is acknowledged: that frame resets the worker
        self.fresh = True
        #: shared by every ledger forked from this one, so no reference
        #: is ever drawn twice for one worker
        self._sequence = itertools.count(1)
        #: reference → held row list / schema, least recently live first
        self._lists: dict[int, list] = {}
        self._schemas: dict[int, object] = {}
        #: reference → (origin, offset of the held list within it)
        self._spans: dict[int, tuple[_Origin, int]] = {}
        #: ``id(obj)`` → reference for every held object (holding pins the id)
        self._ids: dict[int, int] = {}
        #: table name → (schema ref, rows ref) of the worker's replica
        self._tables: dict[str, tuple[int, int]] = {}
        #: the largest live row and table counts a frame has shipped: the
        #: cap on what the worker holds beyond its live tables
        self.peak_rows = 0
        self.peak_tables = 0

    @property
    def references(self) -> set[int]:
        """The references the worker holds once this ledger's frames are
        applied."""
        return set(self._lists) | set(self._schemas)

    def frame(self, db) -> tuple[dict, "ShipLedger"]:
        """The ``run`` frame's shipping fields for ``db``'s state, and the
        ledger that holds once the worker applied them."""
        after = self._fork()
        schemas: dict[int, object] = {}
        rows: dict[int, object] = {}
        tables: dict[str, tuple[int, int]] = {}
        live_rows = 0
        live: set[str] = set()
        for name, schema, table_rows in db.table_states():
            live.add(name)
            live_rows += len(table_rows)
            previous = after._tables.get(name)
            sref = after._ids.get(id(schema))
            rref = after._ids.get(id(table_rows))
            if previous == (sref, rref):
                continue
            if sref is None:
                sref = after._hold(after._schemas, schema)
                schemas[sref] = schema
            if rref is None:
                rref, rows[rref] = after._hold_rows(table_rows)
            if previous is not None:
                after._touch(previous)
            tables[name] = after._tables[name] = (sref, rref)
        dropped = [name for name in after._tables if name not in live]
        for name in dropped:
            after._touch(after._tables.pop(name))
        after.peak_rows = max(after.peak_rows, live_rows)
        after.peak_tables = max(after.peak_tables, len(live))
        release = after._evict() if tables or dropped else []
        shipping = {
            "reset": self.fresh,
            "schemas": schemas,
            "rows": rows,
            "tables": tables,
            "dropped": dropped,
            "release": release,
        }
        return shipping, after

    def _fork(self) -> "ShipLedger":
        after = ShipLedger.__new__(ShipLedger)
        after.fresh = False
        after._sequence = self._sequence
        after._lists = dict(self._lists)
        after._schemas = dict(self._schemas)
        after._spans = dict(self._spans)
        after._ids = dict(self._ids)
        after._tables = dict(self._tables)
        after.peak_rows = self.peak_rows
        after.peak_tables = self.peak_tables
        return after

    def _hold(self, store: dict, obj) -> int:
        ref = next(self._sequence)
        store[ref] = obj
        self._ids[id(obj)] = ref
        return ref

    def _hold_rows(self, rows) -> tuple[int, object]:
        """Hold a new row list; returns its reference and its payload."""
        run = self._run_of(rows)
        ref = self._hold(self._lists, rows)
        if run is None:
            self._spans[ref] = (_Origin(rows), 0)
            # a plain list pickles as one opcode; a FrozenRows would pickle
            # through its reduce and add a class reference
            return ref, list(rows)
        source, start, _ = run
        origin, offset = self._spans[source]
        self._spans[ref] = (origin, offset + start)
        return ref, run

    def _run_of(self, rows) -> Optional[tuple[int, int, int]]:
        """``(ref, start, stop)`` when ``rows`` are a contiguous run of a
        held list, the most recently live first; else None."""
        count = len(rows)
        if not count:
            return None
        first = rows[0]
        for ref in reversed(self._lists):
            held = self._lists[ref]
            if len(held) < count:
                continue
            origin, offset = self._spans[ref]
            position = origin.position(first)
            if position is None:
                continue
            start = position - offset
            stop = start + count
            if (
                0 <= start
                and stop <= len(held)
                and all(map(operator.is_, rows, held[start:stop]))
            ):
                return ref, start, stop
        return None

    def _touch(self, refs: tuple[int, int]) -> None:
        """Mark a table's former objects as the most recently live."""
        sref, rref = refs
        if sref in self._schemas:
            self._schemas[sref] = self._schemas.pop(sref)
        if rref in self._lists:
            self._lists[rref] = self._lists.pop(rref)

    def _evict(self) -> list[int]:
        """Release objects beyond the live tables until the bound holds;
        returns their references."""
        live = {ref for refs in self._tables.values() for ref in refs}
        cap = 2 * self.peak_tables
        release = []
        lists = [ref for ref in self._lists if ref not in live]
        count = len(lists)
        rows = sum(len(self._lists[ref]) for ref in lists)
        if count > cap or rows > self.peak_rows:
            lists.sort(key=lambda ref: len(self._lists[ref]) > 0)  # empty first
            for ref in lists:
                if count <= cap and rows <= self.peak_rows:
                    break
                rows -= len(self._lists[ref])
                count -= 1
                self._release(self._lists, ref)
                del self._spans[ref]
                release.append(ref)
        schemas = [ref for ref in self._schemas if ref not in live]
        for ref in schemas[: max(0, len(schemas) - cap)]:
            self._release(self._schemas, ref)
            release.append(ref)
        return release

    def _release(self, store: dict, ref: int) -> None:
        del self._ids[id(store.pop(ref))]


class _Origin:
    """A row list shipped by value, and the position of each of its rows.

    Every held list is a run of one origin, so a new list's first row is
    looked up here once per held list instead of being searched for.  The
    origin keeps its rows alive, so the ``id`` keys stay unique; a row that
    appears twice maps to its last position, which only costs a missed run.
    """

    __slots__ = ("rows", "_positions")

    def __init__(self, rows):
        self.rows = rows
        self._positions: Optional[dict[int, int]] = None

    def position(self, row) -> Optional[int]:
        if self._positions is None:
            self._positions = {id(item): i for i, item in enumerate(self.rows)}
        return self._positions.get(id(row))
