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

State shipping is incremental: each handle remembers the exact row-list
object last shipped per table (copy-on-write row lists are rebound on every
mutation, so object identity is a sound change detector — and the held
reference pins the id against reuse).  The ledger is committed only once the
worker answers, so a request lost on the wire re-ships the same tables on
retry.  A fresh worker starts with an empty ship-state and receives the
full silo on its first run.
"""

from __future__ import annotations

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

    Constructing a handle spawns the process and completes the init
    handshake.  The in-process pool and the remote
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
        #: table → (schema, shipped row-list reference); holding the list
        #: object both detects changes (identity) and pins its id
        self.shipped: dict[str, tuple] = {}
        self.last_injected: dict[str, int] = {}
        try:
            self.transport.send({"cmd": "init", "executable": executable_blob})
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

    def run(self, message: dict, deadline_seconds: float) -> dict:
        """Send one request and read its reply under a hard deadline.

        Raises :class:`HardTimeout` (worker SIGKILLed) when the deadline
        expires and :class:`WorkerDied` when the pipe closes mid-reply.
        """
        try:
            self.transport.send(message)
            return self.transport.recv(deadline_seconds)
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
        """Polite exit, escalating to SIGKILL."""
        if self.proc.poll() is None:
            try:
                write_frame(self.proc.stdin, {"cmd": "shutdown"})
                self.proc.stdin.close()
                self.proc.wait(timeout=2)
            except Exception:
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


class LocalHandleFactory:
    """Handle factory for ``--isolate process``: a subprocess per handle.

    Workers spawn lazily, on a slot's first invocation; a slot whose worker
    died gets a fresh one, and only that replacement is a respawn.
    """

    def attach(self, pool: "WorkerPool") -> None:
        self.pool = pool

    def ready(self, handle: Optional[WorkerHandle]) -> WorkerHandle:
        if handle is not None and handle.alive:
            return handle
        if handle is not None:
            self.pool.charge_respawn()
        return WorkerHandle(self.pool.spec, self.pool.executable_blob)

    def quarantined(self, reason: str, crashes: int, respawns: int):
        return WorkerQuarantined(reason, crashes, respawns)

    def health(self) -> dict:
        return {}

    def close(self) -> None:
        pass


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
        size = max(1, spec.pool_size)
        #: one handle per slot; None until the factory first makes it ready
        self._handles: list = [None] * size
        #: slot leasing: a caller takes a slot index for the whole invocation
        #: (blocking when all are leased), so each handle — and its
        #: incremental ship-state — is touched by one thread at a time.  The
        #: per-slot lock is held for the whole invocation too, so background
        #: work (remote heartbeats) only ever touches idle slots.
        self._slots: queue.Queue = queue.Queue()
        for slot in range(size):
            self._slots.put(slot)
        self.slot_locks = [threading.Lock() for _ in range(size)]
        #: guards the pool ledger (ordinal, stats, quarantine, respawns,
        #: injected totals, metrics) against concurrent scheduler threads
        self._lock = threading.Lock()
        self.closed = False
        self.factory = factory if factory is not None else LocalHandleFactory()
        self.factory.attach(self)

    # -- public API ---------------------------------------------------------

    def invoke(self, db, timeout: Optional[float], trace_access: bool = False) -> dict:
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
                return self._run(handle, db, timeout, trace_access)
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
        self.factory.close()
        for slot, handle in enumerate(self._handles):
            if handle is not None:
                with self.slot_locks[slot]:
                    self._absorb_injected(handle)
                    handle.shutdown()

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

    def _run(self, handle, db, timeout: Optional[float], trace_access: bool) -> dict:
        with self._lock:
            self.ordinal += 1
            ordinal = self.ordinal
            self.stats.invocations += 1
        effective = timeout if timeout is not None else self.spec.default_timeout
        shipped = dict(handle.shipped)
        message = {
            "cmd": "run",
            "ordinal": ordinal,
            "timeout": timeout,
            "trace_access": trace_access,
            "deltas": _deltas(shipped, db),
            "dropped": _dropped(shipped, db),
        }
        try:
            reply = handle.run(message, effective + self.spec.kill_grace)
        except HardTimeout:
            with self._lock:
                self.stats.kills += 1
                self._count("worker_kills_total")
                self._note_abnormal(handle)
            raise ExecutableTimeoutError(
                f"isolated invocation {ordinal} exceeded its "
                f"{effective:.3f}s hard deadline and was killed"
            ) from None
        except WorkerDied as death:
            with self._lock:
                self.stats.crashes += 1
                self._count("worker_crashes_total")
                self._note_abnormal(handle)
            raise WorkerCrashedError(death.kind, str(death), ordinal=ordinal) from None
        # A reply — normal or a clean application error — means the worker
        # applied the deltas and survived the invocation: commit the ledger
        # and end the crash streak.
        handle.shipped = shipped
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


def _deltas(shipped: dict, db) -> dict:
    deltas = {}
    for name, schema, rows in db.table_states():
        prev = shipped.get(name)
        if prev is not None and prev[0] == schema and prev[1] is rows:
            continue
        shipped[name] = (schema, rows)
        deltas[name] = {"schema": schema, "rows": rows}
    return deltas


def _dropped(shipped: dict, db) -> list:
    live = {name for name, _, _ in db.table_states()}
    dropped = [name for name in shipped if name not in live]
    for name in dropped:
        del shipped[name]
    return dropped
