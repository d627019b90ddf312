"""The session-facing isolation backend.

:class:`ProcessIsolationBackend` is what the probe surface's ``_invoke``
(:class:`~repro.core.session.ProbeSurface`) delegates to under ``--isolate
process`` and ``--isolate remote``, for the session and for every parallel
scheduler task alike.  Both isolate modes run through the one
:class:`~repro.isolation.supervisor.WorkerPool`; the backend only picks the
pool's handle factory (local subprocesses or remote worker agents) and the
span's ``isolate`` tag from ``config.isolate``.

:meth:`ProcessIsolationBackend.invoke` is the one accounted isolated entry
point.  Like :meth:`~repro.apps.executable.Executable.run` it reads the
tracer and the budget from the probe database, so a scheduler task's
private replica routes spans, metrics and budget charges to that task.  Its
contract is *observability parity* with the in-process fast path: a probe
that runs in a worker must be indistinguishable to every layer above the
invocation boundary —

* the invocation is accounted by the executable's own ledger,
  :meth:`~repro.apps.executable.Executable._invocation`, the same one an
  in-process run goes through: ``invocation_count`` / ``total_runtime``,
  ``invocations_total`` and ``invocation_latency_seconds`` move exactly as
  they would in-process, and the invocation opens a ``worker`` span
  (instead of the in-process ``invocation`` span).  The backend adds only
  the span's ``isolate`` / ``ordinal`` tags and the worker's duration, peak
  RSS, and crash classification;
* engine rows scanned inside the worker are charged to the database's
  budget after the fact, so budget enforcement is supervisor-side and
  counted once;
* chaos-injection counts are mirrored onto the local
  :class:`~repro.resilience.faults.FaultyExecutable` so survival reports
  read the same either way.

:meth:`~ProcessIsolationBackend.invoke_reply` is the transport alone: the
same memo handling, the raw worker reply returned, and no counters,
metrics, spans or budget charges.

Clean application errors (engine signals, injected soft faults) are
re-raised exactly as the worker raised them — their types round-trip the
pickle boundary (see the ``__reduce__`` definitions in :mod:`repro.errors`),
so the retry classification and the pipeline's semantic reading of
``UndefinedTableError`` are unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ExecutableTimeoutError, WorkerCrashedError
from repro.isolation.supervisor import (
    PARKED_WORKERS,
    LocalHandleFactory,
    WorkerPool,
    WorkerSpec,
)
from repro.obs.trace import NULL_TRACER


def spec_from_config(config) -> WorkerSpec:
    """Pool policy from the config; it applies to both handle kinds."""
    return WorkerSpec(
        memory_limit_bytes=(
            config.worker_memory_limit_mb * 1024 * 1024
            if config.worker_memory_limit_mb
            else None
        ),
        default_timeout=config.worker_default_timeout,
        kill_grace=config.worker_kill_grace,
        quarantine_threshold=config.worker_quarantine_threshold,
        max_respawns=config.worker_max_respawns,
        # One worker per scheduler job, so parallel probe batches don't
        # serialize on a single subprocess.
        pool_size=max(1, int(getattr(config, "jobs", 1) or 1)),
    )


def handle_factory(config):
    """The pool's handle factory for ``config.isolate``.

    Local pools share :data:`~repro.isolation.supervisor.PARKED_WORKERS`, so
    a healthy worker outlives its extraction and serves the next one.
    """
    if config.isolate != "remote":
        return LocalHandleFactory(stash=PARKED_WORKERS)
    from repro.isolation.protocol import secret_from_env
    from repro.isolation.remote import (
        PeerHealthRegistry,
        RemoteHandleFactory,
        RemoteSpec,
    )

    registry = config.peer_registry
    if registry is not None and not isinstance(registry, PeerHealthRegistry):
        raise TypeError("peer_registry must be a PeerHealthRegistry")
    secret = config.transport_secret
    spec = RemoteSpec(
        peers=tuple(config.worker_peers),
        heartbeat_interval=config.transport_heartbeat_interval,
        backoff_base=config.transport_backoff_base,
        backoff_max=config.transport_backoff_max,
        secret=secret if secret is not None else secret_from_env(),
    )
    return RemoteHandleFactory(
        spec, registry=registry, transport_factory=config.transport_factory
    )


class ProcessIsolationBackend:
    """Routes invocations through a :class:`WorkerPool`, with stat parity."""

    def __init__(self, executable, config, tracer=None):
        self.executable = executable
        #: span-tag value: ``process`` or ``remote``
        self.isolate_label = config.isolate
        self.pool = WorkerPool(
            executable,
            spec_from_config(config),
            metrics=(tracer if tracer is not None else NULL_TRACER).metrics,
            factory=handle_factory(config),
        )

    def invoke(self, db, timeout: Optional[float] = None):
        """Run one invocation out of process against ``db``'s current state.

        Thread-safe: scheduler tasks call it concurrently, each with its own
        replica and task-local tracer.  When the executable carries an
        invocation memo, a database-state match skips the worker round-trip
        entirely — the dominant cost under isolation — while the invocation
        is still counted, spanned, and metered exactly like a physical one.
        """
        with self.executable._invocation(db, kind="worker") as span:
            span.set_tags(isolate=self.isolate_label, ordinal=self.pool.ordinal + 1)
            return self._accounted(db, timeout, span)

    def invoke_reply(self, db, timeout: Optional[float] = None) -> dict:
        """Transport only: the raw worker reply dict for ``db``'s state.

        No executable counters, metrics, spans, or budget charges — callers
        that want an accounted invocation use :meth:`invoke`.  Memo hits
        short-circuit with a synthetic reply.
        """
        return self._transport(db, timeout, None)

    def _accounted(self, db, timeout, span):
        reply = self._transport(db, timeout, span)
        stats = reply.get("stats") or {}
        if stats:
            span.set_tags(
                worker_seconds=round(stats.get("duration", 0.0), 9),
                worker_maxrss_bytes=stats.get("maxrss_bytes", 0),
                rows_scanned=stats.get("rows_scanned", 0),
            )
        # Failed probes report stats too: their scanned rows spend budget,
        # exactly as in-process.
        budget = getattr(db, "budget", None)
        rows_scanned = int(stats.get("rows_scanned", 0) or 0)
        if budget is not None and rows_scanned:
            budget.charge_rows_scanned(rows_scanned)
        if not reply.get("ok"):
            raise reply["error"]
        return reply["result"]

    def _transport(self, db, timeout, span) -> dict:
        """Worker round-trip through the executable's invocation memo (the
        same :meth:`Executable.run_memoized` an in-process run takes, so
        memo hits and fingerprints reach provenance identically)."""
        reply = None

        def round_trip():
            nonlocal reply
            reply = self.pool.invoke(db, timeout)
            return reply["result"] if reply.get("ok") else None

        try:
            result = self.executable.run_memoized(db, timeout, round_trip, span)
        except ExecutableTimeoutError:
            if span is not None:
                span.set_tags(timed_out=True, hard_kill=True)
            raise
        except WorkerCrashedError as error:
            if span is not None:
                span.set_tags(crashed=True, crash_kind=error.kind)
            raise
        finally:
            self._mirror_injected()
        if reply is None:  # a memo hit: no worker was asked
            return {"ok": True, "result": result, "stats": {}}
        return reply

    def _mirror_injected(self) -> None:
        """Copy worker-side chaos-injection counts onto the local executable.

        The worker runs its *own* reconstruction of the executable, so fault
        bookkeeping accumulates over there; survival reports read the local
        wrapper's ``injected`` dict, which this keeps authoritative.

        A worker that injected a crash or a hang died or was killed before
        it could reply, so those two kinds are counted here instead: the
        fault plan's hard draw is stateless per ordinal, and each abnormal
        exit whose ordinal drew that fault is one injection.
        """
        injected = getattr(self.executable, "injected", None)
        if not isinstance(injected, dict):
            return
        totals = self.pool.injected_totals()
        plan = getattr(self.executable, "plan", None)
        if plan is not None:
            for exit_kind, ordinal in list(self.pool.hard_exits):
                fault = "hang" if exit_kind == "kill" else "crash"
                if plan.draw_hard(ordinal) == fault:
                    totals[fault] = totals.get(fault, 0) + 1
        for kind, count in totals.items():
            injected[kind] = count

    def close(self) -> None:
        self._mirror_injected()
        self.pool.close()
