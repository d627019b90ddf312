"""The session-facing isolation backend.

:class:`ProcessIsolationBackend` is what :meth:`ExtractionSession._invoke`
delegates to under ``--isolate process`` and ``--isolate remote``.  Both run
through the one :class:`~repro.isolation.supervisor.WorkerPool`; the backend
only picks the pool's handle factory (local subprocesses or remote worker
agents) and the span's ``isolate`` tag from ``config.isolate``, so there is
no second accounting path to drift.  Its contract is *observability parity*
with the in-process fast path: a probe that runs in a worker must be
indistinguishable to every layer above the invocation boundary —

* the local executable's ``invocation_count`` / ``total_runtime`` advance
  exactly as they would in-process (the pipeline's per-module accounting and
  the chaos CLI read them);
* ``invocations_total`` and ``invocation_latency_seconds`` tick on the
  session metrics registry, and each invocation opens a ``worker`` span
  (instead of the in-process ``invocation`` span) carrying the worker's
  duration, peak RSS, and crash classification;
* engine rows scanned inside the worker are charged to the session's
  :class:`~repro.resilience.budgets.ResourceBudget` after the fact, so
  budget enforcement is supervisor-side and counted once;
* the silo's ``access_log`` is mirrored from the worker when the From-clause
  trace strategy asked for it, and chaos-injection counts are mirrored onto
  the local :class:`~repro.resilience.faults.FaultyExecutable` so survival
  reports read the same either way.

Clean application errors (engine signals, injected soft faults) are
re-raised exactly as the worker raised them — their types round-trip the
pickle boundary (see the ``__reduce__`` definitions in :mod:`repro.errors`),
so the retry classification and the pipeline's semantic reading of
``UndefinedTableError`` are unchanged.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import ExecutableTimeoutError, WorkerCrashedError
from repro.isolation.supervisor import WorkerPool, WorkerSpec
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
    """The pool's handle factory for ``config.isolate``; None means local."""
    if config.isolate != "remote":
        return None
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
        connect_timeout=config.transport_connect_timeout,
        heartbeat_interval=config.transport_heartbeat_interval,
        backoff_base=config.transport_backoff_base,
        backoff_max=config.transport_backoff_max,
        max_reconnects=config.transport_max_reconnects,
        secret=secret if secret is not None else secret_from_env(),
    )
    return RemoteHandleFactory(
        spec, registry=registry, transport_factory=config.transport_factory
    )


class ProcessIsolationBackend:
    """Routes invocations through a :class:`WorkerPool`, with stat parity."""

    def __init__(self, executable, config, tracer=None, budget=None):
        self.executable = executable
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.budget = budget
        #: span-tag value: ``process`` or ``remote``
        self.isolate_label = config.isolate
        self.pool = WorkerPool(
            executable,
            spec_from_config(config),
            metrics=self.tracer.metrics,
            factory=handle_factory(config),
        )

    def invoke(self, db, timeout: Optional[float] = None):
        """Run one invocation out of process against ``db``'s current state.

        When the executable carries an invocation memo, a database-state
        match skips the worker round-trip entirely — the dominant cost under
        isolation — while the invocation is still counted, spanned, and
        metered exactly like a physical one.
        """
        executable = self.executable
        tracer = self.tracer
        memo = executable.memo if executable.cacheable else None
        memo_key = None
        if memo is not None and not getattr(db, "trace_access", False):
            memo_key = memo.key_for(db, timeout)
        with executable._counter_lock:
            executable.invocation_count += 1
        started = time.perf_counter()
        if not tracer.enabled:
            try:
                return self._invoke_memoized(db, timeout, memo, memo_key, None)
            finally:
                with executable._counter_lock:
                    executable.total_runtime += time.perf_counter() - started
        with tracer.span(executable.name, kind="worker") as span:
            span.set_tags(
                executable=executable.name,
                isolate=self.isolate_label,
                ordinal=self.pool.ordinal + 1,
                db_rows=db.total_rows(),
            )
            if tracer.metrics is not None:
                tracer.metrics.counter("invocations_total").inc()
            try:
                return self._invoke_memoized(db, timeout, memo, memo_key, span)
            finally:
                elapsed = time.perf_counter() - started
                with executable._counter_lock:
                    executable.total_runtime += elapsed
                if tracer.metrics is not None:
                    tracer.metrics.histogram(
                        "invocation_latency_seconds"
                    ).observe(elapsed)

    def _invoke_memoized(self, db, timeout, memo, memo_key, span):
        if memo_key is not None:
            cached = memo.lookup(memo_key)
            if cached is not None:
                if span is not None:
                    span.set_tag("invocation_cache", "hit")
                return cached
            if span is not None:
                span.set_tag("invocation_cache", "miss")
        result = self._invoke_inner(db, timeout, span)
        if memo_key is not None:
            memo.store(memo_key, result)
        return result

    def invoke_reply(self, db, timeout: Optional[float] = None) -> dict:
        """Thread-safe, transport-only invocation for scheduler workers.

        Returns the raw worker reply dict without touching the executable
        counters, metrics, spans, or budget — the calling probe context
        applies those itself (under its own locks) so accounting stays
        exactly-once.  Memo hits short-circuit with a synthetic reply.
        """
        executable = self.executable
        trace_access = bool(getattr(db, "trace_access", False))
        memo = executable.memo if executable.cacheable else None
        memo_key = None
        if memo is not None and not trace_access:
            memo_key = memo.key_for(db, timeout)
            if memo_key is not None:
                cached = memo.lookup(memo_key)
                if cached is not None:
                    return {"ok": True, "result": cached, "stats": {}}
        reply = self.pool.invoke(db, timeout, trace_access=trace_access)
        stats = reply.get("stats") or {}
        if trace_access and "access_log" in stats:
            db.access_log.extend(stats["access_log"])
        self._mirror_injected()
        if memo_key is not None and reply.get("ok"):
            memo.store(memo_key, reply["result"])
        return reply

    def _invoke_inner(self, db, timeout: Optional[float], span):
        trace_access = bool(getattr(db, "trace_access", False))
        try:
            reply = self.pool.invoke(db, timeout, trace_access=trace_access)
        except ExecutableTimeoutError:
            if span is not None:
                span.set_tags(timed_out=True, hard_kill=True)
            self._mirror_injected()
            raise
        except WorkerCrashedError as error:
            if span is not None:
                span.set_tags(crashed=True, crash_kind=error.kind)
            self._mirror_injected()
            raise
        stats = reply.get("stats") or {}
        if span is not None:
            span.set_tags(
                worker_seconds=round(stats.get("duration", 0.0), 9),
                worker_maxrss_bytes=stats.get("maxrss_bytes", 0),
                rows_scanned=stats.get("rows_scanned", 0),
            )
        # Failed probes report stats too: their scanned rows spend budget and
        # their access trace is real, exactly as in-process.
        if self.budget is not None and self.budget.enabled:
            self.budget.charge_rows_scanned(int(stats.get("rows_scanned", 0)))
        if trace_access and "access_log" in stats:
            db.access_log.extend(stats["access_log"])
        self._mirror_injected()
        if not reply.get("ok"):
            raise reply["error"]
        return reply["result"]

    def _mirror_injected(self) -> None:
        """Copy worker-side chaos-injection counts onto the local executable.

        The worker runs its *own* reconstruction of the executable, so fault
        bookkeeping accumulates over there; survival reports read the local
        wrapper's ``injected`` dict, which this keeps authoritative.
        """
        injected = getattr(self.executable, "injected", None)
        if isinstance(injected, dict):
            for kind, count in self.pool.injected_totals().items():
                injected[kind] = count

    def close(self) -> None:
        self._mirror_injected()
        self.pool.close()
