"""The extraction service orchestrator.

Glues the admission queue, circuit breaker, tenant ledgers, job journal, and
the existing extraction machinery (scheduler + isolation worker pool +
checkpoint/resume) into one long-running, crash-safe service:

* **Admission** (:meth:`ExtractionService.submit`) is ordered and total:
  draining → payload validation → breaker → tenant ledgers → queue capacity.
  Every refusal is a structured :class:`~repro.serve.jobs.Rejection` —
  journaled as a terminal ``rejected`` job when the request itself was valid
  — and never a stall.
* **Execution** rebuilds each job's synthetic instance deterministically from
  ``(workload, scale, seed)``, runs the standard pipeline with a per-job
  checkpoint directory, journals module-boundary progress, and folds the
  job's remaining admission deadline into the wall-clock budget
  (tightest-wins; see :mod:`repro.resilience.deadlines`).
* **Crash safety**: every state transition is committed to the journal
  before the service acts on it, so :meth:`start` after a SIGKILL requeues
  interrupted jobs and resumes them through their checkpoints to
  byte-identical SQL.
* **Drain** (:meth:`drain`): stop admitting, ask in-flight pipelines to
  pause at their next module boundary (``pause_check`` →
  :class:`~repro.errors.ExtractionPaused` → journaled ``checkpointed``),
  and join the workers; queued jobs stay journaled for the next start.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from pathlib import Path
from typing import Optional

from repro.errors import (
    ExtractionPaused,
    ReproError,
    StorageExhausted,
    WorkerCrashedError,
    WorkerQuarantined,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.deadlines import budget_wall_seconds
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import JobRequest, JobState, Rejection
from repro.serve.journal import JobJournal
from repro.serve.pressure import MB, MemoryGovernor, estimate_footprint
from repro.serve.queue import AdmissionQueue
from repro.serve.tenants import TenantPolicy, TenantRegistry
from repro.workloads import build_instance, find_query

logger = logging.getLogger("repro.serve")


def resolve_sql(request: JobRequest) -> str:
    """The hidden SQL for a request (named workload query or ad-hoc)."""
    if request.sql:
        return request.sql
    query = find_query(request.workload, request.query)
    if query is None:
        raise ValueError(
            f"unknown query {request.query!r} in workload {request.workload!r}"
        )
    return query.sql


class ExtractionService:
    """Crash-safe multi-job extraction orchestrator (the ``serve`` core)."""

    def __init__(
        self,
        journal_path,
        checkpoint_root,
        queue_capacity: int = 16,
        workers: int = 2,
        tenant_policy: Optional[TenantPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
        ledger_path=None,
        runner=None,
        governor: Optional[MemoryGovernor] = None,
        memory_high_mb: Optional[float] = None,
        memory_low_mb: Optional[float] = None,
        shared_plan_cache_size: int = 2048,
        remote_peers=(),
        transport_factory=None,
        extraction_overrides=None,
    ):
        self.journal = JobJournal(journal_path)
        self.checkpoint_root = Path(checkpoint_root)
        self.checkpoint_root.mkdir(parents=True, exist_ok=True)
        self.queue = AdmissionQueue(queue_capacity)
        self.workers = max(1, workers)
        self.tenants = TenantRegistry(tenant_policy)
        self.breaker = breaker or CircuitBreaker()
        self.breaker.listener = self._on_breaker_transition
        self.metrics = metrics or MetricsRegistry()
        self.ledger_path = str(ledger_path) if ledger_path is not None else None
        #: memory-pressure governor (disabled unless watermarks are set or a
        #: preconfigured instance is injected); drives checkpoint-and-evict
        #: through the same pause_check seam as graceful drain
        self.governor = governor or MemoryGovernor(memory_high_mb, memory_low_mb)
        #: one compiled-plan cache shared by every job over the same catalog
        #: (keys carry the catalog-content digest, so cross-job reuse is sound)
        self.plan_cache = None
        if shared_plan_cache_size and shared_plan_cache_size > 0:
            from repro.engine.database import PlanCache

            self.plan_cache = PlanCache(shared_plan_cache_size)
        #: remote worker-agent peers (``--workers host:port,...``); when set,
        #: isolated invocations are dispatched over the remote transport and
        #: one health registry spans every job, so /status and /healthz see
        #: peer state that outlives individual extractions
        self.remote_peers = tuple(remote_peers)
        self.transport_factory = transport_factory
        #: per-deployment ExtractionConfig field overrides (e.g. tighter
        #: ``worker_default_timeout``/``transport_*`` wire budgets on a LAN
        #: fleet); applied to every job's config after request-derived fields
        self.extraction_overrides = dict(extraction_overrides or {})
        self.peer_registry = None
        if self.remote_peers:
            from repro.isolation.remote import PeerHealthRegistry

            self.peer_registry = PeerHealthRegistry(self.remote_peers)
        #: (finished_at, wall_seconds) of recent completions — the drain-rate
        #: sample behind Retry-After hints on 429 responses
        self._completions: deque = deque(maxlen=16)
        #: injectable job runner for deterministic tests; the contract is
        #: ``runner(job_id, request, remaining_deadline) -> result dict``
        #: with keys sql/verdict/invocations/seconds/extras, raising
        #: ExtractionPaused to checkpoint or any exception to fail the job
        self._runner = runner or self._run_extraction
        self._draining = threading.Event()
        self._metrics_lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self.started_at: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> list[str]:
        """Recover the journal, requeue pending jobs, start the workers.

        Returns the ids of jobs recovered from a previous process (both
        crash-interrupted ``running`` jobs and drain-``checkpointed`` ones).
        """
        recovered = self.journal.recover()
        if recovered:
            self.journal.event(
                "recovered", f"requeued {len(recovered)} interrupted jobs"
            )
        pending = [job["job_id"] for job in self.journal.jobs(JobState.QUEUED)]
        for job_id in pending:
            if not self.queue.offer(job_id):
                # More journaled work than queue capacity: the overflow stays
                # 'queued' in the journal and is picked up as slots free.
                logger.warning("recovery overflow: %s stays journal-queued", job_id)
        self.started_at = time.time()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return recovered

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: finish or checkpoint in-flight jobs, then return.

        Queued jobs stay journaled (``queued``) for the next start.  Returns
        True when every worker exited within ``timeout``.
        """
        if not self._draining.is_set():
            self._draining.set()
            self.journal.event("drain", "graceful drain requested")
        self.queue.close()
        deadline = None if timeout is None else time.time() + timeout
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.time())
            thread.join(remaining)
        drained = all(not thread.is_alive() for thread in self._threads)
        if drained:
            self.journal.event("drained", "all workers exited")
        return drained

    def close(self) -> None:
        self.journal.close()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- admission -----------------------------------------------------------

    def submit(self, payload) -> dict:
        """Admit one job; returns ``{"job_id", "state"}`` or a rejection dict.

        Rejection dicts carry ``rejected`` (the structured reason),
        ``detail``, and ``http_status`` — and, when the request itself was
        valid, a journaled terminal ``rejected`` job id for the audit trail.
        """
        if self._draining.is_set():
            return self._reject(None, Rejection(
                "draining", "service is draining; resubmit after restart", 503
            ))
        try:
            request = JobRequest.from_payload(payload)
        except ValueError as error:
            self._count("serve_jobs_rejected_total")
            return dict(Rejection("invalid", str(error), 400).to_dict(),
                        http_status=400)
        with self._submit_lock:
            if not self.breaker.allow():
                return self._reject(request, Rejection(
                    "breaker_open",
                    "worker health circuit breaker is open; retry after "
                    f"cooldown ({self.breaker.cooldown_seconds:.0f}s)",
                    503,
                ))
            # allow() in half-open state leases the single probe slot: this
            # job's outcome decides whether the breaker closes or re-opens.
            probe = self.breaker.state == CircuitBreaker.HALF_OPEN
            tenant_rejection = self.tenants.admit(request.tenant)
            if tenant_rejection is not None:
                if probe:
                    self.breaker.release_probe()
                return self._reject(request, tenant_rejection)
            self._pressure_tick()
            if self.governor.overloaded():
                self.tenants.release(request.tenant)
                if probe:
                    self.breaker.release_probe()
                return self._reject(request, Rejection(
                    "memory_pressure",
                    "resident memory is above the high watermark "
                    f"({self.governor.high_bytes // MB} MiB); retry later",
                    429,
                    retry_after=self._retry_after_hint(),
                ))
            if len(self.queue) >= self.queue.capacity:
                self.tenants.release(request.tenant)
                if probe:
                    self.breaker.release_probe()
                return self._reject(request, Rejection(
                    "queue_full",
                    f"admission queue is at capacity "
                    f"({self.queue.capacity}); retry later",
                    429,
                    retry_after=self._retry_after_hint(),
                ))
            job_id = self.journal.next_job_id()
            extras = {"breaker_probe": True} if probe else {}
            try:
                self.journal.create(
                    job_id,
                    request.to_dict(),
                    detail="breaker probe" if extras else "",
                    extras=extras,
                )
            except StorageExhausted as error:
                # The admission record cannot be made durable; refusing the
                # job is the only answer that keeps the crash-safety
                # contract (commit-before-act) honest.
                self.tenants.release(request.tenant)
                if probe:
                    self.breaker.release_probe()
                self._count("serve_storage_exhausted_total")
                self._count("serve_jobs_rejected_total")
                self._count("serve_rejected_storage_exhausted_total")
                rejection = Rejection("storage_exhausted", str(error), 507)
                return dict(rejection.to_dict(), http_status=507)
            self.queue.offer(job_id)
            self._count("serve_jobs_submitted_total")
            self._gauge("serve_queue_depth", len(self.queue))
            return {"job_id": job_id, "state": JobState.QUEUED,
                    "probe": bool(extras)}

    def _reject(self, request: Optional[JobRequest], rejection: Rejection) -> dict:
        self._count("serve_jobs_rejected_total")
        self._count(f"serve_rejected_{rejection.reason}_total")
        payload = dict(rejection.to_dict(), http_status=rejection.http_status)
        if request is not None:
            try:
                job_id = self.journal.next_job_id()
                self.journal.create(
                    job_id,
                    request.to_dict(),
                    state=JobState.REJECTED,
                    detail=f"{rejection.reason}: {rejection.detail}",
                )
                payload["job_id"] = job_id
            except StorageExhausted as error:
                # The refusal stands either way; losing its audit row is a
                # degradation, not a reason to stall the caller.
                logger.warning("rejection not journaled: %s", error)
                self._count("serve_storage_exhausted_total")
        return payload

    def _retry_after_hint(self) -> int:
        """Seconds until a queue slot should free, from the drain rate.

        Uses the mean wall-clock of recent completions spread over the
        worker pool; falls back to a depth-proportional guess before the
        first completion.  Clamped to [1, 600] — a hint, not a promise.
        """
        depth = len(self.queue)
        with self._metrics_lock:
            recent = list(self._completions)
        if recent:
            mean_seconds = sum(s for _, s in recent) / len(recent)
            eta = (depth + 1) * mean_seconds / self.workers
            return max(1, min(600, math.ceil(eta)))
        return max(1, min(300, depth * 5))

    def _note_completion(self, seconds: float) -> None:
        with self._metrics_lock:
            self._completions.append((time.time(), max(float(seconds), 1e-3)))

    # -- status --------------------------------------------------------------

    def status(self) -> dict:
        with self._metrics_lock:
            counters = self.metrics.counters()
        return {
            "draining": self._draining.is_set(),
            "started_at": self.started_at,
            "queue": self.queue.snapshot(),
            "jobs": self.journal.counts(),
            "breaker": self.breaker.snapshot(),
            "tenants": self.tenants.snapshot(),
            "workers": {
                "configured": self.workers,
                "alive": sum(1 for t in self._threads if t.is_alive()),
            },
            "counters": counters,
            "worker_health": {
                name: value
                for name, value in counters.items()
                if name.startswith("worker_")
            },
            "ledger": self.ledger_path,
            "memory": self.governor.snapshot(),
            "plan_cache": (
                self.plan_cache.stats() if self.plan_cache is not None else None
            ),
            "peers": (
                self.peer_registry.snapshot()
                if self.peer_registry is not None else None
            ),
        }

    def health(self) -> dict:
        """The ``/healthz`` payload: cheap, side-effect-free, no probing.

        Reports thread-pool liveness and — when remote peers are configured —
        each peer's transport state and last-heartbeat age straight from the
        shared registry.  ``ok`` is false while draining or once every remote
        peer is down.
        """
        draining = self._draining.is_set()
        payload = {
            "ok": not draining,
            "draining": draining,
            "workers": {
                "configured": self.workers,
                "alive": sum(1 for t in self._threads if t.is_alive()),
            },
        }
        if self.peer_registry is not None:
            payload["peers"] = self.peer_registry.snapshot()
            if not self.peer_registry.healthy():
                payload["ok"] = False
                payload["detail"] = "every remote worker peer is down"
        return payload

    def metrics_text(self) -> str:
        """The Prometheus text exposition of this service's registry."""
        from repro.obs.metrics import render_prometheus

        self._gauge("serve_queue_depth", len(self.queue))
        if self.governor.enabled:
            self._gauge(
                "serve_memory_rss_mb", round(self.governor.last_rss / MB, 3)
            )
            self._gauge(
                "serve_memory_tracked_mb",
                round(self.governor.tracked_bytes() / MB, 3),
            )
        with self._metrics_lock:
            return render_prometheus(self.metrics)

    def job_view(self, job_id: str) -> Optional[dict]:
        """A job's journaled record plus its full transition history."""
        record = self.journal.job(job_id)
        if record is None:
            return None
        record["transitions"] = self.journal.transitions(job_id)
        return record

    # -- memory pressure ------------------------------------------------------

    def pause_requested(self, job_id: str) -> bool:
        """The per-job ``pause_check`` predicate: drain OR eviction mark."""
        return self._draining.is_set() or self.governor.should_pause(job_id)

    def _pressure_tick(self) -> None:
        """Re-sample memory pressure and refresh the pressure gauges."""
        if not self.governor.enabled:
            return
        self.governor.tick()
        self._gauge("serve_memory_rss_mb", round(self.governor.last_rss / MB, 3))
        self._gauge(
            "serve_memory_tracked_mb",
            round(self.governor.tracked_bytes() / MB, 3),
        )

    def _on_step(self, job_id: str, module: str) -> None:
        """Module-boundary hook: journal progress, then re-evaluate pressure."""
        self.journal.progress(job_id, module)
        self._pressure_tick()

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self.queue.take(timeout=0.2)
            if job_id is None:
                if self.queue.closed and len(self.queue) == 0:
                    return
                if self._draining.is_set():
                    return
                continue
            try:
                self._execute(job_id)
            except StorageExhausted as error:
                # The journal itself ran out of disk mid-execution; the job's
                # in-memory outcome is already decided, only its durability
                # is degraded.  Keep the worker alive for jobs whose rows
                # still fit.
                logger.warning("journal storage exhausted on %s: %s",
                               job_id, error)
                self._count("serve_storage_exhausted_total")
            except Exception:  # never let one job kill a worker thread
                logger.exception("unhandled error executing %s", job_id)

    def _execute(self, job_id: str) -> None:
        record = self.journal.job(job_id)
        if record is None or record["state"] != JobState.QUEUED:
            return
        request = JobRequest.from_dict(record["request"])
        probe = bool(record["extras"].get("breaker_probe"))
        remaining = None
        if request.deadline_seconds is not None:
            remaining = request.deadline_seconds - (time.time() - record["created"])
            if remaining <= 0:
                self.journal.transition(
                    job_id, JobState.RUNNING, "deadline already exceeded"
                )
                self.journal.transition(
                    job_id, JobState.FAILED, "deadline_exceeded",
                    error="deadline_exceeded",
                )
                self.tenants.settle(request.tenant, failed=True)
                self._count("serve_jobs_failed_total")
                return
        if not self.governor.can_start(job_id):
            # Starting now would push residency further over the watermark;
            # back off briefly and put the job back in line.  It stays
            # journal-queued, so a drain or crash never loses it.
            self._pressure_tick()
            time.sleep(0.05)
            self.queue.offer(job_id)
            return
        self.journal.transition(
            job_id, JobState.RUNNING, f"attempt {record['attempt']}"
        )
        if self.governor.note_rehydrated(job_id):
            self._count("serve_jobs_rehydrated_total")
            self.journal.event(
                "rehydrated", f"{job_id} resumed from checkpoint after eviction"
            )
        self._gauge("serve_queue_depth", len(self.queue))
        started = time.time()
        try:
            result = self._runner(job_id, request, remaining)
        except ExtractionPaused as paused:
            evicted = self.governor.consume_eviction(job_id)
            self.governor.release(job_id)
            self.journal.transition(
                job_id,
                JobState.CHECKPOINTED,
                (f"evicted after {paused.module}: memory pressure"
                 if evicted else f"paused after {paused.module}"),
                module=paused.module,
                seconds=time.time() - started,
                extras={"evictions": self.governor.evictions} if evicted else {},
            )
            self._count("serve_jobs_checkpointed_total")
            if evicted:
                self._count("serve_jobs_evicted_total")
            # A pause is not a health signal either way; the tenant's
            # slot stays held because the job is still pending.
            if probe:
                self.breaker.release_probe()
            if evicted and not self._draining.is_set():
                # Unlike a drain pause, an evicted job is still wanted:
                # requeue it so it rehydrates once pressure subsides.
                self.journal.transition(
                    job_id,
                    JobState.QUEUED,
                    "requeued for rehydration",
                    attempt=record["attempt"] + 1,
                )
                self.queue.offer(job_id)
            return
        except BaseException as error:
            seconds = time.time() - started
            self.governor.release(job_id)
            self.journal.transition(
                job_id,
                JobState.FAILED,
                type(error).__name__,
                error=f"{type(error).__name__}: {error}",
                seconds=seconds,
            )
            self.tenants.settle(request.tenant, seconds=seconds, failed=True)
            self._settle_breaker_failure(error, probe)
            self._count("serve_jobs_failed_total")
            if not isinstance(error, (ReproError, ValueError)):
                raise
            return
        seconds = result.get("seconds", time.time() - started)
        verdict = result.get("verdict", "ok")
        self.governor.release(job_id)
        self._note_completion(seconds)
        self.journal.transition(
            job_id,
            JobState.DONE,
            f"verdict {verdict}",
            sql=result.get("sql", ""),
            verdict=verdict,
            invocations=int(result.get("invocations", 0)),
            seconds=seconds,
            extras=result.get("extras") or {},
        )
        self.tenants.settle(
            request.tenant,
            invocations=int(result.get("invocations", 0)),
            seconds=seconds,
            failed=False,
        )
        if verdict == "quarantined":
            self.breaker.record_failure(f"job {job_id} verdict quarantined")
        else:
            self.breaker.record_success()
        self._count("serve_jobs_done_total")

    def _settle_breaker_failure(self, error: BaseException, probe: bool) -> None:
        if isinstance(error, (WorkerCrashedError, WorkerQuarantined)):
            self.breaker.record_failure(type(error).__name__)
        elif probe:
            # The probe job failed for a non-worker reason; the pool itself
            # looks healthy, so the probe still closes the breaker.
            self.breaker.record_success()

    def _run_extraction(self, job_id: str, request: JobRequest, remaining):
        """Run one real extraction; the default :attr:`_runner`."""
        from repro.apps.executable import SQLExecutable
        from repro.core.config import ExtractionConfig
        from repro.core.pipeline import run_extraction

        sql = resolve_sql(request)
        db = build_instance(request.workload, request.scale, request.seed)
        observer = None
        if self.governor.enabled:
            # Budget-watchdog feed: live engine cell counts refine this
            # job's footprint estimate without enforcing any limit.
            observer = (
                lambda kind, total: self.governor.observe(job_id, kind, total)
            )
        isolate = request.isolate
        if isolate == "remote" and not self.remote_peers:
            raise ValueError(
                "job requested isolate='remote' but the service was started "
                "without remote worker peers (--workers host:port,...)"
            )
        if self.remote_peers and isolate in ("none", "process"):
            # A configured fleet owns every invocation: the service host
            # neither runs probes inline nor spawns local workers.
            isolate = "remote"
        config = ExtractionConfig(
            fail_fast=not request.best_effort,
            budget_invocations=request.budget_invocations,
            budget_seconds=budget_wall_seconds(remaining, request.budget_seconds),
            jobs=request.jobs,
            isolate=isolate,
            certify=request.certify,
            worker_peers=self.remote_peers,
            peer_registry=self.peer_registry,
            transport_factory=self.transport_factory,
            shared_plan_cache=self.plan_cache,
            plan_cache_scope=job_id,
            resource_observer=observer,
        )
        if self.extraction_overrides:
            import dataclasses

            config = dataclasses.replace(config, **self.extraction_overrides)
        extras: dict = {}

        def before_extract(run_id):
            self.governor.register(
                job_id, estimate_footprint(db), priority=request.priority
            )
            if run_id is not None:
                # The provenance-ledger pointer is visible on /jobs/<id>
                # while the job is still running, not only at completion.
                extras["ledger_run_id"] = run_id
                extras["ledger_path"] = self.ledger_path
                self.journal.set_extras(job_id, extras)

        job_metrics = MetricsRegistry()
        try:
            outcome = run_extraction(
                db,
                SQLExecutable(sql, obfuscate_text=True, name=f"serve:{job_id}"),
                config,
                metrics=job_metrics,
                ledger=self.ledger_path,
                label=f"serve:{job_id}",
                workload=request.workload,
                query_name=request.query,
                on_ledger_error=lambda error: self._count(
                    "serve_storage_exhausted_total"
                ),
                before_extract=before_extract,
                checkpoint_dir=self.checkpoint_root / job_id,
                step_listener=lambda module: self._on_step(job_id, module),
                pause_check=lambda: self.pause_requested(job_id),
            ).outcome
        finally:
            with self._metrics_lock:
                self.metrics.merge(job_metrics)
        result = {
            "sql": outcome.sql if outcome.query is not None else "",
            "verdict": outcome.verdict,
            "invocations": outcome.stats.total_invocations,
            "seconds": outcome.stats.total_seconds,
            "extras": extras,
        }
        if outcome.certify is not None:
            # the verifier's verdict rides the extras channel so it lands in
            # the journal and the /jobs/<id> view, not just this dict
            extras["certify"] = outcome.certify
        return result

    # -- internals -----------------------------------------------------------

    def _on_breaker_transition(self, old: str, new: str, reason: str) -> None:
        self.journal.event("breaker", f"{old} -> {new}: {reason}")
        self._count("serve_breaker_transitions_total")
        logger.info("breaker %s -> %s (%s)", old, new, reason)

    def _count(self, name: str) -> None:
        with self._metrics_lock:
            self.metrics.counter(name).inc()

    def _gauge(self, name: str, value) -> None:
        with self._metrics_lock:
            self.metrics.gauge(name).set(value)
