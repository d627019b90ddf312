"""Extraction-as-a-service: the ``repro serve`` orchestrator.

Turns the single-run pipeline into a long-running multi-tenant service:

* :mod:`repro.serve.jobs` — job requests, states, and structured rejections;
* :mod:`repro.serve.journal` — the crash-safe SQLite job journal;
* :mod:`repro.serve.queue` — the bounded admission queue;
* :mod:`repro.serve.breaker` — the worker-health circuit breaker;
* :mod:`repro.serve.tenants` — per-tenant budget and quarantine ledgers;
* :mod:`repro.serve.service` — the orchestrator tying them together;
* :mod:`repro.serve.api` — the stdlib JSON HTTP facade;
* :mod:`repro.serve.killer` — server process control and journal readers
  for the ``serve-kill`` chaos profile (its matrix runs in
  :mod:`repro.resilience.chaos`).
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import JobRequest, JobState, Rejection
from repro.serve.journal import JobJournal
from repro.serve.queue import AdmissionQueue
from repro.serve.service import ExtractionService
from repro.serve.tenants import TenantPolicy, TenantRegistry

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "ExtractionService",
    "JobJournal",
    "JobRequest",
    "JobState",
    "Rejection",
    "TenantPolicy",
    "TenantRegistry",
]
