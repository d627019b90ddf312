"""Job requests, states, and structured admission rejections."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.workloads import WORKLOADS


class JobState:
    """The job state machine (DESIGN.md §5.16).

    ``queued → running → done | failed | checkpointed``; a checkpointed or
    crash-interrupted job is requeued (``→ queued``, attempt + 1) and resumed
    through its per-job checkpoint directory.  ``rejected`` is terminal at
    admission and never enters the queue.
    """

    QUEUED = "queued"
    RUNNING = "running"
    CHECKPOINTED = "checkpointed"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"

    TERMINAL = frozenset({DONE, FAILED, REJECTED})

    #: legal transitions; ``None`` is the pre-creation state
    ALLOWED = {
        None: frozenset({QUEUED, REJECTED}),
        QUEUED: frozenset({RUNNING, FAILED}),
        RUNNING: frozenset({DONE, FAILED, CHECKPOINTED, QUEUED}),
        CHECKPOINTED: frozenset({QUEUED, RUNNING}),
        DONE: frozenset(),
        FAILED: frozenset(),
        REJECTED: frozenset(),
    }


@dataclass(frozen=True)
class Rejection:
    """A structured admission refusal; never an exception, never a stall."""

    reason: str  # queue_full | breaker_open | draining | tenant_* | invalid
    detail: str = ""
    http_status: int = 400
    #: seconds the client should wait before resubmitting (429 responses);
    #: surfaced as the HTTP ``Retry-After`` header by the API layer
    retry_after: Optional[float] = None

    def to_dict(self) -> dict:
        payload = {"rejected": self.reason, "detail": self.detail}
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload


@dataclass(frozen=True)
class JobRequest:
    """One extraction job as submitted over the API.

    Exactly one of ``query`` (a bundled workload query, e.g. ``Q6``) or
    ``sql`` (ad-hoc hidden SQL) must be given.  The synthetic instance is
    rebuilt deterministically from ``(workload, scale, seed)`` on every
    attempt, so a requeued job resumes against a byte-identical database.
    """

    workload: str = "tpch"
    query: str = ""
    sql: str = ""
    scale: float = 0.0005
    seed: int = 11
    tenant: str = "default"
    #: seconds from *admission* to completion; folded into the wall-clock
    #: budget when the job starts running (deadlines table, DESIGN.md §5.16)
    deadline_seconds: Optional[float] = None
    budget_invocations: Optional[int] = None
    budget_seconds: Optional[float] = None
    jobs: int = 1
    isolate: str = "none"
    best_effort: bool = True
    #: run the bounded symbolic equivalence checker (repro.veriq) after
    #: extraction; the certificate-or-counterexample report lands in the
    #: job result under ``certify``
    certify: bool = False
    #: eviction priority under memory pressure: lower values are evicted
    #: first; same-priority victims are picked by footprint, then recency
    priority: int = 0
    extras: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload) -> "JobRequest":
        """Validate an untrusted JSON payload; raises ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = set(payload) - {
            "workload", "query", "sql", "scale", "seed", "tenant",
            "deadline_seconds", "budget_invocations", "budget_seconds",
            "jobs", "isolate", "best_effort", "certify", "priority", "extras",
        }
        if unknown:
            raise ValueError(f"unknown fields: {sorted(unknown)}")
        workload = str(payload.get("workload", "tpch"))
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        query = str(payload.get("query", "") or "")
        sql = str(payload.get("sql", "") or "")
        if bool(query) == bool(sql):
            raise ValueError("exactly one of 'query' or 'sql' is required")
        isolate = str(payload.get("isolate", "none"))
        if isolate not in ("none", "process", "remote"):
            raise ValueError(f"unknown isolate mode {isolate!r}")
        tenant = str(payload.get("tenant", "default") or "default")

        def _number(name, caster, minimum=None):
            value = payload.get(name)
            if value is None:
                return None
            try:
                value = caster(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name!r} must be a number") from None
            if minimum is not None and value < minimum:
                raise ValueError(f"{name!r} must be >= {minimum}")
            return value

        extras = payload.get("extras") or {}
        if not isinstance(extras, dict):
            raise ValueError("'extras' must be an object")
        return cls(
            workload=workload,
            query=query,
            sql=sql,
            scale=_number("scale", float, 0.0) or 0.0005,
            seed=_number("seed", int) if payload.get("seed") is not None else 11,
            tenant=tenant,
            deadline_seconds=_number("deadline_seconds", float, 0.0),
            budget_invocations=_number("budget_invocations", int, 1),
            budget_seconds=_number("budget_seconds", float, 0.0),
            jobs=_number("jobs", int, 1) or 1,
            isolate=isolate,
            best_effort=bool(payload.get("best_effort", True)),
            certify=bool(payload.get("certify", False)),
            priority=(
                _number("priority", int)
                if payload.get("priority") is not None else 0
            ),
            extras=extras,
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "query": self.query,
            "sql": self.sql,
            "scale": self.scale,
            "seed": self.seed,
            "tenant": self.tenant,
            "deadline_seconds": self.deadline_seconds,
            "budget_invocations": self.budget_invocations,
            "budget_seconds": self.budget_seconds,
            "jobs": self.jobs,
            "isolate": self.isolate,
            "best_effort": self.best_effort,
            "certify": self.certify,
            "priority": self.priority,
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRequest":
        """Rehydrate a journaled request (trusted; no validation)."""
        return cls(**payload)
