"""Deterministic fault injection for black-box invocations.

A :class:`FaultPlan` describes *how often* each fault kind fires; a
:class:`FaultyExecutable` wraps any :class:`~repro.apps.executable.Executable`
and rolls one seeded RNG draw per invocation, so a given ``(plan, seed)``
pair injects the exact same fault sequence on every run — chaos tests are
reproducible and CI can pin a seed.

Fault kinds:

* ``transient`` — raises :class:`~repro.errors.TransientExecutableError`
  *before* the inner application runs (a connection reset / worker crash);
* ``timeout``   — raises :class:`~repro.errors.ExecutableTimeoutError`
  before the inner application runs (a hang cut short by the caller);
* ``empty``     — runs the application but discards all result rows (a
  byzantine half-failure; retries cannot detect this, the checker can);
* ``latency``   — sleeps briefly before a normal run (a latency spike).

Two *hard* fault kinds model failures no in-process mechanism survives —
only the ``--isolate process`` worker pool does:

* ``hang``  — a genuine busy-loop that ignores the cooperative engine
  deadline (bounded by ``hang_seconds`` so an accidental in-process draw
  cannot freeze a test run forever); the isolation supervisor SIGKILLs it at
  the hard deadline;
* ``crash`` — ``os.abort()``: takes the hosting process down with SIGABRT.
  In a worker that is a classified, retryable crash; in-process it kills the
  extraction itself.

Hard-fault draws are keyed on the *supervisor's* invocation ordinal (one
fresh ``random.Random`` per ordinal, independent of the soft-fault stream):
a respawned worker's replayed counters do not replay the fault sequence, and
a retried invocation gets a fresh draw — which is what lets a chaos run
converge instead of re-crashing on the same probe forever.

``crash_at`` injects one hard, *non-retryable* crash
(:class:`InjectedCrashError`, deliberately outside the ``ReproError``
hierarchy) at an exact invocation number — the test harness's stand-in for
``kill -9``, used to exercise checkpoint/resume.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.apps.executable import Executable
from repro.engine.database import Database
from repro.engine.result import Result
from repro.errors import ExecutableTimeoutError, TransientExecutableError


class InjectedCrashError(Exception):
    """A simulated hard crash (process kill) — intentionally not a ReproError,
    so no layer of the pipeline retries or degrades it."""


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded chaos profile.

    Rates are per-invocation probabilities; their sum must not exceed 1.
    ``activate_after`` suppresses probabilistic faults for the first N
    invocations (useful to target a specific pipeline phase);
    ``crash_at`` fires exactly once, at that invocation number.
    """

    name: str = "custom"
    transient_rate: float = 0.0
    timeout_rate: float = 0.0
    empty_result_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 0.001
    #: hard-fault rates (per-ordinal draws, see :meth:`draw_hard`)
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    crash_rate: float = 0.0
    seed: int = 1337
    activate_after: int = 0
    crash_at: Optional[int] = None

    def __post_init__(self):
        total = (
            self.transient_rate
            + self.timeout_rate
            + self.empty_result_rate
            + self.latency_rate
        )
        if not 0.0 <= total <= 1.0:
            raise ValueError(f"fault rates of plan {self.name!r} sum to {total}")
        if not 0.0 <= self.hang_rate + self.crash_rate <= 1.0:
            raise ValueError(
                f"hard-fault rates of plan {self.name!r} sum to "
                f"{self.hang_rate + self.crash_rate}"
            )

    def with_seed(self, seed: int) -> "FaultPlan":
        return dataclasses.replace(self, seed=seed)

    def draw(self, rng: random.Random) -> Optional[str]:
        """One fault decision; exactly one RNG draw regardless of outcome."""
        u = rng.random()
        for kind, rate in (
            ("transient", self.transient_rate),
            ("timeout", self.timeout_rate),
            ("empty", self.empty_result_rate),
            ("latency", self.latency_rate),
        ):
            if u < rate:
                return kind
            u -= rate
        return None

    def draw_hard(self, ordinal: int) -> Optional[str]:
        """The hard-fault decision for one invocation ordinal.

        Deterministic per ``(seed, ordinal)`` and *stateless*: unlike
        :meth:`draw`, which consumes one shared RNG stream, each ordinal gets
        an independent draw.  That keeps the soft-fault stream untouched
        (existing profiles inject identical sequences) and survives worker
        respawns — the ordinal is assigned by the supervisor, so a fresh
        worker continues the sequence instead of replaying it.
        """
        if self.hang_rate <= 0.0 and self.crash_rate <= 0.0:
            return None
        u = random.Random((self.seed << 20) ^ ordinal).random()
        if u < self.crash_rate:
            return "crash"
        if u < self.crash_rate + self.hang_rate:
            return "hang"
        return None

    @property
    def injects_timeouts(self) -> bool:
        # A hang surfaces as a (hard) timeout to the caller, so surviving a
        # hang profile needs timeout retries just like the soft kind.
        return self.timeout_rate > 0.0 or self.hang_rate > 0.0


#: Named profiles for the ``repro chaos`` command and the chaos test suite.
FAULT_PROFILES: dict[str, FaultPlan] = {
    # No faults at all — a control run through the chaos harness.
    "calm": FaultPlan(name="calm"),
    # The acceptance profile: >=10% transient invocation failures.
    "transient": FaultPlan(name="transient", transient_rate=0.10),
    # Transient failures plus latency spikes.
    "flaky": FaultPlan(
        name="flaky", transient_rate=0.10, latency_rate=0.05, latency_seconds=0.001
    ),
    # Spurious hangs; survivable with ``retry_timeouts`` enabled.
    "timeouts": FaultPlan(name="timeouts", timeout_rate=0.10),
    # Heavy weather: everything at once.
    "storm": FaultPlan(
        name="storm",
        transient_rate=0.20,
        timeout_rate=0.05,
        latency_rate=0.05,
        latency_seconds=0.001,
    ),
    # Wrong-but-well-formed answers.  Retries cannot catch silently empty
    # results — extraction may diverge; the checker is the backstop.
    "byzantine": FaultPlan(name="byzantine", transient_rate=0.05, empty_result_rate=0.02),
    # Hard faults: survivable only under ``--isolate process``.  Rates are
    # kept low so the probability of K consecutive draws (which would
    # legitimately quarantine the executable) is negligible over a run.
    "hang": FaultPlan(name="hang", hang_rate=0.02, hang_seconds=30.0),
    "crash": FaultPlan(name="crash", crash_rate=0.03),
}

#: profiles whose faults kill the hosting process or defeat cooperative
#: deadlines — the chaos CLI refuses to run these without ``--isolate process``
HARD_FAULT_PROFILES = frozenset(
    name
    for name, plan in FAULT_PROFILES.items()
    if plan.hang_rate > 0.0 or plan.crash_rate > 0.0
)


class FaultyExecutable(Executable):
    """Wraps an executable and injects faults per a :class:`FaultPlan`.

    The wrapper is the invocation: :meth:`Executable.run` accounts every
    attempt (its span, counters and metrics), and an injected
    transient/timeout fault aborts it before the inner application runs,
    exactly like an infrastructure failure in front of a real deployment.
    """

    def __init__(self, inner: Executable, plan: FaultPlan):
        super().__init__()
        self.inner = inner
        self.plan = plan
        self.name = f"chaos({inner.name})"
        self._rng = random.Random(plan.seed)
        #: invocations started so far: ``crash_at`` and the hard draws key
        #: on the N-th invocation to start, while ``invocation_count`` only
        #: moves when one ends
        self.started = 0
        #: injected fault counts by kind, for survival reports
        self.injected: dict[str, int] = {
            "transient": 0,
            "timeout": 0,
            "empty": 0,
            "latency": 0,
            "hang": 0,
            "crash": 0,
        }

    def _execute(self, db: Database, timeout: Optional[float]) -> Result:
        with self._counter_lock:
            self.started += 1
            started = self.started
        if self.plan.crash_at is not None and started == self.plan.crash_at:
            raise InjectedCrashError(f"injected crash at invocation {started}")
        if started > self.plan.activate_after:
            # Inside an isolation worker the supervisor ships its global
            # ordinal; in-process, the local count is the same sequence.
            ordinal = getattr(self, "invocation_ordinal", None)
            hard = self.plan.draw_hard(ordinal if ordinal is not None else started)
            if hard == "crash":
                self.injected["crash"] += 1
                import os

                os.abort()  # SIGABRT: kills the hosting process for real
            if hard == "hang":
                self.injected["hang"] += 1
                # A true busy-loop: never polls the cooperative deadline, so
                # only an out-of-process SIGKILL can cut it short.  Bounded
                # by hang_seconds as a safety net for in-process draws.
                end = time.perf_counter() + self.plan.hang_seconds
                while time.perf_counter() < end:
                    pass
                raise ExecutableTimeoutError(
                    f"injected hang outlived its {self.plan.hang_seconds}s "
                    f"bound (invocation {started})"
                )
        kind = None
        if started > self.plan.activate_after:
            kind = self.plan.draw(self._rng)
        if kind == "transient":
            self.injected["transient"] += 1
            raise TransientExecutableError(
                f"injected transient fault (invocation {started})"
            )
        if kind == "timeout":
            self.injected["timeout"] += 1
            raise ExecutableTimeoutError(
                f"injected timeout (invocation {started})"
            )
        if kind == "latency":
            self.injected["latency"] += 1
            time.sleep(self.plan.latency_seconds)
        result = self.inner._execute(db, timeout)
        if kind == "empty":
            self.injected["empty"] += 1
            return Result(result.columns, [])
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultyExecutable plan={self.plan.name} seed={self.plan.seed}>"
