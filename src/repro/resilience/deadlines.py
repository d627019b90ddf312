"""Deadline precedence: composing the stack of wall-clock limits.

Four layers can bound how long extraction work is allowed to run, and a
multi-tenant service composes all of them at once:

1. **Job deadline** — ``repro serve`` accepts a per-job ``deadline_seconds``
   at admission; the remaining share (deadline minus time already spent
   queued or in earlier attempts) is folded into layer 2 when the job runs.
2. **Budget wall-clock** — :class:`~repro.resilience.budgets.BudgetSpec.
   max_seconds`; enforced cooperatively by the engine's deadline poll
   (:class:`~repro.errors.BudgetExhausted` is the structured outcome).
3. **Cooperative invocation timeout** — the per-invocation ``timeout`` a
   module passes to :meth:`~repro.core.session.ProbeSurface.run` (e.g. the
   From-clause extractor's probe timeout); arms the engine deadline inside
   the invocation and rolls partial DML back.
4. **Worker SIGKILL deadline** — under ``--isolate process`` the supervisor
   kills a worker that has not replied by *cooperative timeout* +
   ``kill_grace`` (or ``worker_default_timeout`` + ``kill_grace`` when no
   cooperative timeout applies).  This is the only layer that stops a
   busy-looping application.

The composition rule is **tightest wins** among the layers that *apply*:

* the budget wall-clock is the tightest of the job deadline share and the
  configured budget (:func:`budget_wall_seconds`);
* a caller-supplied invocation timeout is capped by the remaining budget
  wall-clock (:func:`cooperative_timeout`);
* the worker's hard deadline is the cooperative timeout when one applies;
  an open-ended invocation (no caller timeout) falls back to the *tightest*
  of the remaining budget and the worker default backstop
  (:func:`worker_timeout`) — so a hung worker can never outlive the job
  deadline by more than ``kill_grace``;
* ``kill_grace`` is always *added* to whichever cooperative deadline won,
  so clean engine-side timeouts win the race and SIGKILL only fires on
  real hangs (:func:`hard_kill_deadline`).

Every pairing is unit-tested in ``tests/test_deadlines.py`` and the
precedence table is documented in DESIGN.md §5.16.
"""

from __future__ import annotations

from typing import Optional


def tightest(*limits: Optional[float]) -> Optional[float]:
    """The smallest non-``None`` limit, or ``None`` when none applies."""
    applicable = [limit for limit in limits if limit is not None]
    return min(applicable) if applicable else None


def budget_wall_seconds(
    job_deadline_seconds: Optional[float],
    configured_budget_seconds: Optional[float],
) -> Optional[float]:
    """Layer 1 → layer 2: the wall-clock budget a job runs under.

    The tightest of the job's remaining admission deadline and the
    service/CLI-configured ``budget_seconds``; ``None`` when neither is set.
    """
    return tightest(job_deadline_seconds, configured_budget_seconds)


def cooperative_timeout(
    caller_timeout: Optional[float],
    remaining_budget_seconds: Optional[float],
) -> Optional[float]:
    """Layer 2 → layer 3: the effective cooperative invocation timeout.

    A module's per-invocation timeout never extends past the remaining
    wall-clock budget; with no caller timeout the remaining budget itself
    becomes the cooperative bound (and ``None`` means unbounded).
    """
    return tightest(caller_timeout, remaining_budget_seconds)


def worker_timeout(
    caller_timeout: Optional[float],
    remaining_budget_seconds: Optional[float],
    default_timeout: float,
) -> Optional[float]:
    """Layer 3 → layer 4: the timeout the isolation supervisor enforces.

    * caller gave a timeout → it wins, capped by the remaining budget;
    * caller gave none → the worker default backstop applies, capped by the
      remaining budget;
    * nothing applies → ``None`` (the pool substitutes its own default).

    The returned value is what :meth:`WorkerPool.invoke` treats as the
    invocation timeout; SIGKILL fires ``kill_grace`` seconds after it.
    """
    if caller_timeout is not None:
        return tightest(caller_timeout, remaining_budget_seconds)
    if remaining_budget_seconds is not None:
        return tightest(remaining_budget_seconds, default_timeout)
    return None


def hard_kill_deadline(
    caller_timeout: Optional[float],
    remaining_budget_seconds: Optional[float],
    default_timeout: float,
    kill_grace: float,
) -> float:
    """The absolute worst-case seconds before the supervisor SIGKILLs.

    ``kill_grace`` is additive slack on top of whichever cooperative
    deadline won, never a substitute for one.
    """
    effective = worker_timeout(
        caller_timeout, remaining_budget_seconds, default_timeout
    )
    if effective is None:
        effective = default_timeout
    return effective + kill_grace
