"""Fault tolerance for long extractions.

Extraction is active learning against a black box (paper §3): thousands of
application invocations, any of which can fail transiently, hang, or return
garbage in a production deployment.  This package makes the pipeline survive
that reality:

* :mod:`repro.resilience.faults` — a seeded, deterministic chaos layer
  (:class:`FaultPlan` profiles + :class:`FaultyExecutable` wrapper) used by
  tests and the ``repro chaos`` CLI command to *prove* survival;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`: exponential backoff
  with seeded jitter and retryable-vs-fatal classification over the
  :mod:`repro.errors` hierarchy, applied at the
  :class:`~repro.core.session.ExtractionSession` invocation boundary;
* :mod:`repro.resilience.checkpoint` — per-module checkpoint/resume: the
  pipeline serialises its partial :class:`~repro.core.model.ExtractedQuery`
  plus session state after every module, so a killed run restarts from the
  last completed module instead of from zero;
* :mod:`repro.resilience.serde` — the JSON codec for extraction state
  (filters, scalar functions, results, D^1 rows, RNG state);
* :mod:`repro.resilience.budgets` — :class:`ResourceBudget` watchdog
  enforcing per-run limits (invocations, rows scanned,
  synthetic cells, wall-clock) with a structured
  :class:`~repro.errors.BudgetExhausted` that flows into degradation;
* :mod:`repro.resilience.diskfaults` / :mod:`repro.resilience.netfaults` —
  seeded storage and wire fault injectors;
* :mod:`repro.resilience.chaos` — the one survival-matrix runner behind the
  ``disk``, ``net`` and ``serve-kill`` chaos profiles: an inline baseline,
  one row per (fault class × site) cell, a SURVIVED/DIVERGED verdict and a
  ``<profile>_chaos_matrix.json`` report.

Best-effort degradation (recording a failed non-essential module instead of
aborting) lives in :mod:`repro.core.pipeline`, gated by
``ExtractionConfig.fail_fast``.

Exports are resolved lazily (PEP 562): dependency-free submodules like
:mod:`repro.resilience.diskfaults` are imported by :mod:`repro.obs` while
the engine is still initializing, and an eager ``faults`` import here would
close that cycle on a half-initialized module.
"""

__all__ = [
    "BudgetSpec",
    "CheckpointStore",
    "FAULT_PROFILES",
    "FaultPlan",
    "FaultyExecutable",
    "InjectedCrashError",
    "ResourceBudget",
    "RetryPolicy",
    "restore_session",
    "snapshot_session",
]

_EXPORTS = {
    "BudgetSpec": ("repro.resilience.budgets", "BudgetSpec"),
    "ResourceBudget": ("repro.resilience.budgets", "ResourceBudget"),
    "CheckpointStore": ("repro.resilience.checkpoint", "CheckpointStore"),
    "restore_session": ("repro.resilience.checkpoint", "restore_session"),
    "snapshot_session": ("repro.resilience.checkpoint", "snapshot_session"),
    "FAULT_PROFILES": ("repro.resilience.faults", "FAULT_PROFILES"),
    "FaultPlan": ("repro.resilience.faults", "FaultPlan"),
    "FaultyExecutable": ("repro.resilience.faults", "FaultyExecutable"),
    "InjectedCrashError": ("repro.resilience.faults", "InjectedCrashError"),
    "RetryPolicy": ("repro.resilience.retry", "RetryPolicy"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
