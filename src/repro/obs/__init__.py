"""Observability: span tracing, metrics, and trace reporting.

The extraction pipeline is a tower of nested loops — pipeline modules invoke
the black-box application, which executes engine queries — and the paper's
whole evaluation (Figures 8–11) is about where that time and those
invocations go.  This package provides the three layers needed to see it:

* :mod:`repro.obs.trace` — a hierarchical span tracer.  A
  :class:`~repro.obs.trace.Span` covers one unit of work (pipeline run,
  pipeline module, application invocation, engine query) with wall-clock
  timing and free-form tags; finished spans export to JSONL.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms (``invocations_total``, ``rows_scanned_total``,
  ``query_latency_seconds``, …) with a JSON snapshot API.
* :mod:`repro.obs.report` — renders a stored trace as a flame-style
  indented tree plus a top-N slowest-queries table.
* :mod:`repro.obs.provenance` — clause-level evidence recording: every
  probe, mutation, and clause decision of an extraction, with the probe
  chains that established each clause of the emitted SQL (``repro explain``).
* :mod:`repro.obs.ledger` — a durable SQLite run ledger persisting runs,
  modules, clauses, evidence, and metrics incrementally.
* :mod:`repro.obs.diff` — cross-run comparison (``repro trace-diff``):
  clause-by-clause SQL deltas, per-module self-time and invocation-count
  regressions, cache hit-rate drift.

Tracing is **opt-in and zero-cost when off**: every instrumented call site
goes through :data:`~repro.obs.trace.NULL_TRACER` by default, whose
``span()`` returns one shared no-op context manager (no allocation, no
timing, no branching beyond a single ``enabled`` check on hot paths).

Exports are resolved lazily (PEP 562): :mod:`repro.engine.database`
imports :mod:`repro.obs.trace` at module load — isolation workers included —
and an eager package init would drag the ledger, report, provenance and
diff modules in with it.
"""

__all__ = [
    "Counter",
    "EvidenceEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROVENANCE",
    "NULL_TRACER",
    "NullProvenance",
    "NullTracer",
    "ProvenanceRecorder",
    "RunLedger",
    "Span",
    "Tracer",
    "clause_evidence",
    "query_clauses",
    "read_jsonl",
    "render_diff",
    "render_explain",
    "render_trace_report",
]

_EXPORTS = {
    "render_diff": "repro.obs.diff",
    "RunLedger": "repro.obs.ledger",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "NULL_PROVENANCE": "repro.obs.provenance",
    "EvidenceEvent": "repro.obs.provenance",
    "NullProvenance": "repro.obs.provenance",
    "ProvenanceRecorder": "repro.obs.provenance",
    "clause_evidence": "repro.obs.provenance",
    "query_clauses": "repro.obs.provenance",
    "render_explain": "repro.obs.provenance",
    "render_trace_report": "repro.obs.report",
    "NULL_TRACER": "repro.obs.trace",
    "NullTracer": "repro.obs.trace",
    "Span": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "read_jsonl": "repro.obs.trace",
}


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
