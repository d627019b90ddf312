"""Benchmark harness: timed extractions with paper-style reporting.

Each benchmark regenerates the rows/series of one paper table or figure.
Absolute numbers are not comparable to the paper's 100 GB PostgreSQL testbed
(our substrate is an in-memory Python engine at laptop scale); the *shape* —
which module dominates, who wins by what factor, where curves cross — is the
reproduction target, and EXPERIMENTS.md records both sides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.executable import Executable, SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import ExtractionOutcome, run_extraction
from repro.engine.database import Database
from repro.obs.metrics import MetricsRegistry


@dataclass
class ExtractionMeasurement:
    """One timed extraction with its module breakdown."""

    name: str
    total_seconds: float
    breakdown: dict[str, float]
    invocations: int
    native_seconds: float
    outcome: ExtractionOutcome
    #: metrics snapshot from the extraction's registry (queries_total,
    #: rows_scanned_total, latency histograms, …)
    metrics: dict = field(default_factory=dict)

    @property
    def sampler_seconds(self) -> float:
        return self.breakdown.get("sampler", 0.0)

    @property
    def minimizer_seconds(self) -> float:
        return self.breakdown.get("minimizer", 0.0)

    @property
    def rest_seconds(self) -> float:
        return self.total_seconds - self.sampler_seconds - self.minimizer_seconds

    def to_dict(self) -> dict:
        """Machine-readable row for ``benchmarks/results/*.json``."""
        return {
            "name": self.name,
            "total_seconds": round(self.total_seconds, 6),
            "native_seconds": round(self.native_seconds, 6),
            "invocations": self.invocations,
            "breakdown": {
                module: round(seconds, 6)
                for module, seconds in self.breakdown.items()
            },
            "sql": self.outcome.sql,
            "metrics": self.metrics,
        }


def measure_extraction(
    db: Database,
    executable: Executable,
    name: str,
    config: Optional[ExtractionConfig] = None,
) -> ExtractionMeasurement:
    """Run one extraction end-to-end and record its timing profile.

    Extractions run under a span-free tracer (``keep_spans=False``) so every
    measurement carries a metrics snapshot — engine-query counts, rows
    scanned, latency histograms — without accumulating per-span memory.
    """
    config = config or ExtractionConfig()
    executable.reset_counters()

    native_started = time.perf_counter()
    executable.run(db)
    native_seconds = time.perf_counter() - native_started

    registry = MetricsRegistry()
    run = run_extraction(
        db, executable, config, refuse_empty=False, metrics=registry
    )
    return ExtractionMeasurement(
        name=name,
        total_seconds=run.seconds,
        breakdown=run.outcome.stats.breakdown(),
        invocations=run.outcome.stats.total_invocations,
        native_seconds=native_seconds,
        outcome=run.outcome,
        metrics=registry.snapshot(),
    )


def measure_hidden_query(
    db: Database,
    sql: str,
    name: str,
    config: Optional[ExtractionConfig] = None,
) -> ExtractionMeasurement:
    return measure_extraction(db, SQLExecutable(sql, name=name), name, config)


# --- machine-readable payloads ------------------------------------------------


def measurements_payload(measurements: list[ExtractionMeasurement]) -> list[dict]:
    """JSON rows for a breakdown-style benchmark result."""
    return [m.to_dict() for m in measurements]


def series_payload(header: list[str], rows: list[tuple]) -> dict:
    """JSON form of a figure-series table: named columns per row."""
    return {
        "header": list(header),
        "rows": [dict(zip(header, row)) for row in rows],
    }


# --- report rendering ---------------------------------------------------------


def render_breakdown_table(
    title: str, measurements: list[ExtractionMeasurement]
) -> str:
    """A Figure 9 style table: total time + sampler/minimizer/rest split."""
    lines = [title, "-" * len(title)]
    header = (
        f"{'query':<10}{'total(s)':>10}{'sampler':>10}{'minimizer':>11}"
        f"{'rest':>8}{'invocations':>13}{'native(s)':>11}{'ratio':>8}"
    )
    lines.append(header)
    for m in measurements:
        ratio = m.total_seconds / m.native_seconds if m.native_seconds > 0 else float("inf")
        lines.append(
            f"{m.name:<10}{m.total_seconds:>10.3f}{m.sampler_seconds:>10.3f}"
            f"{m.minimizer_seconds:>11.3f}{m.rest_seconds:>8.3f}"
            f"{m.invocations:>13d}{m.native_seconds:>11.3f}{ratio:>8.2f}"
        )
    return "\n".join(lines)


def render_series(title: str, header: list[str], rows: list[tuple]) -> str:
    """A generic figure-series table (e.g. the Figure 11 scaling profile)."""
    lines = [title, "-" * len(title)]
    widths = [max(12, len(h) + 2) for h in header]
    lines.append("".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        rendered = []
        for value, width in zip(row, widths):
            if isinstance(value, float):
                rendered.append(f"{value:.3f}".rjust(width))
            else:
                rendered.append(str(value).rjust(width))
        lines.append("".join(rendered))
    return "\n".join(lines)
