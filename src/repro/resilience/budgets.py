"""Resource budgets and the extraction watchdog.

UNMASQUE's probe loop is open-ended: a pathological hidden application (or a
pathological synthetic database) can drive the pipeline into unbounded
invocation counts, giant scans, or runaway data generation.  A
:class:`ResourceBudget` caps four resources — application invocations, engine
rows scanned, synthetic-DB cells materialized, and wall-clock time — and
raises :class:`~repro.errors.BudgetExhausted` the moment any limit is hit.

Charging is cooperative and cheap: the session charges invocations and cells
at its own choke points, the engine charges rows scanned from the executor's
scan profile, and the wall-clock check piggybacks on the engine's existing
deadline poll (:meth:`~repro.engine.database.Database.check_deadline`), so
even a module stuck inside one giant scan is cut off within a tick of the
wall-clock limit.

``BudgetExhausted`` is a non-transient :class:`~repro.errors.ReproError`:
the retry layer never retries it, and the pipeline's best-effort path records
it as a degradation (or fails fast), so budget exhaustion always terminates
with a structured outcome rather than a hang.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import BudgetExhausted


@dataclass(frozen=True)
class BudgetSpec:
    """Declarative per-run limits; ``None`` means unlimited."""

    max_invocations: Optional[int] = None
    max_rows_scanned: Optional[int] = None
    max_cells: Optional[int] = None
    max_seconds: Optional[float] = None

    @classmethod
    def unlimited(cls) -> "BudgetSpec":
        return cls()

    @property
    def enabled(self) -> bool:
        return any(
            limit is not None
            for limit in (
                self.max_invocations,
                self.max_rows_scanned,
                self.max_cells,
                self.max_seconds,
            )
        )


class ResourceBudget:
    """Mutable usage ledger enforcing a :class:`BudgetSpec`.

    The clock is injectable for deterministic tests.  When a metrics registry
    is attached, usage is mirrored into ``budget_*`` gauges and exhaustions
    into the ``budget_exhaustions_total`` counter.
    """

    def __init__(
        self,
        spec: BudgetSpec,
        clock: Callable[[], float] = time.perf_counter,
        metrics=None,
        observer: Optional[Callable[[str, int], None]] = None,
    ):
        self.spec = spec
        self.clock = clock
        self.metrics = metrics
        #: called as ``observer(resource, running_total)`` on every charge —
        #: telemetry only, never enforcement (the serve memory governor's
        #: per-job footprint feed).  Exceptions are swallowed: observability
        #: must not fail an extraction.
        self.observer = observer
        self.invocations = 0
        self.rows_scanned = 0
        self.cells = 0
        self.started_at: Optional[float] = None
        #: the pipeline module running now, named on an exhaustion
        self.module: Optional[str] = None
        self.exhausted: Optional[BudgetExhausted] = None

    @property
    def enabled(self) -> bool:
        return self.spec.enabled

    @property
    def active(self) -> bool:
        """Should charge sites account at all?

        True when limits are set (*enforcing*) or an observer is attached
        (*observing*): an observer-only budget keeps the accounting running
        for telemetry while every ``None`` limit stays unlimited.
        """
        return self.spec.enabled or self.observer is not None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start (or restart) the wall clock; idempotent within a run."""
        if self.started_at is None:
            self.started_at = self.clock()

    def set_module(self, module: Optional[str]) -> None:
        self.module = module

    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        return self.clock() - self.started_at

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock budget left, or ``None`` when unlimited.

        Before :meth:`start` the full limit remains; once the clock runs the
        remainder is clamped at ``0.0`` so callers can use it directly as a
        timeout (see :mod:`repro.resilience.deadlines`).
        """
        limit = self.spec.max_seconds
        if limit is None:
            return None
        if self.started_at is None:
            return limit
        return max(0.0, limit - self.elapsed())

    # -- charging ----------------------------------------------------------

    def charge_invocation(self) -> None:
        if not self.active:
            return
        self.invocations += 1
        self._gauge("budget_invocations_used", self.invocations)
        limit = self.spec.max_invocations
        if limit is not None and self.invocations > limit:
            self._exhaust("invocations", limit, self.invocations)

    def charge_invocations(self, count: int) -> None:
        """Bulk-charge ``count`` invocations (tenant ledgers settling a job)."""
        if not self.active or count <= 0:
            return
        self.invocations += count
        self._gauge("budget_invocations_used", self.invocations)
        limit = self.spec.max_invocations
        if limit is not None and self.invocations > limit:
            self._exhaust("invocations", limit, self.invocations)

    def charge_rows_scanned(self, count: int) -> None:
        if not self.active:
            return
        self.rows_scanned += count
        self._gauge("budget_rows_scanned_used", self.rows_scanned)
        limit = self.spec.max_rows_scanned
        if limit is not None and self.rows_scanned > limit:
            self._exhaust("rows_scanned", limit, self.rows_scanned)

    def charge_cells(self, count: int) -> None:
        if not self.active:
            return
        self.cells += count
        self._gauge("budget_cells_materialized_used", self.cells)
        self._notify("cells", self.cells)
        limit = self.spec.max_cells
        if limit is not None and self.cells > limit:
            self._exhaust("cells", limit, self.cells)

    def check_wall_clock(self) -> None:
        limit = self.spec.max_seconds
        if limit is None or self.started_at is None:
            return
        elapsed = self.elapsed()
        if elapsed > limit:
            self._gauge("budget_wall_seconds_used", elapsed)
            self._exhaust("wall_clock_seconds", limit, round(elapsed, 3))

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Usage vs. limits, for span tags and outcome metadata."""
        spec = self.spec
        return {
            "invocations": self.invocations,
            "rows_scanned": self.rows_scanned,
            "cells_materialized": self.cells,
            "wall_seconds": round(self.elapsed(), 6),
            "limits": {
                "invocations": spec.max_invocations,
                "rows_scanned": spec.max_rows_scanned,
                "cells": spec.max_cells,
                "seconds": spec.max_seconds,
            },
            "exhausted": str(self.exhausted) if self.exhausted else None,
        }

    # -- internals ---------------------------------------------------------

    def _gauge(self, name: str, value) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)

    def _notify(self, resource: str, total: int) -> None:
        if self.observer is None:
            return
        try:
            self.observer(resource, total)
        except Exception:  # noqa: BLE001 — telemetry must never fail a run
            pass

    def _exhaust(self, resource: str, limit, used) -> None:
        error = BudgetExhausted(resource, limit, used, module=self.module)
        if self.exhausted is None:
            self.exhausted = error
        if self.metrics is not None:
            self.metrics.counter("budget_exhaustions_total").inc()
        raise error
