"""Extraction session: silo management, instrumented runs, shared state.

The session owns the *silo* — a clone of the user-supplied database instance
in which all mutations happen (the original is never touched, per §3.2) — and
funnels every black-box invocation through :meth:`run` / :meth:`run_on`, so
invocation counts and per-module wall-clock are recorded for the Figure 9
style breakdowns.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.executable import Executable, InvocationMemo
from repro.core.config import ExtractionConfig
from repro.core.model import ExtractedQuery
from repro.engine.database import Database, PlanCache
from repro.engine.result import Result
from repro.engine.types import NumericDomain, date_to_ordinal
from repro.errors import DatabaseError, ExecutableTimeoutError, ExtractionError
from repro.obs.provenance import NULL_PROVENANCE
from repro.obs.trace import NULL_TRACER
from repro.resilience.budgets import BudgetSpec, ResourceBudget
from repro.resilience.deadlines import worker_timeout
from repro.resilience.retry import RetryPolicy
from repro.sgraph.schema_graph import ColumnNode, SchemaGraph


@dataclass
class ModuleStats:
    """Wall-clock and invocation accounting for one pipeline module.

    ``seconds`` is *self* time: when modules nest (e.g. the §7 HAVING
    pipeline re-entering ``filters``), the inner module's wall-clock is
    subtracted from the outer one, so no second is ever attributed to two
    modules and :attr:`ExtractionStats.total_seconds` never double-counts.
    """

    seconds: float = 0.0
    invocations: int = 0


@dataclass
class ExtractionStats:
    """Aggregated run statistics, keyed by pipeline module name."""

    modules: dict[str, ModuleStats] = field(default_factory=dict)
    #: invocations re-attempted after a retryable failure
    retries: int = 0
    #: invocations that ended in a timeout (before any retry succeeded)
    invocation_timeouts: int = 0

    def module(self, name: str) -> ModuleStats:
        return self.modules.setdefault(name, ModuleStats())

    @property
    def total_seconds(self) -> float:
        return sum(m.seconds for m in self.modules.values())

    @property
    def total_invocations(self) -> int:
        return sum(m.invocations for m in self.modules.values())

    def breakdown(self) -> dict[str, float]:
        return {name: stats.seconds for name, stats in self.modules.items()}


class ExtractionSession:
    """Shared context threaded through all pipeline modules."""

    def __init__(
        self,
        db: Database,
        executable: Executable,
        config: ExtractionConfig,
        tracer=None,
        provenance=None,
    ):
        self.config = config
        self.executable = executable
        self.rng = random.Random(config.seed)
        self.stats = ExtractionStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: clause-level evidence recorder; defaults to the shared no-op.
        self.provenance = (
            provenance if provenance is not None else NULL_PROVENANCE
        )
        #: applied around every black-box invocation; its jitter RNG is
        #: seeded independently of :attr:`rng` so retries never shift the
        #: extraction's probe sequence.
        self.retry = RetryPolicy(
            max_attempts=config.retry_max_attempts,
            base_delay=config.retry_base_delay,
            max_delay=config.retry_max_delay,
            jitter=config.retry_jitter,
            retry_timeouts=config.retry_timeouts,
            seed=config.seed ^ 0x5EED5EED,
        )
        self._current_module = "setup"
        #: per-open-module accumulators of nested-module wall-clock, used to
        #: attribute self time only (see :class:`ModuleStats`)
        self._module_frames: list[float] = []

        # Capture key metadata from the ORIGINAL catalog before the silo has
        # its constraints dropped.
        self.schema_graph = SchemaGraph(db.catalog)
        self.key_columns: dict[str, set[str]] = {
            schema.name.lower(): schema.key_columns() for schema in db.catalog
        }

        #: identifies the (instance, configuration) pair a checkpoint belongs
        #: to; the executable is deliberately excluded so a crashed chaos run
        #: can be resumed with a clean executable.
        self.checkpoint_fingerprint = {
            "tables": sorted(schema.name.lower() for schema in db.catalog),
            "total_rows": db.total_rows(),
            "seed": config.seed,
            "extract_having": config.extract_having,
            "extract_disjunctions": config.extract_disjunctions,
        }

        # The silo: all extraction work happens on this clone.  It carries
        # the session tracer so engine queries and application invocations
        # nest under the active module span.
        self.silo = db.clone()
        self.silo.tracer = self.tracer
        # Size the silo's parse/plan cache from config (0 disables it); the
        # version clock carried over from construction keeps DDL invalidation
        # exact across sandbox snapshot/restore cycles.  A shared cross-job
        # cache (serve layer) replaces the private one: the scoped view
        # widens every key with the catalog-content digest, so jobs from
        # different lineages can never alias plans.
        if config.shared_plan_cache is not None:
            from repro.engine.database import ScopedPlanCache

            self.silo.plan_cache = ScopedPlanCache(
                config.shared_plan_cache,
                self.silo,
                scope=config.plan_cache_scope or "session",
            )
        else:
            self.silo.plan_cache = (
                PlanCache(config.plan_cache_size)
                if config.plan_cache_size > 0
                else None
            )
        self.silo.drop_constraints()

        #: resource watchdog (invocations / rows scanned / cells / wall-clock);
        #: attached to the silo only when limits are set, keeping the
        #: unbudgeted engine fast path untouched.
        self.budget = ResourceBudget(
            BudgetSpec(
                max_invocations=config.budget_invocations,
                max_module_invocations=config.budget_module_invocations,
                max_rows_scanned=config.budget_rows_scanned,
                max_cells=config.budget_cells,
                max_seconds=config.budget_seconds,
            ),
            metrics=self.tracer.metrics,
            observer=config.resource_observer,
        )
        if self.budget.active:
            self.silo.budget = self.budget

        #: the sandbox reference state: D_I as prepared for extraction
        #: (constraints dropped).  Every module boundary — success, failure,
        #: or crash-unwind — restores the silo to this token, making the
        #: paper's §3.2 "D_I is restored" assumption a checked invariant.
        self.di_snapshot = self.silo.snapshot()
        self.di_fingerprint = self.di_snapshot.fingerprint()
        self.checkpoint_fingerprint["di_fingerprint"] = self.di_fingerprint

        # Per-column value samples from the ORIGINAL instance, captured before
        # minimization shreds the silo.  The checker seeds its randomized
        # verification databases with these, so value regions the extraction
        # never probed (e.g. a dropped disjunct's constant) still get
        # exercised.
        self.di_samples: dict[ColumnNode, list] = {}
        for schema in db.catalog:
            rows = db.rows(schema.name)[:256]
            for index, column in enumerate(schema.columns):
                node = ColumnNode(schema.name.lower(), column.name.lower())
                values = []
                seen = set()
                for row in rows:
                    value = row[index]
                    if value is None or value in seen:
                        continue
                    seen.add(value)
                    values.append(value)
                    if len(values) >= 16:
                        break
                self.di_samples[node] = values

        #: invocation isolation backend; ``None`` keeps the in-process fast
        #: path byte-identical.  Constructed eagerly so an unpicklable
        #: executable fails at session creation with a named error, not as a
        #: dead worker mid-extraction.
        self.backend = None
        if config.isolate in ("process", "remote"):
            from repro.isolation.backend import ProcessIsolationBackend

            if config.isolate == "remote" and not config.worker_peers:
                raise ExtractionError(
                    "isolate='remote' requires worker_peers "
                    "(host:port worker-agent addresses)"
                )
            self.backend = ProcessIsolationBackend(
                executable, config, tracer=self.tracer, budget=self.budget
            )
        elif config.isolate != "none":
            raise ExtractionError(
                f"unknown isolation backend {config.isolate!r} "
                "(expected 'none', 'process', or 'remote')"
            )

        #: invocation memo: replayed database states skip the physical
        #: execution for pure executables.  Attached to the executable (the
        #: single funnel every run passes through, in-process or on the
        #: supervisor side of the isolation backend); explicitly reset to
        #: None otherwise so a previous session's memo never leaks in.
        self.memo: Optional[InvocationMemo] = None
        if config.invocation_cache and executable.cacheable:
            self.memo = InvocationMemo(capacity=config.invocation_cache_size)
        executable.memo = self.memo

        #: probe scheduler (``--jobs``); with jobs=1 it is a pass-through
        #: that never allocates threads.
        from repro.sched.scheduler import ProbeScheduler

        self.scheduler = ProbeScheduler(self)

        # Populated as the pipeline advances:
        self.query = ExtractedQuery()
        self.initial_result: Optional[Result] = None
        #: the single-row minimal database D^1: table -> row tuple
        self.d1: dict[str, tuple] = {}
        self.baseline_result: Optional[Result] = None
        #: count(*)-HAVING support (§7): every probe database physically
        #: replicates the designated table's rows this many times, so all
        #: probe groups meet the discovered count lower bound while the rest
        #: of the pipeline keeps reasoning about single logical rows.
        self.probe_multiplier: int = 1
        self.multiplier_table: Optional[str] = None
        #: extra value-range guards consulted by SValueSource (HAVING
        #: pipeline): probe values for these columns stay inside the given
        #: (lo, hi) so every synthetic group satisfies the discovered HAVING
        #: bounds by construction.
        self.svalue_guards: dict[ColumnNode, tuple] = {}

    # -- module timing -----------------------------------------------------

    @contextmanager
    def module(self, name: str):
        """Attribute wall-clock and invocations to a pipeline module.

        Opens a ``module`` span on the session tracer and records *self*
        wall-clock: if another module runs nested inside this one, its
        elapsed time is charged to itself only, never to both.
        """
        previous = self._current_module
        self._current_module = name
        self.budget.set_module(name)
        self._module_frames.append(0.0)
        started = time.perf_counter()
        try:
            with self.tracer.span(name, kind="module", tags={"module": name}):
                yield
        except DatabaseError as error:
            # Engine errors the module did not consume as signals are bugs in
            # the module's dialogue with the engine; surface them with the
            # module name attached (nested modules wrap at the innermost
            # boundary only — the re-raise is already an ExtractionError).
            raise ExtractionError(
                f"unexpected engine error in module {name!r}: {error}",
                module=name,
            ) from error
        finally:
            elapsed = time.perf_counter() - started
            nested = self._module_frames.pop()
            self.stats.module(name).seconds += max(0.0, elapsed - nested)
            if self._module_frames:
                self._module_frames[-1] += elapsed
            self._current_module = previous
            self.budget.set_module(previous)
            # Persist evidence at every module boundary so a crashed run's
            # ledger keeps the history up to the module it died in.
            self.provenance.flush()

    # -- black-box invocation ------------------------------------------------

    def run(self, timeout: Optional[float] = None) -> Result:
        """Invoke the application on the silo's current contents.

        The session's :class:`~repro.resilience.retry.RetryPolicy` is applied
        here — the single funnel every pipeline probe passes through — so a
        transient invocation failure (and, with ``retry_timeouts``, a
        spurious hang) is re-attempted with exponential backoff before any
        module ever sees it.  Fatal errors (engine signals like
        ``UndefinedTableError``) propagate on the first attempt.

        Each attempt runs inside a silo sandbox: whatever DML the black box
        issues — including partial writes cut off by a timeout — is rolled
        back before the next attempt or before control returns, so probes
        always observe exactly the state the module set up.
        """
        module_stats = self.stats.module(self._current_module)
        policy = self.retry
        attempt = 1
        while True:
            module_stats.invocations += 1
            self.budget.charge_invocation()
            token = self.silo.snapshot()
            try:
                result = self._invoke(timeout)
                if self.provenance.enabled:
                    self._record_probe_event(result, None)
                return result
            except Exception as error:
                if self.provenance.enabled:
                    self._record_probe_event(None, error)
                timed_out = isinstance(error, ExecutableTimeoutError)
                if timed_out:
                    self._record_timeout()
                    # A timeout induced by the wall-clock budget (the
                    # remaining budget was the tightest deadline when the
                    # worker was killed) must surface as the structured
                    # BudgetExhausted, not as a retryable hang.
                    self.budget.check_wall_clock()
                if (
                    policy.max_attempts <= attempt
                    or not policy.is_retryable(error)
                ):
                    raise
                self._record_retry(attempt, error)
                policy.sleep(policy.backoff(attempt))
                attempt += 1
            finally:
                self.silo.restore(token)

    def _invoke(self, timeout: Optional[float]) -> Result:
        if self.backend is not None:
            # Out-of-process: the worker replica arms its own cooperative
            # deadline and the supervisor enforces the hard one; the local
            # silo is never executed against.  The supervisor's timeout is
            # composed tightest-wins with the remaining wall-clock budget so
            # a hung worker cannot outlive a job deadline by more than
            # ``kill_grace`` (see resilience/deadlines.py for the full
            # precedence stack).
            effective = worker_timeout(
                timeout,
                self.budget.remaining_seconds(),
                self.config.worker_default_timeout,
            )
            return self.backend.invoke(self.silo, effective)
        if timeout is not None:
            self.silo.deadline = time.perf_counter() + timeout
            try:
                return self.executable.run(self.silo, timeout=timeout)
            finally:
                self.silo.deadline = None
        return self.executable.run(self.silo)

    def close(self) -> None:
        """Release external resources (worker processes); idempotent.

        The backend object stays referenced after close so callers (the
        chaos CLI's survival report) can still read its pool statistics.
        """
        self.scheduler.close()
        if self.backend is not None:
            self.backend.close()

    def cache_stats(self) -> dict:
        """Plan-cache / invocation-memo / scheduler statistics for reports."""
        stats: dict = {"scheduler": self.scheduler.stats_dict()}
        stats["scheduler"]["jobs"] = self.scheduler.jobs
        if self.silo.plan_cache is not None:
            stats["plan_cache"] = self.silo.plan_cache.stats()
        if self.memo is not None:
            stats["invocation_cache"] = self.memo.stats()
        workers = self.worker_stats()
        if workers is not None:
            stats["workers"] = workers
        return stats

    def worker_stats(self) -> Optional[dict]:
        """Isolation worker-pool lifetime counters, or None when in-process."""
        if self.backend is None:
            return None
        pool = self.backend.pool
        return {
            "invocations": pool.stats.invocations,
            "crashes": pool.stats.crashes,
            "kills": pool.stats.kills,
            "restarts": pool.stats.restarts,
            "respawns": pool.respawns,
            "quarantined": int(pool.quarantine_error is not None),
            "rss_peak_bytes": pool.stats.rss_peak_bytes,
        }

    def _record_probe_event(self, result, error) -> None:
        """One ``probe`` evidence event per logical invocation attempt.

        The cache/fingerprint facts are read back from the invocation info
        the executable left on the probe database, so no fingerprint is ever
        computed twice.  Mirrors the exactly-once schedule of
        ``module_stats.invocations``: retries and memo hits are recorded,
        nothing else is.
        """
        info = getattr(self.silo, "last_invocation", None) or {}
        self.provenance.probe(
            self._current_module,
            rows=result.row_count if result is not None else None,
            error=type(error).__name__ if error is not None else "",
            cached=bool(info.get("cached")),
            isolated=self.backend is not None,
            db_fingerprint=str(info.get("fingerprint") or ""),
        )

    def _record_timeout(self) -> None:
        self.stats.invocation_timeouts += 1
        if self.tracer.metrics is not None:
            self.tracer.metrics.counter("invocation_timeouts_total").inc()
        if self.tracer.enabled:
            span = self.tracer.current
            if span is not None:
                span.set_tag("timed_out", True)

    def _record_retry(self, attempt: int, error: Exception) -> None:
        self.stats.retries += 1
        if self.tracer.metrics is not None:
            self.tracer.metrics.counter("retries_total").inc()
        if self.tracer.enabled:
            span = self.tracer.current
            if span is not None:
                span.tags["retries"] = span.tags.get("retries", 0) + 1
                span.set_tag("last_retried_error", type(error).__name__)

    def run_on(self, rows_by_table: dict[str, list[tuple]]) -> Result:
        """Invoke the application on a transient database state.

        ``rows_by_table`` replaces the named tables' contents for the duration
        of the run; the sandbox restores everything afterwards, so the silo's
        resident state (usually ``D^1``) is preserved.
        """
        with self.silo.sandbox():
            for name, rows in rows_by_table.items():
                rows = self._with_multiplier(name, rows)
                self._charge_cells(name, rows)
                self.silo.replace_rows(name, rows)
            return self.run()

    def _charge_cells(self, table: str, rows: list[tuple]) -> None:
        """Charge materialized synthetic cells (rows × columns) to the budget."""
        if self.budget.active and rows:
            self.budget.charge_cells(
                len(rows) * len(self.silo.schema(table).columns)
            )

    def _with_multiplier(self, table: str, rows: list[tuple]) -> list[tuple]:
        if self.probe_multiplier > 1 and table.lower() == self.multiplier_table:
            return list(rows) * self.probe_multiplier
        return rows

    def run_on_d1_mutation(
        self, table: str, mutations: dict[str, object]
    ) -> Result:
        """Run against ``D^1`` with some columns of one table's row replaced."""
        schema = self.silo.schema(table)
        row = list(self.d1[table.lower()])
        for column, value in mutations.items():
            row[schema.column_index(column)] = value
        return self.run_on({table.lower(): [tuple(row)]})

    # -- D^1 helpers ---------------------------------------------------------

    def set_d1(self, rows_by_table: dict[str, tuple]) -> None:
        """Install the single-row minimal database into the silo."""
        self.d1 = {name.lower(): row for name, row in rows_by_table.items()}
        for name, row in self.d1.items():
            rows = self._with_multiplier(name, [row])
            self._charge_cells(name, rows)
            self.silo.replace_rows(name, rows)

    def d1_value(self, column: ColumnNode):
        schema = self.silo.schema(column.table)
        return self.d1[column.table][schema.column_index(column.column)]

    def update_d1(self, table: str, mutations: dict[str, object]) -> None:
        """Persistently mutate ``D^1`` (used when refreshing s-values)."""
        schema = self.silo.schema(table)
        row = list(self.d1[table.lower()])
        for column, value in mutations.items():
            row[schema.column_index(column)] = value
        self.d1[table.lower()] = tuple(row)
        rows = self._with_multiplier(table, [tuple(row)])
        self._charge_cells(table, rows)
        self.silo.replace_rows(table, rows)

    # -- sandbox invariant ---------------------------------------------------

    def restore_silo_to_di(self) -> None:
        """Restore the silo to D_I (undoes DML *and* DDL since session start).

        The pipeline calls this at every step boundary and in its terminal
        ``finally``, so the silo is provably back at D_I whether a module
        succeeded, degraded, or crashed mid-flight.
        """
        self.silo.restore(self.di_snapshot)

    def materialize_resident(self) -> None:
        """Re-install the resident probe state (D^1) after a D_I restore.

        The standard pipeline's persistent silo state is fully determined by
        ``(D_I, d1, probe_multiplier)``; once minimization has produced D^1,
        re-materializing it from the recorded rows reproduces exactly what
        the next module expects.
        """
        if self.d1:
            self.set_d1(dict(self.d1))

    def silo_matches_di(self) -> bool:
        """True when the live silo is byte-identical to D_I."""
        return self.silo.fingerprint() == self.di_fingerprint

    # -- metadata helpers ---------------------------------------------------

    def is_key_column(self, column: ColumnNode) -> bool:
        return column.column in self.key_columns.get(column.table, set())

    def table_columns(self, table: str) -> list[ColumnNode]:
        schema = self.silo.schema(table)
        return [ColumnNode(table.lower(), col.name.lower()) for col in schema.columns]

    def nonkey_columns(self, table: str) -> list[ColumnNode]:
        return [c for c in self.table_columns(table) if not self.is_key_column(c)]

    def column_type(self, column: ColumnNode):
        return self.silo.schema(column.table).column(column.column).type

    def column_domain(self, column: ColumnNode) -> NumericDomain:
        col_type = self.column_type(column)
        domain = getattr(col_type, "domain", None)
        if domain is None:
            raise ValueError(f"column {column} has no numeric domain")
        return domain

    def all_query_columns(self) -> list[ColumnNode]:
        columns: list[ColumnNode] = []
        for table in self.query.tables:
            columns.extend(self.table_columns(table))
        return columns
