"""The UNMASQUE pipeline orchestrator (paper Figure 3).

``UnmasqueExtractor`` wires the modules in the paper's order:

    From clause → Database minimization → Equi-join predicates →
    Filter predicates → Projections → Group By → Aggregations →
    Order By → Limit → Assembler + Checker

With ``config.extract_having`` set, the restructured §7 pipeline runs
instead: the same modules reordered around two bound steps (see
:mod:`repro.core.having`) —

    From clause → Multi-row minimization → Equi-join predicates →
    HAVING/filter bounds → count(*) bound → Text filters → Projections →
    Group By → Aggregations → Order By → Limit → Checker

Both pipelines are *step lists* run by one loop, which is where the
fault-tolerance behaviours live —

* **checkpoint/resume** — with a ``checkpoint_dir``, the session state is
  serialised after every completed step; a rerun against the same directory
  (and instance/config) skips the completed steps and re-executes only the
  unfinished ones (see :mod:`repro.resilience.checkpoint`);
* **best-effort degradation** — with ``config.fail_fast`` off, a
  *non-essential* step (disjunctions, order by, limit, checker) that fails
  is recorded as a structured :class:`Degradation` on the outcome instead of
  aborting an extraction that already spent thousands of invocations;
* **budgets, quarantine and the out-of-class verdict**, the
  ``sandbox_verify`` invariant check, and the ``step_listener`` /
  ``pause_check`` hooks ``repro serve`` drives.

:func:`run_extraction` is the front door around the extractor: the ``repro``
extraction commands, ``repro serve`` jobs, ``repro bench`` and the chaos
matrices all take it for the empty-result refusal, the tracer, the ledger
run and the one ledger-failure policy.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

logger = logging.getLogger("repro.core.pipeline")

from repro.apps.executable import Executable
from repro.core import (
    aggregates,
    checker,
    eqc_guard,
    filters,
    from_clause,
    groupby,
    having,
    joins,
    limit as limit_module,
    minimizer,
    orderby,
    projections,
)
from repro.core.config import ExtractionConfig
from repro.core.model import ExtractedQuery
from repro.core.session import ExtractionSession, ExtractionStats
from repro.core.svalues import SValueSource
from repro.engine.database import Database
from repro.errors import (
    BudgetExhausted,
    EmptyInitialResult,
    ExtractionError,
    ExtractionPaused,
    ReproError,
    StorageExhausted,
    UnsupportedQueryError,
    UnwritableOutput,
    WorkerQuarantined,
)
from repro.resilience.checkpoint import (
    CheckpointStore,
    restore_session,
    snapshot_session,
)


@dataclass(frozen=True)
class Degradation:
    """One non-essential module that failed and was skipped (best-effort)."""

    module: str
    error: str  # exception class name
    message: str

    def to_dict(self) -> dict:
        return {"module": self.module, "error": self.error, "message": self.message}

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.module}: [{self.error}] {self.message}"


@dataclass
class ExtractionOutcome:
    """Everything an extraction run produces."""

    query: ExtractedQuery
    #: the extracted SQL; "" when there is none to emit (an out-of-class
    #: verdict, or a run stopped before any output was extracted, whose
    #: empty select list would not parse)
    sql: str
    stats: ExtractionStats
    checker_report: Optional[checker.CheckReport]
    #: non-essential modules that failed under best-effort mode
    degradations: list[Degradation] = field(default_factory=list)
    #: modules restored from a checkpoint instead of re-executed
    resumed_modules: list[str] = field(default_factory=list)
    #: "ok", "out_of_class" (EQC guard refused to emit SQL),
    #: "budget_exhausted" (best-effort run stopped by the watchdog), or
    #: "quarantined" (the isolation supervisor refused to keep respawning
    #: workers for an executable that crashes them)
    verdict: str = "ok"
    #: out-of-class evidence, when the EQC guard ran
    eqc: Optional[eqc_guard.EqcReport] = None
    #: resource usage vs. limits, when a budget was configured
    budget: Optional[dict] = None
    #: scheduler / plan-cache / invocation-memo statistics for this run
    caches: Optional[dict] = None
    #: bounded symbolic verifier report (``repro.veriq``), when certification
    #: ran: verdict "certificate" / "counterexample" / "unsupported", the
    #: explored bound, per-round search stats, and a serialized
    #: counterexample database when one survived the CEGIS loop
    certify: Optional[dict] = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.sql

    @property
    def is_degraded(self) -> bool:
        return bool(self.degradations)

    def to_dict(self) -> dict:
        """JSON-serialisable summary (for tooling and result archival)."""
        query = self.query
        return {
            "verdict": self.verdict,
            "eqc": None if self.eqc is None else self.eqc.to_dict(),
            "budget": self.budget,
            "sql": self.sql,
            "tables": list(query.tables),
            "joins": [p for c in query.join_cliques for p in c.predicates()],
            "filters": [f.to_sql() for f in query.filters],
            "projections": [o.select_sql() for o in query.projections],
            "aggregations": [o.select_sql() for o in query.aggregations],
            "group_by": [f"{c.table}.{c.column}" for c in query.group_by],
            "having": [h.to_sql() for h in query.having],
            "order_by": [o.to_sql() for o in query.order_by],
            "limit": query.limit,
            "ungrouped_aggregation": query.ungrouped_aggregation,
            "stats": {
                "invocations": self.stats.total_invocations,
                "seconds": round(self.stats.total_seconds, 6),
                "retries": self.stats.retries,
                "invocation_timeouts": self.stats.invocation_timeouts,
                "breakdown": {
                    name: round(seconds, 6)
                    for name, seconds in self.stats.breakdown().items()
                },
            },
            "degradations": [d.to_dict() for d in self.degradations],
            "resumed_modules": list(self.resumed_modules),
            "caches": self.caches,
            "certify": self.certify,
            "checker": (
                None
                if self.checker_report is None
                else {
                    "passed": self.checker_report.passed,
                    "databases_checked": self.checker_report.databases_checked,
                    "mismatches": list(self.checker_report.mismatches),
                }
            ),
        }

    def describe(self) -> str:
        """A clause-by-clause human-readable extraction report."""
        query = self.query
        lines = ["extraction report", "=================="]
        if self.verdict != "ok":
            lines.append(f"verdict           : {self.verdict}")
        lines.append(f"tables (T_E)      : {', '.join(query.tables)}")
        join_predicates = [p for c in query.join_cliques for p in c.predicates()]
        lines.append(
            "joins (J_E)       : " + ("; ".join(join_predicates) or "(none)")
        )
        lines.append(
            "filters (F_E)     : "
            + ("; ".join(f.to_sql() for f in query.filters) or "(none)")
        )
        lines.append(
            "projections (P_E) : "
            + (", ".join(o.select_sql() for o in query.projections) or "(none)")
        )
        lines.append(
            "aggregates (A_E)  : "
            + (", ".join(o.select_sql() for o in query.aggregations) or "(none)")
        )
        group = ", ".join(f"{c.table}.{c.column}" for c in query.group_by)
        if not group and query.ungrouped_aggregation:
            group = "(ungrouped aggregation)"
        lines.append(f"group by (G_E)    : {group or '(none)'}")
        lines.append(
            "having (H_E)      : "
            + ("; ".join(h.to_sql() for h in query.having) or "(none)")
        )
        lines.append(
            "order by (O_E)    : "
            + (", ".join(o.to_sql() for o in query.order_by) or "(none)")
        )
        lines.append(f"limit (l_E)       : {query.limit if query.limit is not None else '(none)'}")
        lines.append("")
        lines.append(f"invocations       : {self.stats.total_invocations}")
        lines.append(f"wall-clock        : {self.stats.total_seconds:.3f}s")
        if self.stats.retries:
            lines.append(f"retries           : {self.stats.retries}")
        if self.stats.invocation_timeouts:
            lines.append(f"timeouts          : {self.stats.invocation_timeouts}")
        if self.resumed_modules:
            lines.append(
                "resumed           : skipped "
                + ", ".join(self.resumed_modules)
                + " (from checkpoint)"
            )
        if self.checker_report is not None:
            verdict = "passed" if self.checker_report.passed else "FAILED"
            lines.append(
                f"checker           : {verdict} on "
                f"{self.checker_report.databases_checked} databases"
            )
        if self.certify is not None:
            lines.append(f"certify           : {self.certify.get('verdict')}")
        if self.budget is not None:
            lines.append(
                "budget            : "
                f"{self.budget['invocations']} invocations, "
                f"{self.budget['rows_scanned']} rows scanned, "
                f"{self.budget['cells_materialized']} cells, "
                f"{self.budget['wall_seconds']:.3f}s"
                + (
                    f" — EXHAUSTED ({self.budget['exhausted']})"
                    if self.budget.get("exhausted")
                    else ""
                )
            )
        if self.eqc is not None and (self.eqc.signals or self.verdict != "ok"):
            lines.append("")
            lines.append(self.eqc.describe())
        if self.degradations:
            lines.append("")
            lines.append("diagnostics (best-effort degradations)")
            lines.append("--------------------------------------")
            for degradation in self.degradations:
                lines.append(
                    f"  {degradation.module:<14} {degradation.error}: "
                    f"{degradation.message}"
                )
            lines.append(
                "  the SQL above omits the degraded clauses and may be a "
                "superset of the hidden query's results"
            )
        return "\n".join(lines)


class _PipelineContext:
    """Cross-step scratch state for one standard-pipeline run."""

    __slots__ = ("svalues", "checker_report", "eqc_signals")

    def __init__(self):
        self.svalues: Optional[SValueSource] = None
        self.checker_report: Optional[checker.CheckReport] = None
        self.eqc_signals: list[eqc_guard.EqcSignal] = []

    def require_svalues(self, session: ExtractionSession) -> SValueSource:
        # Constructed lazily after the filter set is final (its caches assume
        # that); a resumed run rebuilds it from the restored filters.
        if self.svalues is None:
            self.svalues = SValueSource(session)
        return self.svalues


class _Step(NamedTuple):
    name: str
    #: essential steps always raise on failure; non-essential ones degrade
    #: when ``config.fail_fast`` is off
    essential: bool
    fn: Callable[[ExtractionSession, _PipelineContext], None]


def _step_setup(session: ExtractionSession, ctx: _PipelineContext) -> None:
    limit_module.capture_initial_result(session)
    if session.initial_result.is_effectively_empty:
        raise ExtractionError(
            "the application's result on D_I is empty; extraction requires "
            "a populated initial result (paper §3)"
        )


def _step_eqc_preflight(session: ExtractionSession, ctx: _PipelineContext) -> None:
    with session.module("eqc_preflight"):
        signals = eqc_guard.preflight(session)
    ctx.eqc_signals.extend(signals)
    for signal in signals:
        logger.warning("EQC preflight signal: %s", signal.detail)
        session.provenance.observation(
            "eqc_preflight", target=signal.probe, detail=signal.detail
        )
    if any(s.severity >= eqc_guard.OUT_OF_CLASS_THRESHOLD for s in signals):
        raise UnsupportedQueryError(
            "preflight sentinels flagged the hidden query as out-of-class: "
            + "; ".join(s.detail for s in signals),
            module="eqc_preflight",
        )


def _step_eqc_postflight(session: ExtractionSession, ctx: _PipelineContext) -> None:
    with session.module("eqc_postflight"):
        signals = eqc_guard.postflight(session, ctx.checker_report)
    ctx.eqc_signals.extend(signals)
    for signal in signals:
        logger.warning("EQC postflight signal: %s", signal.detail)
        session.provenance.observation(
            "eqc_postflight", target=signal.probe, detail=signal.detail
        )
    if any(s.severity >= eqc_guard.OUT_OF_CLASS_THRESHOLD for s in signals):
        raise UnsupportedQueryError(
            "postflight cross-validation flagged the extraction as "
            "out-of-class: " + "; ".join(s.detail for s in signals),
            module="eqc_postflight",
        )


def _step_from_clause(session: ExtractionSession, ctx: _PipelineContext) -> None:
    tables = from_clause.extract_tables(session)
    logger.info("from clause: T_E = %s", tables)


def _step_minimizer(session: ExtractionSession, ctx: _PipelineContext) -> None:
    minimizer.minimize(session)
    logger.info(
        "minimized to D^1 (%d invocations so far)",
        session.stats.total_invocations,
    )


def _step_minimize_multirow(
    session: ExtractionSession, ctx: _PipelineContext
) -> None:
    session.d_min = minimizer.minimize_multirow(session)


def _step_joins(session: ExtractionSession, ctx: _PipelineContext) -> None:
    cliques = joins.extract_joins(session)
    logger.info("join cliques: %s", [c.predicates() for c in cliques])


def _step_filters(session: ExtractionSession, ctx: _PipelineContext) -> None:
    predicates = filters.extract_filters(session)
    logger.info("filters: %s", [p.to_sql() for p in predicates])


def _step_having_bounds(session: ExtractionSession, ctx: _PipelineContext) -> None:
    having.extract_bounds(session)


def _step_having_count(session: ExtractionSession, ctx: _PipelineContext) -> None:
    having.extract_count_bound(session)


def _step_text_filters(session: ExtractionSession, ctx: _PipelineContext) -> None:
    having.extract_text_filters(session)


def _step_disjunctions(session: ExtractionSession, ctx: _PipelineContext) -> None:
    from repro.core import disjunctions

    disjunctions.refine_disjunctions(session)
    logger.info(
        "disjunction refinement: %s",
        [p.to_sql() for p in session.query.filters],
    )


def _step_projections(session: ExtractionSession, ctx: _PipelineContext) -> None:
    projections.extract_projections(session, ctx.require_svalues(session))


def _step_group_by(session: ExtractionSession, ctx: _PipelineContext) -> None:
    groupby.extract_group_by(session, ctx.require_svalues(session))
    logger.info(
        "group by: %s (ungrouped_aggregation=%s)",
        session.query.group_by,
        session.query.ungrouped_aggregation,
    )


def _step_aggregations(session: ExtractionSession, ctx: _PipelineContext) -> None:
    aggregates.extract_aggregations(session, ctx.require_svalues(session))
    if session.probe_multiplier > 1:
        having.reject_sum_outputs(session)


def _step_order_by(session: ExtractionSession, ctx: _PipelineContext) -> None:
    orderby.extract_order_by(session, ctx.require_svalues(session))


def _step_limit(session: ExtractionSession, ctx: _PipelineContext) -> None:
    limit_module.extract_limit(session, ctx.require_svalues(session))
    logger.info(
        "order by: %s, limit: %s",
        [o.to_sql() for o in session.query.order_by],
        session.query.limit,
    )


def _step_checker(session: ExtractionSession, ctx: _PipelineContext) -> None:
    ctx.checker_report = checker.verify_extraction(
        session, ctx.require_svalues(session)
    )
    session.provenance.observation(
        "checker",
        target="passed" if ctx.checker_report.passed else "failed",
        detail=(
            f"verified on {ctx.checker_report.databases_checked} "
            "randomized databases"
        ),
    )
    logger.info(
        "checker: %s on %d databases",
        "passed" if ctx.checker_report.passed else "FAILED",
        ctx.checker_report.databases_checked,
    )


class UnmasqueExtractor:
    """Extract the hidden query of a black-box application.

    Usage::

        extractor = UnmasqueExtractor(db, app)
        outcome = extractor.extract()
        print(outcome.sql)

    ``db`` is the initial instance ``D_I`` on which the application produces a
    populated result; it is cloned into a silo and never mutated.

    ``checkpoint_dir`` (a path or a ready
    :class:`~repro.resilience.checkpoint.CheckpointStore`) enables
    checkpoint/resume for either pipeline: progress is saved after every
    step, an existing checkpoint is resumed from, and the file is cleared on
    success.
    """

    def __init__(
        self,
        db: Database,
        executable: Executable,
        config: Optional[ExtractionConfig] = None,
        tracer=None,
        checkpoint_dir=None,
        provenance=None,
        step_listener=None,
        pause_check=None,
    ):
        self.config = config or ExtractionConfig()
        #: called with the step name after each completed (and checkpointed)
        #: module — ``repro serve`` journals per-job progress through it
        self.step_listener = step_listener
        #: polled after each completed module; returning True pauses the
        #: pipeline cooperatively (raises ExtractionPaused) with the
        #: checkpoint for the finished step already on disk
        self.pause_check = pause_check
        #: the original D_I — the CEGIS loop clones it to replay and absorb
        #: counterexample databases (repro.veriq.cegis)
        self.database = db
        self.session = ExtractionSession(
            db, executable, self.config, tracer=tracer, provenance=provenance
        )
        if checkpoint_dir is None:
            self.checkpoint: Optional[CheckpointStore] = None
        elif isinstance(checkpoint_dir, CheckpointStore):
            self.checkpoint = checkpoint_dir
        else:
            self.checkpoint = CheckpointStore(checkpoint_dir)

    def extract(self) -> ExtractionOutcome:
        """Run the pipeline under a root ``pipeline`` span covering it all."""
        session = self.session
        tracer = session.tracer
        tags = None
        if tracer.enabled:
            tags = {
                "executable": session.executable.name,
                "db_tables": len(session.silo.table_names),
                "db_rows": session.silo.total_rows(),
                "having_pipeline": self.config.extract_having,
                "jobs": session.scheduler.jobs,
            }
        session.budget.start()
        with tracer.span("extraction", kind="pipeline", tags=tags) as root:
            try:
                outcome = self._extract()
            finally:
                # Terminal guarantee: whatever happened — success, verdict,
                # budget stop, or a crash unwinding through here — the silo
                # leaves this method byte-identical to D_I, and any isolation
                # workers are shut down.
                session.restore_silo_to_di()
                session.close()
                self._export_cache_metrics()
                if tracer.enabled and session.budget.enabled:
                    root.set_tags(
                        **{
                            f"budget_{key}": value
                            for key, value in session.budget.snapshot().items()
                            if key != "limits"
                        }
                    )
            if session.budget.enabled and outcome.budget is None:
                outcome.budget = session.budget.snapshot()
            outcome.caches = session.cache_stats()
            if session.provenance.enabled:
                session.provenance.observation(
                    "pipeline",
                    target=outcome.verdict,
                    detail=(
                        f"extraction finished: "
                        f"{outcome.stats.total_invocations} invocations, "
                        f"{len(session.provenance.events)} evidence events"
                    ),
                )
                session.provenance.flush()
            if tracer.enabled:
                root.set_tags(
                    tables=list(outcome.query.tables),
                    invocations=outcome.stats.total_invocations,
                    modules=sorted(outcome.stats.modules),
                    verdict=outcome.verdict,
                    caches=outcome.caches,
                )
                if outcome.degradations:
                    root.set_tag(
                        "degraded_modules",
                        [d.module for d in outcome.degradations],
                    )
                if tracer.metrics is not None:
                    tracer.metrics.counter("extractions_total").inc()
            return outcome

    def extract_certified(self) -> ExtractionOutcome:
        """Extract, then certify: the CEGIS loop of ``repro.veriq``.

        Runs the standard pipeline and hands the outcome to the bounded
        symbolic verifier; each counterexample is replayed as a real sandbox
        probe and absorbed into D_I for a fresh extraction round.  The final
        outcome carries the verifier's verdict in ``outcome.certify``
        ("certificate", "counterexample", or "unsupported" for candidates
        outside the certifiable class — callers fall back to the EQC
        confidence vector then).
        """
        from repro.veriq.cegis import certify_extraction

        return certify_extraction(self)

    def _export_cache_metrics(self) -> None:
        """Fold the run's cache counters into the metrics registry (once).

        The caches count every lookup internally; exporting the totals at
        extraction end — rather than ticking per hit — keeps the engine and
        invocation hot paths free of registry traffic.
        """
        session = self.session
        metrics = session.tracer.metrics
        if metrics is None:
            return
        if session.silo.plan_cache is not None:
            stats = session.silo.plan_cache.stats(session.silo.plan_cache_scope)
            metrics.counter("plan_cache_hits_total").inc(stats["hits"])
            metrics.counter("plan_cache_misses_total").inc(stats["misses"])
            metrics.counter("plan_cache_evictions_total").inc(stats["evictions"])
        if session.memo is not None:
            stats = session.memo.stats()
            metrics.counter("invocation_cache_hits_total").inc(stats["hits"])
            metrics.counter("invocation_cache_misses_total").inc(stats["misses"])
            metrics.counter("invocation_cache_bypass_total").inc(
                stats["bypasses"]
            )

    # -- the step list -------------------------------------------------------

    @property
    def _guarded(self) -> bool:
        """Whether the EQC guard steps run (not under the §7 pipeline)."""
        return self.config.eqc_guard and not self.config.extract_having

    def _steps(self) -> list[_Step]:
        """Figure 3's modules in order, or with ``config.extract_having`` the
        §7 list: the same modules reordered around the bound steps."""
        config = self.config
        steps = [_Step("setup", True, _step_setup)]
        if self._guarded:
            steps.append(_Step("eqc_preflight", False, _step_eqc_preflight))
        steps.append(_Step("from_clause", True, _step_from_clause))
        if config.extract_having:
            steps += [
                _Step("minimizer", True, _step_minimize_multirow),
                _Step("joins", True, _step_joins),
                _Step("having_bounds", True, _step_having_bounds),
                _Step("having_count", True, _step_having_count),
                _Step("filters", True, _step_text_filters),
            ]
        else:
            steps += [
                _Step("minimizer", True, _step_minimizer),
                _Step("joins", True, _step_joins),
                _Step("filters", True, _step_filters),
            ]
            if config.extract_disjunctions:
                steps.append(_Step("disjunctions", False, _step_disjunctions))
        steps += [
            _Step("projections", True, _step_projections),
            _Step("group_by", True, _step_group_by),
            _Step("aggregations", True, _step_aggregations),
            _Step("order_by", False, _step_order_by),
            _Step("limit", False, _step_limit),
        ]
        if config.run_checker:
            steps.append(_Step("checker", False, _step_checker))
        if self._guarded:
            steps.append(_Step("eqc_postflight", False, _step_eqc_postflight))
        return steps

    def _extract(self) -> ExtractionOutcome:
        session = self.session
        store = self.checkpoint
        completed: set[str] = set()
        degradations: list[Degradation] = []
        resumed_modules: list[str] = []

        if store is not None:
            state = store.load()
            if state is not None:
                completed = restore_session(session, state)
                degradations = [
                    Degradation(**payload) for payload in state["degradations"]
                ]
                resumed_modules = sorted(completed)
                logger.info(
                    "resuming from checkpoint %s: skipping %s",
                    store.path,
                    resumed_modules,
                )

        ctx = _PipelineContext()
        verdict = "ok"
        try:
            for step in self._steps():
                if step.name in completed:
                    continue
                # Re-materialize the resident probe state (D^1, or the §7
                # D_min) from the recorded rows: every step starts from D_I
                # plus it, and every step exit below restores plain D_I —
                # the sandbox invariant.
                session.materialize_resident()
                try:
                    step.fn(session, ctx)
                except (BudgetExhausted, WorkerQuarantined) as error:
                    session.restore_silo_to_di()
                    if self.config.fail_fast:
                        raise
                    # Nothing further can run — the budget is spent, or the
                    # supervisor refuses to respawn workers for an executable
                    # that keeps crashing them.  Record the degradation and
                    # stop the pipeline with whatever has been extracted.
                    degradations.append(
                        Degradation(
                            module=step.name,
                            error=type(error).__name__,
                            message=str(error),
                        )
                    )
                    verdict = (
                        "quarantined"
                        if isinstance(error, WorkerQuarantined)
                        else "budget_exhausted"
                    )
                    logger.warning(
                        "pipeline stopped in %s: %s",
                        step.name,
                        error,
                    )
                    if session.tracer.metrics is not None:
                        session.tracer.metrics.counter("degradations_total").inc()
                    break
                except ReproError as error:
                    session.restore_silo_to_di()
                    if (
                        step.essential
                        or self.config.fail_fast
                        or isinstance(error, UnsupportedQueryError)
                    ):
                        raise
                    degradations.append(
                        Degradation(
                            module=step.name,
                            error=type(error).__name__,
                            message=str(error),
                        )
                    )
                    logger.warning(
                        "module %s degraded (best-effort): %s", step.name, error
                    )
                    if session.tracer.metrics is not None:
                        session.tracer.metrics.counter("degradations_total").inc()
                else:
                    session.restore_silo_to_di()
                if self.config.sandbox_verify and not session.silo_matches_di():
                    raise ExtractionError(
                        f"sandbox invariant violated after step {step.name!r}: "
                        "silo does not match D_I",
                        module=step.name,
                    )
                completed.add(step.name)
                if store is not None:
                    # Saved while the silo provably equals D_I, so a resumed
                    # run can verify the instance via the content fingerprint.
                    try:
                        store.save(
                            snapshot_session(
                                session,
                                sorted(completed),
                                [d.to_dict() for d in degradations],
                            )
                        )
                    except StorageExhausted as error:
                        # A full disk must not kill a healthy extraction —
                        # drop durability, keep going, and say so.
                        degradations.append(
                            Degradation(
                                module=step.name,
                                error="StorageExhausted",
                                message=str(error),
                            )
                        )
                        logger.warning(
                            "checkpointing disabled after %s: %s", step.name, error
                        )
                        if session.tracer.metrics is not None:
                            session.tracer.metrics.counter(
                                "storage_exhausted_total"
                            ).inc()
                        store = None
                if self.step_listener is not None:
                    self.step_listener(step.name)
                if self.pause_check is not None and self.pause_check():
                    # The checkpoint above is already durable, so the run is
                    # immediately resumable; raised outside the step's own
                    # try so the drain signal is never degraded away.
                    raise ExtractionPaused(step.name)
        except ExtractionError as error:
            # Covers the guard's UnsupportedQueryError, the checker's
            # CheckFailedError, and any probe-inconsistency ExtractionError:
            # inside EQC the pipeline's dialogue is contradiction-free, so a
            # contradiction is out-of-class evidence, not just a failure.
            if self.config.out_of_class_action != "verdict":
                raise
            return self._out_of_class_outcome(error, ctx, degradations, resumed_modules)

        if store is not None:
            store.clear()

        report = eqc_guard.build_report(ctx.eqc_signals) if self._guarded else None
        return ExtractionOutcome(
            query=session.query,
            sql=session.query.sql if session.query.outputs else "",
            stats=session.stats,
            checker_report=ctx.checker_report,
            degradations=degradations,
            resumed_modules=resumed_modules,
            verdict=verdict,
            eqc=report,
            budget=session.budget.snapshot() if session.budget.enabled else None,
        )

    def _out_of_class_outcome(
        self,
        error: ReproError,
        ctx: _PipelineContext,
        degradations: list[Degradation],
        resumed_modules: list[str],
    ) -> ExtractionOutcome:
        """Refuse to emit SQL: package the evidence as a structured verdict."""
        session = self.session
        extra = None
        if not any(
            s.severity >= eqc_guard.OUT_OF_CLASS_THRESHOLD for s in ctx.eqc_signals
        ):
            extra = eqc_guard.EqcSignal(
                probe=type(error).__name__,
                severity=1.0,
                clauses=eqc_guard.CLAUSES,
                detail=str(error),
            )
        report = eqc_guard.build_report(ctx.eqc_signals, extra=extra)
        report.verdict = "out_of_class"
        logger.warning("extraction verdict: out_of_class (%s)", error)
        if session.tracer.metrics is not None:
            session.tracer.metrics.counter("out_of_class_total").inc()
        return ExtractionOutcome(
            query=session.query,
            sql="",
            stats=session.stats,
            checker_report=ctx.checker_report,
            degradations=degradations,
            resumed_modules=resumed_modules,
            verdict="out_of_class",
            eqc=report,
            budget=session.budget.snapshot() if session.budget.enabled else None,
        )


# -- the front door -----------------------------------------------------------


@dataclass
class ExtractionRun:
    """What :func:`run_extraction` hands back: the outcome and its records."""

    outcome: ExtractionOutcome
    #: the last extractor driven (a crash-resume drives two)
    extractor: UnmasqueExtractor
    #: wall-clock from building the extractor to the end of the extraction
    seconds: float
    tracer: object
    provenance: object
    #: the ledger run that was completed, or None (no ledger, or dropped)
    ledger_run: Optional[int]


class _LedgerRun:
    """One run in a provenance ledger under the one ledger-failure policy.

    A full disk drops the ledger, never the extraction — the rule the
    checkpoint store already follows.  A :class:`StorageExhausted` from
    ``begin_run``, an evidence flush or the finish closes the ledger, logs
    a warning and tells ``on_error``; the run goes on without it.
    """

    def __init__(self, path, label, workload, query_name, jobs, on_error):
        from repro.obs.ledger import RunLedger

        self.ledger = None
        self.run_id = None
        self.on_error = on_error
        try:
            self.ledger = RunLedger(path)
            self.run_id = self.ledger.begin_run(
                label=label, workload=workload, query_name=query_name, jobs=jobs
            )
        except StorageExhausted as error:
            self._drop(error)

    def _drop(self, error: StorageExhausted) -> None:
        """Close the ledger after one best-effort ``aborted`` mark on the run
        row, so a live ``repro serve`` does not show it ``running``.  The mark
        never raises; on a truly full disk it fails too, and the row stays
        ``running`` until :meth:`RunLedger.recover_stale_runs` sweeps it after
        this process exits."""
        logger.warning("ledger dropped; the extraction goes on: %s", error)
        if self.ledger is not None:
            if self.run_id is not None:
                try:
                    self.ledger.finish_run(
                        self.run_id, status="aborted", extras={"error": str(error)}
                    )
                except Exception as mark_error:  # the extraction must go on
                    logger.warning(
                        "could not mark ledger run %s aborted: %s",
                        self.run_id,
                        mark_error,
                    )
            self.ledger.close()
            self.ledger = None
        if self.on_error is not None:
            self.on_error(error)

    def sink(self, events) -> None:
        if self.ledger is None:
            return
        try:
            self.ledger.append_events(self.run_id, events)
        except StorageExhausted as error:
            self._drop(error)

    def _flushed(self, provenance) -> bool:
        """Flush pending evidence through :meth:`sink`; False once dropped."""
        if self.ledger is not None:
            provenance.flush()
        return self.ledger is not None

    def finish(self, provenance, outcome) -> Optional[int]:
        if not self._flushed(provenance):
            return None
        try:
            self.ledger.finish_extraction(self.run_id, provenance, outcome)
        except StorageExhausted as error:
            self._drop(error)
            return None
        self.ledger.close()
        return self.run_id

    def fail(self, provenance, error: BaseException) -> None:
        if self._flushed(provenance):
            self.ledger.fail_extraction(self.run_id, provenance, error)
            self.ledger.close()


def check_writable(*paths) -> None:
    """Raise :class:`UnwritableOutput` for the first output path (``None``
    skipped) that cannot be opened for writing — before any probe runs."""
    for path in paths:
        if path is None:
            continue
        try:
            with open(path, "a", encoding="utf-8"):
                pass
        except OSError as error:
            raise UnwritableOutput(f"cannot write {path}: {error}") from error


def run_extraction(
    db: Database,
    app: Executable,
    config: Optional[ExtractionConfig] = None,
    *,
    refuse_empty: bool = True,
    metrics=None,
    trace_out=None,
    metrics_out=None,
    ledger=None,
    label: str = "",
    workload: str = "",
    query_name: str = "",
    provenance: bool = False,
    on_ledger_error: Optional[Callable] = None,
    before_extract: Optional[Callable] = None,
    drive: Optional[Callable] = None,
    **extractor_kwargs,
) -> ExtractionRun:
    """Run one extraction of ``app`` on ``db``: the one path every caller
    takes (the ``repro`` extraction commands, ``repro serve`` jobs, ``repro
    bench`` and the chaos matrices).

    1. Refuse an empty initial result with :class:`EmptyInitialResult`
       (``refuse_empty=False`` skips it, for a caller that already knows).
    2. Attach a tracer when ``metrics`` (a registry to collect into),
       ``trace_out`` or ``metrics_out`` asks for one; an unwritable output
       path raises :class:`UnwritableOutput` before any probe runs.
    3. Open a run labelled ``label`` in the ``ledger`` file, with a
       provenance recorder streaming to it (``provenance=True`` records
       without a ledger); see :class:`_LedgerRun` for its failure policy.
    4. Call ``before_extract(ledger run id or None)``.
    5. Extract — certified when ``config.certify`` — with an extractor
       built from ``extractor_kwargs`` (``checkpoint_dir``,
       ``step_listener``, ``pause_check``).  ``drive(make)`` replaces this
       step: ``make(executable)`` builds such an extractor and ``drive``
       returns the outcome, so a crash-resume can drive two.
    6. Finish the ledger run (or fail it, re-raising the error), then write
       ``trace_out`` and ``metrics_out``.
    """
    config = config or ExtractionConfig()
    if refuse_empty and app.run(db).is_effectively_empty:
        raise EmptyInitialResult(
            "the hidden query has an empty result on this instance"
        )
    tracer = None
    if metrics is not None or trace_out or metrics_out:
        from repro.obs import MetricsRegistry, Tracer

        check_writable(trace_out, metrics_out)
        if metrics is None:
            metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics, keep_spans=trace_out is not None)
    book = recorder = None
    if ledger is not None:
        book = _LedgerRun(
            ledger, label, workload, query_name, config.jobs, on_ledger_error
        )
    if provenance or (book is not None and book.ledger is not None):
        from repro.obs.provenance import ProvenanceRecorder

        recorder = ProvenanceRecorder(sink=book.sink if book else None)

    extractors: list[UnmasqueExtractor] = []

    def make(executable: Executable) -> UnmasqueExtractor:
        extractor = UnmasqueExtractor(
            db, executable, config,
            tracer=tracer, provenance=recorder, **extractor_kwargs,
        )
        extractors.append(extractor)
        return extractor

    def extract(make) -> ExtractionOutcome:
        extractor = make(app)
        if config.certify:
            return extractor.extract_certified()
        return extractor.extract()

    try:
        if before_extract is not None:
            before_extract(book.run_id if book else None)
        started = time.perf_counter()
        outcome = (drive or extract)(make)
    except BaseException as error:
        if book is not None:
            book.fail(recorder, error)
        raise
    seconds = time.perf_counter() - started
    ledger_run = book.finish(recorder, outcome) if book is not None else None
    if trace_out:
        tracer.write_jsonl(trace_out)
    if metrics_out:
        metrics.write_json(metrics_out)
    return ExtractionRun(
        outcome, extractors[-1], seconds, tracer, recorder, ledger_run
    )
