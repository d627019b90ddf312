"""The CEGIS loop: counterexample-guided extraction refinement.

``certify_extraction`` wraps a pipeline run with the bounded verifier:

1. extract (or accept an already-extracted outcome);
2. profile the candidate SQL and search the bounded symbolic space for a
   database on which the candidate and the *real application* diverge —
   every oracle probe re-materializes the symbolic database into a sandbox
   clone of D_I and replays the application for real;
3. on a counterexample: augment D_I with the distinguishing rows (they
   become witnesses the pipeline's own probes can see) and re-extract;
4. repeat until the verifier returns a :class:`~repro.veriq.search.Certificate`
   (UNSAT within bounds) or the round budget is spent.

A counterexample that survives every round is out-of-class evidence — an
in-class extraction must converge once the distinguishing data is witnessed
— so it is folded into the outcome's EQC report as a high-severity signal
alongside the serialized database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core import eqc_guard
from repro.engine import Result
from repro.veriq.analyze import (
    ColKey,
    QueryProfile,
    UnsupportedForCertification,
    profile_query,
)
from repro.veriq.domains import VerifyBounds
from repro.veriq.search import (
    Certificate,
    Counterexample,
    search_counterexample,
)

#: EQC-guard probe name for a counterexample that survived every round
CERTIFIER_PROBE = "certifier_counterexample"


@dataclass
class CertifyReport:
    """The verifier's verdict for one (possibly multi-round) certification."""

    #: "certificate", "counterexample", or "unsupported" (fall back to the
    #: probe-based confidence vector)
    verdict: str
    #: CEGIS rounds executed (1 = first search already certified)
    rounds: int = 0
    #: the explored bound (certificate) or the bound at the failing round
    bound: dict = field(default_factory=dict)
    #: per-round search statistics
    stats: list[dict] = field(default_factory=list)
    #: serialized distinguishing database (counterexample verdict only)
    counterexample: Optional[dict] = None
    #: why certification was unavailable (unsupported verdict only)
    reason: str = ""
    #: True when refinement changed the extracted SQL along the way
    refined: bool = False
    #: the certified (or final candidate) SQL
    sql: str = ""

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rounds": self.rounds,
            "bound": self.bound,
            "stats": self.stats,
            "counterexample": self.counterexample,
            "reason": self.reason,
            "refined": self.refined,
            "sql": self.sql,
        }

    def describe(self) -> str:
        if self.verdict == "certificate":
            probes = sum(s.get("oracle_probes", 0) for s in self.stats)
            explored = sum(s.get("databases_enumerated", 0) for s in self.stats)
            line = (
                f"certificate (bound: rows<={self.bound.get('max_rows')}, "
                f"{explored} databases, {probes} probes, "
                f"{self.rounds} round(s))"
            )
            if self.refined:
                line += " after counterexample-driven refinement"
            return line
        if self.verdict == "counterexample":
            return (
                f"counterexample after {self.rounds} round(s): "
                + (self.counterexample or {}).get("detail", "")
            )
        return f"unavailable ({self.reason}); falling back to confidence vector"


class SandboxOracle:
    """Replay the application on a symbolic database, as a real probe.

    Each call clones nothing: one constraint-free silo is built up front,
    the symbolic rows are swapped in (every other table emptied — the
    candidate claims the application reads none of them, and a wrong FROM
    clause then shows up as a divergence), the application executes, and the
    silo is restored.
    """

    def __init__(self, db, executable):
        self._silo = db.clone()
        self._silo.drop_constraints()
        self._executable = executable
        self.probes = 0

    def __call__(self, rows_by_table: dict[str, list[tuple]]) -> Result:
        self.probes += 1
        silo = self._silo
        with silo.sandbox():
            for name in silo.table_names:
                silo.replace_rows(name, rows_by_table.get(name, []))
            return self._executable.run(silo)


def bounds_from_config(config) -> VerifyBounds:
    return VerifyBounds(
        max_rows=config.certify_rows,
        max_databases=config.certify_databases,
    )


def certify_extraction(extractor, outcome=None) -> "ExtractionOutcome":
    """Run the CEGIS loop around an extractor; returns the final outcome.

    ``extractor`` is a :class:`~repro.core.pipeline.UnmasqueExtractor`; the
    returned outcome carries the verifier's verdict in ``outcome.certify``.
    """
    from repro.core.pipeline import UnmasqueExtractor

    config = extractor.config
    tracer = extractor.session.tracer
    metrics = tracer.metrics
    executable = extractor.session.executable
    db = extractor.database
    bounds = bounds_from_config(config)
    rounds = max(1, config.certify_rounds)

    if outcome is None:
        outcome = extractor.extract()
    if outcome.verdict != "ok":
        outcome.certify = CertifyReport(
            verdict="unsupported",
            reason=f"extraction verdict is {outcome.verdict!r}",
            sql=outcome.sql,
        ).to_dict()
        return outcome

    report = CertifyReport(verdict="unsupported", sql=outcome.sql)
    original_sql = outcome.sql
    extra_values: dict[ColKey, list] = {}
    last_counterexample: Optional[Counterexample] = None
    last_profile: Optional[QueryProfile] = None

    with tracer.span("certify", kind="verify"):
        for round_index in range(rounds):
            report.rounds = round_index + 1
            try:
                profile = profile_query(outcome.sql, db.catalog)
            except UnsupportedForCertification as exc:
                report.verdict = "unsupported"
                report.reason = str(exc)
                break
            last_profile = profile
            oracle = SandboxOracle(db, executable)
            with tracer.span("certify_search", kind="verify"):
                result = search_counterexample(
                    profile,
                    db.catalog,
                    oracle,
                    bounds,
                    extra_values=extra_values,
                    seed=config.seed + round_index,
                )
            if metrics is not None:
                metrics.counter("certify_probes_total").inc(oracle.probes)
            report.stats.append(result.stats.to_dict())
            if isinstance(result, Certificate):
                report.verdict = "certificate"
                report.bound = result.bound
                report.sql = outcome.sql
                report.refined = outcome.sql != original_sql
                if metrics is not None:
                    metrics.counter("certificates_total").inc()
                break
            # counterexample round
            last_counterexample = result
            if metrics is not None:
                metrics.counter("counterexamples_total").inc()
            report.verdict = "counterexample"
            report.bound = bounds.to_dict()
            report.counterexample = result.to_json(
                db.catalog, candidate_sql=outcome.sql
            )
            report.counterexample["detail"] = f"{result.kind}: {result.detail}"
            report.sql = outcome.sql
            if round_index + 1 >= rounds:
                break
            # refine: the distinguishing rows become part of D_I, so the
            # pipeline's own probes can witness what they expose
            _harvest_extra_values(profile, result, extra_values, db.catalog)
            refined_db = _augment(db, result.database)
            with tracer.span("certify_refine", kind="verify"):
                refined = UnmasqueExtractor(
                    refined_db,
                    executable,
                    config,
                    tracer=tracer if tracer.enabled else None,
                ).extract()
            if refined.verdict != "ok" or not refined.sql:
                break  # refinement failed; keep the counterexample verdict
            if refined.sql != outcome.sql:
                report.refined = True
            outcome = refined

    if report.verdict == "counterexample" and last_counterexample is not None:
        _fold_eqc_signal(outcome, last_counterexample)
    outcome.certify = report.to_dict()
    return outcome


def _augment(db, counterexample_rows: dict[str, list[tuple]]):
    """D_I ∪ counterexample: the refined initial instance for re-extraction."""
    refined = db.clone()
    for table, rows in counterexample_rows.items():
        if rows:
            refined.insert(table, rows)
    return refined


def _harvest_extra_values(
    profile: QueryProfile,
    counterexample: Counterexample,
    extra_values: dict[ColKey, list],
    catalog,
) -> None:
    """Keep the counterexample's cell values in later rounds' domains."""
    for table, rows in counterexample.database.items():
        schema = catalog.get(table)
        for index, column in enumerate(schema.columns):
            key = ColKey(table, column.name)
            if key not in profile.relevant:
                continue
            bucket = extra_values.setdefault(key, [])
            for row in rows:
                if row[index] is not None and row[index] not in bucket:
                    bucket.append(row[index])


def _fold_eqc_signal(outcome, counterexample: Counterexample) -> None:
    """A persistent counterexample is out-of-class evidence: record it."""
    signal = eqc_guard.EqcSignal(
        probe=CERTIFIER_PROBE,
        severity=0.85,
        clauses=eqc_guard.CLAUSES,
        detail=(
            "bounded verifier found a distinguishing database the CEGIS "
            f"loop could not resolve ({counterexample.kind}: "
            f"{counterexample.detail})"
        ),
    )
    existing = list(outcome.eqc.signals) if outcome.eqc is not None else []
    outcome.eqc = eqc_guard.build_report(existing, extra=signal)
