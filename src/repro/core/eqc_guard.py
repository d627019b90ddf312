"""Out-of-class (non-EQC) detection: pre/post-flight probes.

UNMASQUE is only sound for hidden queries inside the Extractable Query Class
(paper §3, §8): single-block conjunctive SPJGA queries with equi-joins.
Outside that class the pipeline does not fail loudly — it converges on a
*plausible-but-wrong* SQL string.  This module turns that silent failure mode
into a structured verdict:

* **preflight** (right after setup, before the expensive modules) runs cheap
  sentinel probes whose outcome is fully determined for every EQC query —
  the empty-database sentinel (an EQC query over an empty instance must
  produce an empty/degenerate result) and the subset-monotonicity sentinel
  (conjunctive queries are monotone: shrinking the instance can never grow
  the result);
* **postflight** (after the checker) cross-validates the *extracted* query —
  non-equi-join probes set extracted join-clique columns to unequal values
  and flag the query if the application still returns rows, and a checker
  mismatch is folded in as the strongest signal of all.

Each firing probe yields an :class:`EqcSignal` with a severity and the
clauses it implicates; :func:`build_report` aggregates them into an
:class:`EqcReport` with a per-clause confidence vector and an overall
``in_class`` / ``out_of_class`` verdict.
"""

from __future__ import annotations

import datetime
import logging
from dataclasses import dataclass, field
from typing import Optional

from repro.core.session import ExtractionSession

logger = logging.getLogger("repro.core.eqc_guard")

#: clause keys of the per-clause confidence vector, in report order
CLAUSES = (
    "from",
    "joins",
    "filters",
    "projections",
    "group_by",
    "having",
    "order_by",
    "limit",
)

#: a signal at or above this severity flips the verdict to ``out_of_class``
OUT_OF_CLASS_THRESHOLD = 0.8


@dataclass(frozen=True)
class EqcSignal:
    """One probe that fired, with the clauses it casts doubt on."""

    probe: str
    severity: float  # 0..1, probability-like weight of out-of-class evidence
    clauses: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {
            "probe": self.probe,
            "severity": self.severity,
            "clauses": list(self.clauses),
            "detail": self.detail,
        }


@dataclass
class EqcReport:
    """Aggregated out-of-class evidence for one extraction."""

    verdict: str  # "in_class" | "out_of_class"
    signals: list[EqcSignal] = field(default_factory=list)
    #: clause -> confidence in [0, 1] that the clause is correctly extracted
    clause_confidence: dict[str, float] = field(default_factory=dict)

    @property
    def out_of_class(self) -> bool:
        return self.verdict == "out_of_class"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "signals": [s.to_dict() for s in self.signals],
            "clause_confidence": {
                clause: round(conf, 4)
                for clause, conf in self.clause_confidence.items()
            },
        }

    def describe(self) -> str:
        lines = [f"EQC verdict       : {self.verdict}"]
        for clause in CLAUSES:
            conf = self.clause_confidence.get(clause, 1.0)
            lines.append(f"  {clause:<16}: confidence {conf:.2f}")
        for signal in self.signals:
            lines.append(
                f"  signal {signal.probe} (severity {signal.severity:.2f}, "
                f"clauses {', '.join(signal.clauses)}): {signal.detail}"
            )
        return "\n".join(lines)


def build_report(
    signals: list[EqcSignal],
    extra: Optional[EqcSignal] = None,
) -> EqcReport:
    """Fold signals into a verdict and per-clause confidence vector.

    Confidence per clause is the product of ``1 - severity`` over the
    signals implicating it (independent-evidence approximation).
    """
    all_signals = list(signals)
    if extra is not None:
        all_signals.append(extra)
    confidence = {clause: 1.0 for clause in CLAUSES}
    for signal in all_signals:
        for clause in signal.clauses:
            if clause in confidence:
                confidence[clause] *= 1.0 - signal.severity
    verdict = (
        "out_of_class"
        if any(s.severity >= OUT_OF_CLASS_THRESHOLD for s in all_signals)
        else "in_class"
    )
    return EqcReport(
        verdict=verdict, signals=all_signals, clause_confidence=confidence
    )


# -- preflight sentinels -----------------------------------------------------


def preflight(session: ExtractionSession) -> list[EqcSignal]:
    """Cheap sentinels run before the expensive modules (2 invocations)."""
    signals = []
    signal = _empty_database_sentinel(session)
    if signal is not None:
        signals.append(signal)
    signal = _monotonicity_sentinel(session)
    if signal is not None:
        signals.append(signal)
    return signals


def _empty_database_sentinel(session: ExtractionSession) -> Optional[EqcSignal]:
    """An EQC query over an empty instance yields an empty/degenerate result.

    A populated result over zero input rows means the query manufactures
    rows from somewhere the pipeline cannot see — constant subqueries,
    scalar subselects, UNION branches with literals.  All-NULL/zero rows
    are tolerated: ungrouped aggregation legitimately emits one degenerate
    row on empty input.
    """
    result = session.run_on({name: [] for name in session.silo.table_names})
    rows = result.rows
    if not rows:
        return None
    if all(v is None or v == 0 for row in rows for v in row):
        return None  # degenerate ungrouped-aggregate output
    return EqcSignal(
        probe="empty_db_sentinel",
        severity=0.95,
        clauses=("from", "filters", "projections"),
        detail=(
            f"application produced {len(rows)} non-degenerate row(s) on an "
            "empty database; EQC queries cannot manufacture rows"
        ),
    )


def _monotonicity_sentinel(session: ExtractionSession) -> Optional[EqcSignal]:
    """Conjunctive queries are monotone: a sub-instance cannot grow R.

    Runs the application on a half-size subset of every table; more result
    rows than on D_I itself implicates negation (NOT EXISTS / NOT IN /
    anti-join), which is outside EQC.
    """
    baseline = (
        len(session.initial_result.rows)
        if session.initial_result is not None
        else None
    )
    if baseline is None:
        return None
    halved = {}
    for name in session.silo.table_names:
        rows = session.silo.rows(name)
        halved[name] = rows[: (len(rows) + 1) // 2]
    result = session.run_on(halved, trusted=True)
    if len(result.rows) <= baseline:
        return None
    return EqcSignal(
        probe="monotonicity_sentinel",
        severity=0.9,
        clauses=("from", "joins", "filters"),
        detail=(
            f"halved instance produced {len(result.rows)} rows vs {baseline} "
            "on D_I; monotone (conjunctive) queries cannot grow under subsets"
        ),
    )


# -- postflight cross-validation --------------------------------------------


def postflight(session: ExtractionSession, checker_report=None) -> list[EqcSignal]:
    """Cross-validate the extracted query against the black box."""
    signals = []
    signals.extend(_non_equi_join_probes(session))
    if checker_report is not None and not checker_report.passed:
        signals.append(
            EqcSignal(
                probe="checker_mismatch",
                severity=0.85,
                clauses=CLAUSES,
                detail=(
                    f"extracted SQL disagreed with the application on "
                    f"{len(checker_report.mismatches)} of "
                    f"{checker_report.databases_checked} checker database(s)"
                ),
            )
        )
    return signals


def _successor(value):
    """A nearby-but-different probe value of the same type, or None."""
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, datetime.date):
        return value + datetime.timedelta(days=1)
    if isinstance(value, str):
        return value[:-1] + ("a" if value[-1:] != "a" else "b") if value else "a"
    return None


def _non_equi_join_probes(session: ExtractionSession) -> list[EqcSignal]:
    """Probe each extracted equi-join clique with *unequal* column values.

    If D^1 with clique columns set pairwise unequal still produces rows,
    the hidden predicate is not equality (``<``, ``<=``, ``!=`` joins are
    outside EQC).  Probes whose mutated value does not survive the column's
    type coercion are skipped — a coerced-back-to-equal value would make an
    honest equi-join look non-equi.  The cliques' probes are independent and
    run as one scheduler batch.
    """
    if not session.d1:
        return []
    probes = []
    mutations = []
    for clique in session.query.join_cliques:
        columns = sorted(clique.columns, key=lambda c: (c.table, c.column))
        by_table = {}
        for column in columns:
            by_table.setdefault(column.table, column)
        tables = sorted(by_table)
        if len(tables) < 2:
            continue
        keep, mutate = by_table[tables[0]], by_table[tables[1]]
        base = session.d1_value(keep)
        probe_value = _successor(base)
        if probe_value is None:
            continue
        coerced = session.column_type(mutate).coerce(probe_value)
        if coerced == base:
            continue  # truncated back to equality; probe would be unsound
        probes.append((clique, keep, mutate, base, coerced))
        mutations.append((mutate.table, {mutate.column: probe_value}))
    results = session.scheduler.map(
        mutations,
        lambda ctx, mutation: ctx.run_on_d1_mutation(*mutation),
        label="eqc_postflight",
    )
    signals = []
    for (clique, keep, mutate, base, coerced), result in zip(probes, results):
        if not result.is_effectively_empty:
            signals.append(
                EqcSignal(
                    probe="non_equi_join",
                    severity=0.9,
                    clauses=("joins",),
                    detail=(
                        f"result stayed populated with "
                        f"{mutate.table}.{mutate.column}={coerced!r} != "
                        f"{keep.table}.{keep.column}={base!r}; the join on "
                        f"clique {sorted(str(c) for c in clique.columns)} "
                        "is not an equi-join"
                    ),
                )
            )
    return signals
