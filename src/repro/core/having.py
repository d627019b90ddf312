"""HAVING-clause extraction — the restructured pipeline of paper §7.

The paper sketches the approach and defers details to its technical report;
this module implements the reconstruction documented in DESIGN.md §5.  It is
not a driver: with ``config.extract_having`` set, ``UnmasqueExtractor._steps``
in :mod:`repro.core.pipeline` returns the §7 step list, and the one step loop
runs it with checkpoint/resume, best-effort degradation, budgets and
verdicts as for Figure 3.  This module supplies the steps that list adds:

1. **From clause** as usual, then **multi-row minimization** (Lemma 1 fails
   under HAVING — a group may need several rows to satisfy a count/sum
   bound), then **join extraction** (whole-column negation works unchanged on
   a multi-row ``D_min``).  ``D_min`` is the session's resident state
   (``session.d_min``) until the ``having_count`` step installs the template
   ``D^1``.
2. **Unified bound extraction** — a filter ``a <= A <= b`` is semantically a
   ``min(A) >= a ∧ max(A) <= b`` HAVING pair, so both families are found with
   one set of probes.  Setting *every* row of column ``A`` to a common value
   ``v`` makes filter/min/max/avg predicates flip emptiness exactly at their
   constants; bisection on the ``v``-axis recovers the bounds.
3. **Family classification** per bound:
   * *cardinality probe* — duplicating the column's rows halves a ``sum``
     threshold on the ``v``-axis but leaves the other families fixed;
   * *mixed-value probes* — with per-group value pairs ``(x, y)`` straddling
     the bound, a filter merely drops the ``x`` rows (populated), a ``min``
     bound kills whole groups (empty), and an ``avg`` bound follows the pair
     mean; two probes separate the three.
4. **count(*) bounds** — a single-row template database is replicated ``j``
   times; the smallest populated ``j`` is the count lower bound, installed as
   the session's *probe multiplier* so every later synthetic database
   satisfies it.  (Count *upper* bounds would invalidate multi-row probe
   databases and are reported as unsupported.)
5. The remaining modules (text filters, projections, group by, aggregations,
   order by, limit) run unchanged on the reduced template ``D^1`` — the
   discovered bounds are registered as *s-value guards* so every probe
   database satisfies the HAVING predicates by construction.
6. Per the paper's final step, ``min(A) >= a`` / ``max(A) <= b`` bounds whose
   mixed-value probes matched *filter* semantics are emitted as WHERE
   predicates; genuine min/max/avg/sum/count HAVING bounds are emitted in the
   HAVING clause.

Scope restrictions (beyond the paper's FE/HE attribute disjointness):
at most one sum-HAVING bound per query; count upper bounds unsupported;
sum-aggregated projections cannot be combined with a count-HAVING bound
(the probe multiplier would scale their coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.filters import (
    _check_textual,
    first_populated,
    last_populated,
)
from repro.core.model import HavingPredicate, NumericFilter
from repro.core.session import ExtractionSession
from repro.core.svalues import Axis
from repro.errors import ExtractionError, UnsupportedQueryError
from repro.sgraph.schema_graph import ColumnNode

_MAX_COUNT_BOUND = 64


@dataclass
class _Bound:
    """One discovered bound on a column's unified value axis."""

    column: ColumnNode
    side: str  # 'lower' | 'upper'
    axis_value: int  # emptiness flips at this all-equal probe value
    family: str = "filter"  # 'filter' | 'min' | 'max' | 'avg' | 'sum'
    constant: object = None  # resolved SQL-space constant


def extract_bounds(session: ExtractionSession) -> None:
    """The ``having_bounds`` step: unified bounds on the multi-row ``D_min``."""
    with session.module("having_bounds"):
        bounds = _extract_unified_bounds(session)
        _classify_families(session, bounds)
        _install_bounds(session, bounds)
        _record_bound_clauses(session)


def extract_count_bound(session: ExtractionSession) -> None:
    """The ``having_count`` step: install the template ``D^1`` (it replaces
    ``D_min`` as the resident state) and find a count(*) lower bound."""
    with session.module("having_count"):
        _install_template_d1(session)
        _detect_count_bounds(session)


def _record_bound_clauses(session: ExtractionSession) -> None:
    """Evidence for every filter/HAVING predicate the bound pass installed.

    The all-equal bisections and family-classification probes established the
    whole bound set collectively, so each rendered predicate cites the
    module's probe range rather than a per-predicate slice.
    """
    provenance = session.provenance
    if not provenance.enabled:
        return
    for predicate in session.query.filters:
        provenance.accept(
            "filters",
            predicate.to_sql(),
            "having_bounds",
            detail="all-equal axis bisection; mixed-value probes matched filter semantics",
            claim=False,
            include_module_probes=True,
            key=("filters", (predicate.column.table, predicate.column.column)),
        )
    for predicate in session.query.having:
        provenance.accept(
            "having",
            predicate.to_sql(),
            "having_bounds",
            detail=(
                f"all-equal axis bisection; classified as {predicate.aggregate} "
                "by cardinality/mixed-value probes"
            ),
            claim=False,
            include_module_probes=True,
        )


# --- unified bound extraction ---------------------------------------------------


def _numeric_candidates(session: ExtractionSession) -> list[ColumnNode]:
    columns = []
    for table in session.query.tables:
        for column in session.nonkey_columns(table):
            col_type = session.column_type(column)
            if col_type.is_numeric or col_type.is_temporal:
                columns.append(column)
    return columns


def _set_all_probe(session: ExtractionSession, column: ColumnNode, value) -> bool:
    """Set every row of the column to ``value``; True if populated."""
    schema = session.silo.schema(column.table)
    index = schema.column_index(column.column)
    rows = [
        row[:index] + (value,) + row[index + 1 :]
        for row in session.silo.rows(column.table)
    ]
    return not session.run_on({column.table: rows}).is_effectively_empty


def _extract_unified_bounds(session: ExtractionSession) -> list[_Bound]:
    bounds: list[_Bound] = []
    for column in _numeric_candidates(session):
        axis = Axis.of(session, column)

        def probe(axis_value: int) -> bool:
            return _set_all_probe(session, column, axis.from_axis(axis_value))

        anchor = _current_axis_anchor(session, column, axis)
        lo_ok, hi_ok = probe(axis.lo), probe(axis.hi)
        if not lo_ok:
            flip = first_populated(axis.lo + 1, anchor, probe)
            bounds.append(_Bound(column=column, side="lower", axis_value=flip))
        if not hi_ok:
            flip = last_populated(anchor, axis.hi - 1, probe)
            bounds.append(_Bound(column=column, side="upper", axis_value=flip))
    return bounds


def _current_axis_anchor(session, column: ColumnNode, axis: Axis) -> int:
    """An axis value known to qualify: the column's mean would not be safe for
    min/max bounds, so use a value present in D_min — for all-equal probes any
    current value works because the *current* database is populated... except
    sum bounds, where the all-equal anchor must be probed explicitly."""
    schema = session.silo.schema(column.table)
    index = schema.column_index(column.column)
    values = [row[index] for row in session.silo.rows(column.table)]
    anchor = max(values)
    anchor_axis = axis.to_axis(anchor)
    if _set_all_probe(session, column, axis.from_axis(anchor_axis)):
        return anchor_axis
    # For tight sum windows the max may overshoot; scan the present values.
    for value in sorted(set(values)):
        candidate = axis.to_axis(value)
        if _set_all_probe(session, column, axis.from_axis(candidate)):
            return candidate
    raise UnsupportedQueryError(
        f"no all-equal qualifying value found for {column}; the HAVING window "
        "is narrower than this pipeline's probes support"
    )


# --- family classification ------------------------------------------------------


def _doubled_rows(session, table: str) -> list[tuple]:
    rows = session.silo.rows(table)
    return [row for row in rows for _ in (0, 1)]


def _mixed_probe(
    session, column: ColumnNode, x, y
) -> bool:
    """Duplicate the column's rows pairwise with values (x, y); populated?"""
    schema = session.silo.schema(column.table)
    index = schema.column_index(column.column)
    rows = []
    for row in session.silo.rows(column.table):
        rows.append(row[:index] + (x,) + row[index + 1 :])
        rows.append(row[:index] + (y,) + row[index + 1 :])
    return not session.run_on({column.table: rows}).is_effectively_empty


def _classify_families(session: ExtractionSession, bounds: list[_Bound]) -> None:
    sum_seen = False
    for bound in bounds:
        axis = Axis.of(session, bound.column)
        if _is_sum_bound(session, bound, axis):
            if sum_seen:
                raise UnsupportedQueryError(
                    "multiple sum-HAVING bounds are outside the supported class"
                )
            sum_seen = True
            bound.family = "sum"
            bound.constant = _resolve_sum_constant(session, bound, axis)
            continue
        bound.family = _classify_invariant_family(session, bound, axis)
        bound.constant = axis.from_axis(bound.axis_value)


def _is_sum_bound(session, bound: _Bound, axis: Axis) -> bool:
    """Doubling the rows halves a sum threshold on the all-equal axis."""
    table = bound.column.table
    n = session.silo.row_count(table)
    if n < 1:
        return False
    original_rows = session.silo.rows(table)
    doubled = _doubled_rows(session, table)
    schema = session.silo.schema(table)
    index = schema.column_index(bound.column.column)

    def probe(axis_value: int) -> bool:
        value = axis.from_axis(axis_value)
        rows = [row[:index] + (value,) + row[index + 1 :] for row in doubled]
        return not session.run_on({table: rows}).is_effectively_empty

    if bound.side == "lower":
        just_below = bound.axis_value - 1
        if just_below <= axis.lo:
            return False
        # a sum bound relaxes per-row under doubling; the others do not
        return probe(_halfway(axis, bound.axis_value, "lower")) or probe(just_below)
    just_above = bound.axis_value + 1
    if just_above >= axis.hi:
        return False
    return probe(_halfway(axis, bound.axis_value, "upper")) or probe(just_above)


def _halfway(axis: Axis, flip: int, side: str) -> int:
    if side == "lower":
        return max(axis.lo + 1, flip // 2 if flip > 0 else flip * 2)
    return min(axis.hi - 1, flip * 2 if flip > 0 else flip // 2)


def _resolve_sum_constant(session, bound: _Bound, axis: Axis):
    """Recover the exact sum threshold: fix n-1 rows, bisect the last."""
    table = bound.column.table
    schema = session.silo.schema(table)
    index = schema.column_index(bound.column.column)
    rows = session.silo.rows(table)
    n = len(rows)
    pivot_axis = bound.axis_value
    pivot = axis.from_axis(pivot_axis)
    fixed = [row[:index] + (pivot,) + row[index + 1 :] for row in rows[:-1]]

    def probe(axis_value: int) -> bool:
        last = rows[-1][:index] + (axis.from_axis(axis_value),) + rows[-1][index + 1 :]
        return not session.run_on({table: fixed + [last]}).is_effectively_empty

    if bound.side == "lower":
        w_star = first_populated(axis.lo + 1, pivot_axis, probe)
    else:
        w_star = last_populated(pivot_axis, axis.hi - 1, probe)
    return axis.from_axis(pivot_axis * (n - 1) + w_star)


def _classify_invariant_family(session, bound: _Bound, axis: Axis) -> str:
    """Separate filter / min (or max) / avg via mixed-value probes."""
    delta = 1
    flip = bound.axis_value
    if bound.side == "lower":
        x_minmax = flip - delta
        y_minmax = flip + 3 * delta
        x_avg = flip - 3 * delta
        y_avg = flip + delta
        extreme_family = "min"
    else:
        x_minmax = flip + delta
        y_minmax = flip - 3 * delta
        x_avg = flip + 3 * delta
        y_avg = flip - delta
        extreme_family = "max"

    in_domain = lambda v: axis.lo <= v <= axis.hi
    if not all(in_domain(v) for v in (x_minmax, y_minmax, x_avg, y_avg)):
        return "filter"  # cramped window: default to the filter rendering

    if not _mixed_probe(
        session,
        bound.column,
        axis.from_axis(x_minmax),
        axis.from_axis(y_minmax),
    ):
        return extreme_family
    if not _mixed_probe(
        session,
        bound.column,
        axis.from_axis(x_avg),
        axis.from_axis(y_avg),
    ):
        return "avg"
    return "filter"


# --- bound installation --------------------------------------------------------


def _install_bounds(session: ExtractionSession, bounds: list[_Bound]) -> None:
    """Record bounds as filters / HAVING predicates plus s-value guards."""
    by_column: dict[ColumnNode, dict[str, _Bound]] = {}
    for bound in bounds:
        by_column.setdefault(bound.column, {})[bound.side] = bound

    for column, sides in by_column.items():
        axis = Axis.of(session, column)
        domain_lo = axis.from_axis(axis.lo)
        domain_hi = axis.from_axis(axis.hi)
        lower = sides.get("lower")
        upper = sides.get("upper")
        families = {b.family for b in sides.values()}

        def add_filter(lo, hi):
            session.query.filters.append(
                NumericFilter(
                    column=column,
                    lo=lo,
                    hi=hi,
                    domain_lo=domain_lo,
                    domain_hi=domain_hi,
                )
            )

        def add_having(aggregate, lo=None, hi=None):
            session.query.having.append(
                HavingPredicate(
                    aggregate=aggregate,
                    column=column,
                    lo=lo,
                    hi=hi,
                    domain_lo=domain_lo,
                    domain_hi=domain_hi,
                )
            )

        if families <= {"filter", "min", "max"}:
            lo = lower.constant if lower else domain_lo
            hi = upper.constant if upper else domain_hi
            if families == {"filter"}:
                add_filter(lo, hi)
            else:
                if lower and lower.family == "min":
                    add_having("min", lo=lower.constant)
                if upper and upper.family == "max":
                    add_having("max", hi=upper.constant)
                # a filter-family side alongside a min/max side
                if lower and lower.family == "filter":
                    add_filter(lower.constant, domain_hi)
                if upper and upper.family == "filter":
                    add_filter(domain_lo, upper.constant)
            session.svalue_guards[column] = (lo, hi)
            continue

        if "avg" in families:
            lo = lower.constant if lower and lower.family == "avg" else None
            hi = upper.constant if upper and upper.family == "avg" else None
            add_having("avg", lo=lo, hi=hi)
            # a non-avg side on the same column keeps its own rendering
            for side_bound in (lower, upper):
                if side_bound is None or side_bound.family == "avg":
                    continue
                if side_bound.family != "filter":
                    raise UnsupportedQueryError(
                        f"mixed {side_bound.family}/avg bounds on {column} are "
                        "outside the supported class"
                    )
                if side_bound.side == "lower":
                    add_filter(side_bound.constant, domain_hi)
                else:
                    add_filter(domain_lo, side_bound.constant)
            guard_lo = lo if lo is not None else domain_lo
            guard_hi = hi if hi is not None else domain_hi
            if lower and lower.family == "filter":
                guard_lo = max(guard_lo, lower.constant)
            if upper and upper.family == "filter":
                guard_hi = min(guard_hi, upper.constant)
            session.svalue_guards[column] = (guard_lo, guard_hi)
            continue

        if "sum" in families:
            bound = lower if lower and lower.family == "sum" else upper
            if bound.side == "lower":
                if bound.constant <= 0:
                    raise UnsupportedQueryError(
                        "sum-HAVING lower bounds require positive thresholds"
                    )
                add_having("sum", lo=bound.constant)
                # single rows at >= the threshold qualify any group size
                session.svalue_guards[column] = (bound.constant, domain_hi)
            else:
                add_having("sum", hi=bound.constant)
                # groups in probe databases hold at most ~32 rows
                guard_hi = _scaled_guard(session, column, bound.constant, 32)
                session.svalue_guards[column] = (domain_lo, guard_hi)
            continue

        raise UnsupportedQueryError(
            f"unsupported bound family combination on {column}: {families}"
        )


def _scaled_guard(session, column: ColumnNode, constant, divisor: int):
    axis = Axis.of(session, column)
    scaled = axis.to_axis(constant) // divisor
    if scaled <= axis.lo:
        raise UnsupportedQueryError(
            f"sum-HAVING upper bound on {column} is too tight for probe groups"
        )
    return axis.from_axis(scaled)


# --- template D^1 + count bounds -----------------------------------------------


def _install_template_d1(session: ExtractionSession) -> None:
    """Reduce D_min to a single logical row per table, mutated to qualify.

    Rows drawn from different tables of a multi-row ``D_min`` need not join
    with each other, so every join-clique column is pinned to the canonical
    key value 1 (keys carry no filters in EQC); non-key columns are clamped
    into their discovered HAVING/filter guards.
    """
    clique_columns: set[ColumnNode] = set()
    for clique in session.query.join_cliques:
        clique_columns.update(clique.columns)

    template: dict[str, tuple] = {}
    for table in session.query.tables:
        row = list(session.silo.rows(table)[0])
        schema = session.silo.schema(table)
        for column, guard in session.svalue_guards.items():
            if column.table != table:
                continue
            index = schema.column_index(column.column)
            lo, hi = guard
            value = row[index]
            if lo is not None and value < lo:
                value = lo
            if hi is not None and value > hi:
                value = hi
            row[index] = value
        for column in clique_columns:
            if column.table == table:
                row[schema.column_index(column.column)] = 1
        template[table] = tuple(row)
    session.set_d1(template)


def _detect_count_bounds(session: ExtractionSession) -> None:
    """Bisect the template multiplicity for a count(*) lower bound."""
    if not session.run().is_effectively_empty:
        _reject_count_upper_bound(session)
        return  # single rows qualify: no count lower bound

    table = max(session.query.tables, key=lambda t: len(session.silo.rows(t)))
    base_row = session.d1[table]
    j = 2
    while j <= _MAX_COUNT_BOUND:
        result = session.run_on({table: [base_row] * j})
        if not result.is_effectively_empty:
            break
        j *= 2
    else:
        raise UnsupportedQueryError(
            "template database never qualifies — the HAVING class is outside "
            "this pipeline's scope"
        )
    count_bound = first_populated(
        j // 2 + 1,
        j,
        lambda m: not session.run_on({table: [base_row] * m}).is_effectively_empty,
    )
    session.probe_multiplier = count_bound
    session.multiplier_table = table
    session.set_d1(dict(session.d1))  # reinstall with the multiplier applied
    if session.run().is_effectively_empty:
        raise ExtractionError("template database with multiplier does not qualify")
    predicate = HavingPredicate(
        aggregate="count",
        column=None,
        lo=count_bound,
        hi=None,
        domain_lo=0,
        domain_hi=10**9,
    )
    session.query.having.append(predicate)
    if session.provenance.enabled:
        session.provenance.accept(
            "having",
            predicate.to_sql(),
            "having_count",
            detail=(
                f"template multiplicity bisection: {count_bound} rows is the "
                "smallest qualifying replication"
            ),
        )
    _reject_count_upper_bound(session)


def _reject_count_upper_bound(session: ExtractionSession) -> None:
    table = session.multiplier_table or session.query.tables[0]
    base_row = session.d1[table]
    stress = max(8, session.probe_multiplier * 8)
    if session.run_on({table: [base_row] * stress}).is_effectively_empty:
        raise UnsupportedQueryError(
            "a count(*) upper bound was detected; it would invalidate "
            "multi-row probe databases and is outside the supported class"
        )


# --- remaining clause extraction ------------------------------------------------


def extract_text_filters(session: ExtractionSession) -> None:
    """The §7 ``filters`` step: only textual columns are left to screen —
    numeric filters were found with the bounds."""
    with session.module("filters"):
        provenance = session.provenance
        for table in session.query.tables:
            for column in session.nonkey_columns(table):
                if not session.column_type(column).is_textual:
                    continue
                predicate = _check_textual(session, column)
                if predicate is not None:
                    session.query.filters.append(predicate)
                    if provenance.enabled:
                        provenance.accept(
                            "filters",
                            predicate.to_sql(),
                            "filters",
                            detail=f"column {column.table}.{column.column}",
                            key=("filters", (column.table, column.column)),
                        )
                elif provenance.enabled:
                    provenance.reject(
                        "filters",
                        f"{column.table}.{column.column}",
                        "filters",
                        detail="no textual predicate on this column",
                    )


def reject_sum_outputs(session: ExtractionSession) -> None:
    for output in session.query.outputs:
        if output.aggregate == "sum":
            raise UnsupportedQueryError(
                "sum-aggregated projections cannot be extracted together with "
                "a count(*) HAVING bound (probe multiplier would scale the "
                "projection function)"
            )
