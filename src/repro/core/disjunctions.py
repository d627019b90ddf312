"""Disjunctive filter extraction — the paper's §9 future-work extension.

The paper concludes that "disjunctions ... could eventually be extracted
under some restrictions"; this module implements one such restricted scheme,
enabled with ``ExtractionConfig(extract_disjunctions=True)``:

* **Witnessed constants.**  Candidate values come from the initial instance's
  per-column samples (``session.di_samples``) plus the standard probe seeds
  (domain extremes, the ``D^1`` anchor).  A disjunct no value of ``D_I``
  witnesses is unobservable to this scheme — the restriction under which
  extraction is sound for the instance at hand (and the built-in checker
  validates the result differentially).
* **Textual columns** → ``col in (v1, v2, ...)``: if the equality constant
  recovered by the standard pipeline has qualifying siblings among the
  witnessed values, the filter generalises to an IN-list.  (Combining extra
  constants with a wildcard pattern is rejected as unsupported.)
* **Numeric/date columns** → a union of closed intervals: every qualifying
  seed outside the intervals found so far spawns edge bisections (the same
  binary searches as §4.4, anchored at that seed), until all witnessed
  qualifying values are covered.  This also captures hole-shaped predicates
  (``a <= col or col >= b``) that the standard Table 2 analysis reads as
  "no filter" because both domain extremes qualify.
"""

from __future__ import annotations

from repro.core.filters import (
    _numeric_probe,
    _text_probe,
    first_populated,
    last_populated,
)
from repro.core.model import (
    Filter,
    InListFilter,
    MultiRangeFilter,
    NumericFilter,
    TextFilter,
)
from repro.core.session import ExtractionSession
from repro.core.svalues import Axis
from repro.errors import UnsupportedQueryError
from repro.sgraph.schema_graph import ColumnNode

_MAX_SEEDS = 12


def refine_disjunctions(session: ExtractionSession) -> list[Filter]:
    """Upgrade conjunctive filters to witnessed disjunctions where needed."""
    with session.module("disjunctions"):
        provenance = session.provenance
        refined: list[Filter] = []
        handled: set[ColumnNode] = set()
        for predicate in session.query.filters:
            handled.add(predicate.column)
            upgraded = _refine_existing(session, predicate)
            refined.append(upgraded)
            if provenance.enabled:
                # Claim the witness/bisection probes this predicate's pass
                # issued; the key links back to the conjunctive extraction's
                # chain so the final rendering keeps its full ancestry even
                # when the predicate survives unchanged (different target).
                provenance.refine(
                    "filters",
                    upgraded.to_sql(),
                    "disjunctions",
                    detail=(
                        "witnessed disjunction pass "
                        + (
                            "upgraded the conjunctive predicate"
                            if upgraded is not predicate
                            else "confirmed the conjunctive predicate"
                        )
                    ),
                    key=(
                        "filters",
                        (predicate.column.table, predicate.column.column),
                    ),
                )
        # Columns the standard pipeline saw as filter-free may still carry a
        # hole-shaped numeric disjunction (both domain extremes qualify).
        for table in session.query.tables:
            for column in session.nonkey_columns(table):
                if column in handled:
                    continue
                col_type = session.column_type(column)
                if not (col_type.is_numeric or col_type.is_temporal):
                    continue
                hole = _detect_hole(session, column)
                if hole is not None:
                    refined.append(hole)
                    if provenance.enabled:
                        provenance.accept(
                            "filters",
                            hole.to_sql(),
                            "disjunctions",
                            detail="hole-shaped disjunction found by witnessed seeds",
                            key=("filters", (column.table, column.column)),
                        )
                elif provenance.enabled:
                    # drain this column's hole probes so the next accept's
                    # claim cites only its own evidence
                    provenance.reject(
                        "filters",
                        f"{column.table}.{column.column}",
                        "disjunctions",
                        detail="no witnessed hole: column stays filter-free",
                    )
        session.query.filters = refined
        return refined


# --- textual IN-lists ---------------------------------------------------------


def _refine_existing(session: ExtractionSession, predicate: Filter) -> Filter:
    if isinstance(predicate, TextFilter):
        return _refine_text(session, predicate)
    if isinstance(predicate, NumericFilter):
        return _refine_numeric(session, predicate)
    return predicate


def _refine_text(session: ExtractionSession, predicate: TextFilter) -> Filter:
    from repro.engine.expressions import like_matches

    column = predicate.column
    extra: list[str] = []
    for value in session.di_samples.get(column, [])[:_MAX_SEEDS]:
        if not isinstance(value, str):
            continue
        if like_matches(value, predicate.pattern):
            continue
        if _text_probe(session, column, value):
            extra.append(value)
    if not extra:
        return predicate
    if not predicate.is_equality:
        raise UnsupportedQueryError(
            f"column {column} mixes a wildcard pattern with additional "
            "qualifying constants; that disjunction shape is unsupported"
        )
    return InListFilter(column=column, values=tuple(sorted({predicate.pattern, *extra})))


# --- numeric interval unions -----------------------------------------------------


def _refine_numeric(session: ExtractionSession, predicate: NumericFilter) -> Filter:
    """Re-derive the column's qualifying set from witnessed seeds.

    The standard Case-2/3/4 binary searches assume one contiguous range; with
    a hole between the search endpoints they can return a spanning interval.
    Every seed (the ``D^1`` anchor, the extracted endpoints, the ``D_I``
    samples) is probed individually and intervals are rebuilt from the
    qualifying/failing witness pattern.
    """
    column = predicate.column
    axis = Axis.of(session, column)
    seeds = [axis.to_axis(predicate.lo), axis.to_axis(predicate.hi)]
    anchor = session.d1_value(column)
    if anchor is not None:
        seeds.append(axis.to_axis(anchor))
    intervals = _witnessed_intervals(session, column, axis, seeds)
    if not intervals:
        return predicate  # no qualifying witness at all: keep the original
    if len(intervals) == 1:
        lo, hi = intervals[0]
        return NumericFilter(
            column=column,
            lo=axis.from_axis(lo),
            hi=axis.from_axis(hi),
            domain_lo=axis.from_axis(axis.lo),
            domain_hi=axis.from_axis(axis.hi),
        )
    return MultiRangeFilter(
        column=column,
        intervals=tuple((axis.from_axis(lo), axis.from_axis(hi)) for lo, hi in intervals),
        domain_lo=axis.from_axis(axis.lo),
        domain_hi=axis.from_axis(axis.hi),
    )


def _detect_hole(session: ExtractionSession, column: ColumnNode) -> Filter | None:
    """Case-1 columns (both extremes qualify) may hide interior holes."""
    axis = Axis.of(session, column)
    sample_axes = [
        axis.to_axis(v)
        for v in session.di_samples.get(column, [])[:_MAX_SEEDS]
        if v is not None
    ]
    if not sample_axes:
        return None  # nothing witnessed: no hole observable
    intervals = _witnessed_intervals(session, column, axis, sample_axes)
    if len(intervals) < 2:
        return None  # no witnessed hole: genuinely filter-free (or unobservable)
    return MultiRangeFilter(
        column=column,
        intervals=tuple((axis.from_axis(lo), axis.from_axis(hi)) for lo, hi in intervals),
        domain_lo=axis.from_axis(axis.lo),
        domain_hi=axis.from_axis(axis.hi),
    )


def _witnessed_intervals(
    session: ExtractionSession,
    column: ColumnNode,
    axis: Axis,
    extra_seed_axes: list[int],
) -> list[tuple[int, int]]:
    """Qualifying intervals resolved by the witnessed seed pattern.

    Every seed (plus both domain extremes and the ``D_I`` samples) is probed;
    interval edges are bisected between adjacent (qualifying, failing) seed
    pairs.  Two adjacent qualifying seeds with no failing witness between
    them are assumed to share an interval — the documented restriction that
    an unwitnessed disjunct/hole is unobservable to this scheme.
    """
    seeds = {axis.lo, axis.hi}
    seeds.update(extra_seed_axes)
    for value in session.di_samples.get(column, [])[:_MAX_SEEDS]:
        if value is not None:
            seeds.add(axis.to_axis(value))
    ordered = sorted(s for s in seeds if axis.lo <= s <= axis.hi)

    def probe(axis_value: int) -> bool:
        return _numeric_probe(session, column, axis, axis_value)

    verdict = {s: probe(s) for s in ordered}

    intervals: list[tuple[int, int]] = []
    failing = [s for s in ordered if not verdict[s]]
    for seed in ordered:
        if not verdict[seed]:
            continue
        if intervals and seed <= intervals[-1][1]:
            continue
        # Each bisection lands on an edge of *some* qualifying interval;
        # with several intervals in between, later seeds cover the rest.
        below = [f for f in failing if f < seed]
        lo_edge = first_populated(max(below) + 1, seed, probe) if below else axis.lo
        above = [f for f in failing if f > seed]
        hi_edge = last_populated(seed, min(above) - 1, probe) if above else axis.hi
        intervals.append((lo_edge, hi_edge))
    return _merge(intervals)


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
