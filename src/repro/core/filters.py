"""Filter predicate extraction (paper §4.4).

Every non-key column of the query tables is screened on the single-row
database ``D^1`` by two group-tested screens (``core/grouptest.py``): the lo
screen mutates columns to their domain minimum (``""`` for text), the hi
screen to their domain maximum (``"a"``).  Predicates are conjunctive and
each involves one column, so a joint probe over several columns, in any
tables, stays populated exactly when none of them carries a predicate; a
column the joint probes do not clear gets exactly the per-column probe.
Only the columns whose extremes are not both populated go on to:

* **Numeric / date columns** — the populated/empty pattern of the two
  extreme probes selects one of the four cases of Table 2, and binary
  searches recover the precise bounds.  Dates are probed
  on the day axis; fixed-precision decimals on an integer axis scaled by
  ``10^scale`` (equivalent to the paper's two-phase integral+fractional
  search, folded into one).
* **Textual columns** — the empty-string and single-character probes decide
  existence; the Minimal Qualifying String is recovered by per-character
  replacement; wildcard gaps (runs of non-intrinsic characters, including the
  string boundaries) are sized by deletion/insertion probes that distinguish
  ``_`` (exact length) from ``%`` (variable length) — the reconstruction of
  the technical-report algorithm documented in DESIGN.md §5.

The NULL-aware path (``extract_null_predicates``) keeps one full check per
column.
"""

from __future__ import annotations

from typing import Callable

from repro.core.grouptest import CLEARED, Screen, group_test, own_probes
from repro.core.model import Filter, NumericFilter, TextFilter
from repro.core.session import ExtractionSession
from repro.core.svalues import Axis
from repro.engine.types import VarcharType
from repro.errors import ExtractionError, UnsupportedQueryError
from repro.sgraph.schema_graph import ColumnNode

_FILLER_ALPHABET = "zqjxkw"


def extract_filters(session: ExtractionSession) -> list[Filter]:
    """Identify ``F_E`` and record it on the session's query.

    Columns are independent: every probe mutates only the columns under test
    while all other columns of ``D^1`` keep satisfying their own conjunctive
    predicates.  So two group-tested screens (:func:`_screen_extremes`) find
    the columns whose domain extremes empty the result, and only those go on
    to the bound searches and LIKE reconstruction, one column per task of the
    session's probe scheduler (``--jobs``).  Results come back in column
    order, so the extracted filter list is identical to the sequential
    schedule's.  The NULL-aware path keeps one full check per column.
    """
    with session.module("filters"):
        columns = [
            column
            for table in session.query.tables
            for column in session.nonkey_columns(table)
        ]
        if session.config.extract_null_predicates:
            checks = [(column, None) for column in columns]
        else:
            checks = _screen_extremes(session, columns)
        predicates = session.scheduler.map(checks, _check_column, label="filters")
        filters = [p for p in predicates if p is not None]
        session.query.filters = filters
        return filters


def _screen_extremes(
    session: ExtractionSession, columns: list[ColumnNode]
) -> list[tuple[ColumnNode, tuple[bool, bool]]]:
    """``(column, (populated_min, populated_max))`` for every column whose
    two extreme probes are not both populated (Table 2, Cases 2-4).

    The lo screen mutates numeric and date columns to their domain minimum
    and text columns to ``""``; the hi screen mutates them to the domain
    maximum and ``"a"``.  A text column whose ``""`` probe is empty skips
    the hi screen, as its per-column check always did.  A joint probe over
    several columns, possibly in several tables, is populated exactly when
    none of them carries a predicate, so it clears them all; a column that
    is not cleared gets its own per-column probe.
    """
    lo_items = [(column, _extreme(session, column, high=False)) for column in columns]
    lo = _extreme_screen(session, lo_items, "lo")
    # A column bounded below is usually bounded above too (BETWEEN,
    # equality): the hi screen puts the numeric ones first, so its positives
    # sit together and fewer joint probes split.
    hi_columns = [
        column
        for column, populated in zip(columns, lo)
        if not populated and not session.column_type(column).is_textual
    ] + [column for column, populated in zip(columns, lo) if populated]
    hi_items = [(column, _extreme(session, column, high=True)) for column in hi_columns]
    hi = dict(zip(hi_columns, _extreme_screen(session, hi_items, "hi")))
    flagged = []
    for column, populated_min in zip(columns, lo):
        populated_max = hi.get(column, False)
        if not (populated_min and populated_max):
            flagged.append((column, (populated_min, populated_max)))
    return flagged


def _extreme(session: ExtractionSession, column: ColumnNode, high: bool):
    col_type = session.column_type(column)
    if col_type.is_numeric or col_type.is_temporal:
        axis = Axis.of(session, column)
        return axis.from_axis(axis.hi if high else axis.lo)
    if col_type.is_textual:
        return "a" if high else ""
    raise ExtractionError(f"unsupported column type for {column}: {col_type.name}")


def _extreme_screen(
    session: ExtractionSession, items: list[tuple[ColumnNode, object]], side: str
) -> list[bool]:
    """Whether each ``(column, value)`` probe is populated."""

    def joint(ctx, group):
        result = ctx.run_on_d1_cells(dict(group))
        return result.row_count == 1 and not result.is_effectively_empty

    def single(ctx, item):
        column, value = item
        before = len(ctx.provenance.events)
        if isinstance(value, str):
            populated = _text_probe(ctx, column, value)
        else:
            populated = not ctx.run_on_d1_mutation(
                column.table, {column.column: value}
            ).is_effectively_empty
        if ctx.provenance.enabled:
            ctx.provenance.refine(
                "filters",
                f"{column.table}.{column.column}",
                "filters",
                detail=f"{side} extreme probe "
                + ("populated" if populated else "empty"),
                key=("filters", (column.table, column.column)),
                claim=False,
                extra_evidence=own_probes(ctx.provenance, before),
            )
        return populated

    (outcomes,) = group_test(
        session,
        [
            Screen(
                items=items,
                joint=joint,
                single=single,
                clause="filters",
                describe=lambda item: f"{item[0].table}.{item[0].column}",
            )
        ],
        label="filters",
    )
    return [outcome is CLEARED or outcome for outcome in outcomes]


def _check_column(
    session: ExtractionSession, check: tuple[ColumnNode, tuple[bool, bool] | None]
) -> Filter | None:
    """One column's predicate.  ``check`` is ``(column, extremes)``, where
    ``extremes`` is the screens' ``(populated_min, populated_max)``, or None
    on the NULL-aware path, which makes every probe itself."""
    column, extremes = check
    col_type = session.column_type(column)
    provenance = session.provenance
    before = len(provenance.events)
    if extremes is None:
        predicate = _check_with_null_probes(session, column, col_type)
    else:
        predicate = _check_valued(session, column, col_type, extremes)
    # Clause evidence: every probe this column's check issued.  The
    # NULL-aware path claims them from the pool (each task's recorder pool
    # holds exactly its own probes, sequentially the pool holds the probes
    # since the previous column's claim); a screened column cites them,
    # because the screens leave their own probes in the pool.
    if provenance.enabled:
        if predicate is not None:
            provenance.accept(
                "filters",
                predicate.to_sql(),
                "filters",
                detail=f"column {column.table}.{column.column}",
                key=("filters", (column.table, column.column)),
                claim=extremes is None,
                extra_evidence=() if extremes is None else own_probes(provenance, before),
            )
        else:
            provenance.reject(
                "filters",
                f"{column.table}.{column.column}",
                "filters",
                detail="no predicate on this column",
            )
    return predicate


def _check_valued(
    session: ExtractionSession, column: ColumnNode, col_type, extremes=None
) -> Filter | None:
    """The value predicate on ``column``; ``extremes`` is its known
    ``(populated_min, populated_max)``, probed here when None."""
    if col_type.is_numeric or col_type.is_temporal:
        return _check_numeric(session, column, extremes)
    if col_type.is_textual:
        return _check_textual(session, column, extremes)
    raise ExtractionError(f"unsupported column type for {column}: {col_type.name}")


def _check_with_null_probes(
    session: ExtractionSession, column: ColumnNode, col_type
) -> Filter | None:
    """NULL-aware filter detection (technical-report reconstruction).

    A NULL probe (set the ``D^1`` value to NULL) is combined with the
    standard valued probes:

    * anchor value is NULL → only ``IS NULL`` or no predicate are possible;
      a valued probe separates them;
    * NULL probe fails + valued extraction finds nothing → ``IS NOT NULL``;
    * NULL probe passes + a valued predicate exists → ``pred OR IS NULL``,
      a disjunction outside the supported class (reported as such).

    Ambiguity limit: when the column feeds *every* output, a NULL anchor
    nullifies the whole result row and the probe misreads it as emptiness —
    hence this path is opt-in (see DESIGN.md §5).
    """
    from repro.core.model import NullFilter

    null_populated = not session.run_on_d1_mutation(
        column.table, {column.column: None}
    ).is_effectively_empty

    if session.d1_value(column) is None:
        probe_value = _representative_value(session, column, col_type)
        value_populated = not session.run_on_d1_mutation(
            column.table, {column.column: probe_value}
        ).is_effectively_empty
        if value_populated:
            return None  # nullable column without a predicate
        return NullFilter(column=column, negated=False)

    valued = _check_valued(session, column, col_type)
    if valued is not None and null_populated:
        raise UnsupportedQueryError(
            f"column {column} combines a value predicate with NULL "
            "acceptance (pred OR IS NULL): outside the supported class"
        )
    if valued is None and not null_populated:
        return NullFilter(column=column, negated=True)
    return valued


def _representative_value(session: ExtractionSession, column: ColumnNode, col_type):
    if col_type.is_textual:
        return "a"
    axis = Axis.of(session, column)
    return axis.from_axis(axis.lo)


# --- numeric / date -------------------------------------------------------


def _check_numeric(
    session: ExtractionSession, column: ColumnNode, extremes=None
) -> NumericFilter | None:
    axis = Axis.of(session, column)
    if extremes is None:
        extremes = (
            _numeric_probe(session, column, axis, axis.lo),
            _numeric_probe(session, column, axis, axis.hi),
        )
    populated_min, populated_max = extremes
    if populated_min and populated_max:
        return None  # Table 2, Case 1

    anchor = axis.to_axis(session.d1_value(column))

    def probe(axis_value: int) -> bool:
        return _numeric_probe(session, column, axis, axis_value)

    lo_axis, hi_axis = axis.lo, axis.hi
    if not populated_min:  # Cases 2 and 4: find l over (i_min, a]
        lo_axis = first_populated(axis.lo + 1, anchor, probe)
    if not populated_max:  # Cases 3 and 4: find r over [a, i_max)
        hi_axis = last_populated(anchor, axis.hi - 1, probe)
    return NumericFilter(
        column=column,
        lo=axis.from_axis(lo_axis),
        hi=axis.from_axis(hi_axis),
        domain_lo=axis.from_axis(axis.lo),
        domain_hi=axis.from_axis(axis.hi),
    )


def _numeric_probe(
    session: ExtractionSession, column: ColumnNode, axis: Axis, axis_value: int
) -> bool:
    result = session.run_on_d1_mutation(
        column.table, {column.column: axis.from_axis(axis_value)}
    )
    return not result.is_effectively_empty


def first_populated(lo: int, hi: int, probe: Callable[[int], bool]) -> int:
    """Smallest ``x`` in ``[lo, hi]`` with ``probe(x)`` True.

    ``probe`` must be monotone (False up to some point, True from there on)
    and ``probe(hi)`` known True, so ``hi`` itself is never probed.  Every
    bound search of the extractor uses this helper or its mirror
    :func:`last_populated`.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def last_populated(lo: int, hi: int, probe: Callable[[int], bool]) -> int:
    """Largest ``x`` in ``[lo, hi]`` with ``probe(x)`` True; the mirror of
    :func:`first_populated`, with ``probe(lo)`` known True."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


# --- textual ---------------------------------------------------------------


def _check_textual(
    session: ExtractionSession, column: ColumnNode, extremes=None
) -> TextFilter | None:
    """The LIKE pattern on a text column; ``extremes`` is its known
    ``("", "a")`` probe outcomes, probed here when None."""
    if extremes is None:
        populated_min = _text_probe(session, column, "")
        extremes = (populated_min, populated_min and _text_probe(session, column, "a"))
    if all(extremes):
        # Populated in both extremes occurs only for the vacuous `like '%'`.
        return None

    rep = session.d1_value(column)
    if not isinstance(rep, str):
        raise ExtractionError(f"expected string value in D^1 for {column}")

    # A representative string can satisfy the pattern redundantly (e.g. two
    # occurrences of the MQS under a '%...%' filter), in which case no single
    # character is intrinsic.  Minimize the representative first so the MQS
    # appears exactly once.
    rep = _minimize_representative(session, column, rep)

    intrinsic = _intrinsic_mask(session, column, rep)
    pattern = _build_pattern(session, column, rep, intrinsic)
    return TextFilter(column=column, pattern=pattern)


def _minimize_representative(
    session: ExtractionSession, column: ColumnNode, rep: str
) -> str:
    """Shortest substring-deleted variant of ``rep`` that still qualifies.

    ddmin-style character-chunk deletion: each removal is kept only if the
    application's result stays populated, converging to a 1-minimal
    qualifying string (every remaining character is load-bearing for some
    wildcard gap or MQS position).
    """
    current = rep
    granularity = 2
    while len(current) > 1:
        chunk = max(1, (len(current) + granularity - 1) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if _text_probe(session, column, candidate):
                current = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(current), granularity * 2)
    if current != rep:
        session.update_d1(column.table, {column.column: current})
        session.provenance.mutation(
            "filters",
            f"{column.table}.{column.column}",
            detail=f"representative minimized to {len(current)} chars",
        )
    return current


def _text_probe(session: ExtractionSession, column: ColumnNode, value: str) -> bool:
    max_length = _max_length(session, column)
    if len(value) > max_length:
        return False  # unrepresentable strings trivially fail the filter
    result = session.run_on_d1_mutation(column.table, {column.column: value})
    return not result.is_effectively_empty


def _max_length(session: ExtractionSession, column: ColumnNode) -> int:
    col_type = session.column_type(column)
    if isinstance(col_type, VarcharType):
        return col_type.max_length
    return 10**6


def _intrinsic_mask(
    session: ExtractionSession, column: ColumnNode, rep: str
) -> list[bool]:
    """True at positions whose character belongs to the MQS."""
    mask = []
    for i, ch in enumerate(rep):
        substitute = _different_char(ch)
        candidate = rep[:i] + substitute + rep[i + 1 :]
        mask.append(not _text_probe(session, column, candidate))
    return mask


def _different_char(ch: str) -> str:
    for option in _FILLER_ALPHABET:
        if option != ch:
            return option
    return "a"


def _build_pattern(
    session: ExtractionSession, column: ColumnNode, rep: str, intrinsic: list[bool]
) -> str:
    """Reassemble the LIKE pattern from the MQS and per-gap length probes.

    The representative string decomposes into intrinsic characters separated
    by *gaps* of wildcard-matched characters (gaps also exist at the string
    boundaries, possibly empty).  For each gap we probe which filler lengths
    keep the result populated: an exact single length ``m`` means ``_ * m``;
    a range means ``_ * m`` followed by ``%``.
    """
    mqs_chars = [ch for ch, keep in zip(rep, intrinsic) if keep]
    filler = _gap_filler(mqs_chars)

    # Split rep into alternating gap/literal segments.
    gap_lengths: list[int] = []
    literals: list[str] = []
    current_gap = 0
    current_literal: list[str] = []
    for ch, keep in zip(rep, intrinsic):
        if keep:
            if current_literal:
                current_literal.append(ch)
            else:
                gap_lengths.append(current_gap)
                current_gap = 0
                current_literal = [ch]
        else:
            if current_literal:
                literals.append("".join(current_literal))
                current_literal = []
            current_gap += 1
    if current_literal:
        literals.append("".join(current_literal))
    gap_lengths.append(current_gap)
    # Now: len(gap_lengths) == len(literals) + 1, alternating gap, lit, gap, ...

    pattern_parts: list[str] = []
    for index, gap in enumerate(gap_lengths):
        min_len, has_percent = _probe_gap(
            session, column, literals, gap_lengths, index, filler
        )
        pattern_parts.append("_" * min_len + ("%" if has_percent else ""))
        if index < len(literals):
            pattern_parts.append(literals[index])
    return "".join(pattern_parts)


def _gap_filler(mqs_chars: list[str]) -> str:
    used = set(mqs_chars)
    for option in _FILLER_ALPHABET:
        if option not in used:
            return option
    raise ExtractionError("could not choose a filler character for LIKE probing")


def _assemble_candidate(
    literals: list[str], gap_lengths: list[int], index: int, length: int, filler: str
) -> str:
    parts: list[str] = []
    for i, gap in enumerate(gap_lengths):
        size = length if i == index else gap
        parts.append(filler * size)
        if i < len(literals):
            parts.append(literals[i])
    return "".join(parts)


def _probe_gap(
    session: ExtractionSession,
    column: ColumnNode,
    literals: list[str],
    gap_lengths: list[int],
    index: int,
    filler: str,
) -> tuple[int, bool]:
    """Determine (min length, %-present) for one wildcard gap."""
    gap = gap_lengths[index]
    populated_lengths: list[int] = []
    for length in range(0, gap + 2):
        candidate = _assemble_candidate(literals, gap_lengths, index, length, filler)
        if _text_probe(session, column, candidate):
            populated_lengths.append(length)
    if not populated_lengths:
        raise ExtractionError(
            f"LIKE gap probing failed for {column}: no filler length qualifies"
        )
    min_len = populated_lengths[0]
    has_percent = len(populated_lengths) > 1
    return min_len, has_percent
