"""Extraction checker (paper §5.5).

Two complementary verification suites run after assembly:

1. **Randomized differential testing** — several randomized databases are
   generated (join-aligned keys, a mix of filter-satisfying and
   filter-violating values) and the hidden application and the extracted
   query are executed side by side.  Results must agree as multisets, and —
   when an ordering was extracted — by position-dependent checksum on the
   ordered prefix.
2. **XData-lite targeted databases** — small instances crafted to kill common
   extraction mutants: filter boundary probes (values at and just outside the
   extracted constants), join-breaking rows, group-merging rows, and a
   limit-tripping instance.

A mismatch raises :class:`CheckFailedError` (strict mode) or is reported in
the returned :class:`CheckReport`.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from repro.core.dgen import DgenBuilder
from repro.core.limit import LIMIT_PROBE_CAP
from repro.core.model import NumericFilter, TextFilter
from repro.core.session import ExtractionSession
from repro.core.svalues import SValueError, SValueSource
from repro.engine.result import Result
from repro.errors import ExtractionError
from repro.sgraph.schema_graph import ColumnNode

#: Randomized databases generated per check.
RANDOM_DATABASES = 3

#: Rows per table in each randomized database.
RANDOM_ROWS_PER_TABLE = 24


class CheckFailedError(ExtractionError):
    """The extracted query disagreed with the hidden application."""


@dataclass
class CheckReport:
    databases_checked: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_extraction(session: ExtractionSession, svalues: SValueSource) -> CheckReport:
    """Run both verification suites against the assembled query.

    Every candidate database is built first, on the main thread (the random
    ones draw from ``session.rng``, which parallel probe tasks do not have);
    the comparisons then run as one scheduler batch and their mismatches
    are reported in candidate order.
    """
    with session.module("checker"):
        sql = session.query.sql
        candidates = list(_candidate_databases(session, svalues))
        outcomes = session.scheduler.map(
            candidates,
            lambda ctx, rows: _compare_once(ctx, sql, rows),
            label="checker",
        )
        report = CheckReport(
            databases_checked=len(candidates),
            mismatches=[mismatch for mismatch in outcomes if mismatch],
        )
        if session.config.checker_strict and not report.passed:
            raise CheckFailedError(
                "extracted query disagrees with the application on "
                f"{len(report.mismatches)} checker database(s): "
                + "; ".join(report.mismatches[:3])
            )
        return report


def _compare_once(session, sql: str, rows: dict[str, list[tuple]]) -> str | None:
    """Run both queries on ``rows``; the mismatch found, if any."""
    # Both sides must see the *same* physical database, so the probe
    # multiplier (a HAVING-pipeline internal device) is deliberately not
    # applied here: rows are swapped in directly.
    from repro.errors import ReproError

    with session.silo.sandbox():
        for name, table_rows in rows.items():
            session.silo.replace_rows(name, table_rows)
        hidden = session.run()
        try:
            extracted = session.silo.execute(sql)
        except ReproError as exc:
            return f"extracted SQL failed to execute: {exc}"

    limit = session.query.limit
    if limit is not None and hidden.row_count == limit:
        # A tripped LIMIT under ordering ties is nondeterministic: any row
        # tied on the full ordering key at the cut boundary may survive, so
        # equality is required only off the boundary key.
        mismatch = _limited_results_mismatch(session, hidden, extracted)
        if mismatch:
            return mismatch
    elif not _multisets_match(hidden, extracted):
        return f"multiset mismatch ({hidden.row_count} vs {extracted.row_count} rows)"
    if session.query.order_by and not _ordered_prefix_matches(
        session, hidden, extracted
    ):
        return "ordering mismatch (position checksum differs)"
    return None


def _limited_results_mismatch(session, hidden: Result, extracted: Result) -> str | None:
    """Comparison for results cut by LIMIT: boundary-tied rows may differ."""
    if hidden.row_count != extracted.row_count:
        return (
            f"limit cardinality mismatch ({hidden.row_count} vs "
            f"{extracted.row_count} rows)"
        )
    if not session.query.order_by:
        return None  # LIMIT without ORDER BY: any n-row subset is valid
    key_positions = [
        session.query.output_named(spec.output_name).position
        for spec in session.query.order_by
    ]

    def keyed(result: Result):
        rows = _normalize(result)
        return [tuple(row[i] for i in key_positions) for row in rows], rows

    keys_h, rows_h = keyed(hidden)
    keys_e, rows_e = keyed(extracted)
    if keys_h != keys_e:
        return "limit ordering-key mismatch"
    boundary = keys_h[-1]
    from collections import Counter

    off_boundary_h = Counter(
        row for key, row in zip(keys_h, rows_h) if key != boundary
    )
    off_boundary_e = Counter(
        row for key, row in zip(keys_e, rows_e) if key != boundary
    )
    if off_boundary_h != off_boundary_e:
        return "limit off-boundary row mismatch"
    return None


def normalize_rows(result: Result) -> list[tuple]:
    """Result rows with floats rounded to 6 places (comparison canon).

    Shared with the bounded symbolic verifier (:mod:`repro.veriq`), so both
    verification layers agree on what counts as "the same value".
    """
    rows = []
    for row in result.rows:
        rows.append(
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        )
    return rows


def multisets_match(a: Result, b: Result) -> bool:
    """Order-insensitive result equality under :func:`normalize_rows`."""
    from collections import Counter

    return Counter(normalize_rows(a)) == Counter(normalize_rows(b))


# backward-compatible private aliases (internal call sites below)
_normalize = normalize_rows
_multisets_match = multisets_match


def _ordered_prefix_matches(session: ExtractionSession, a: Result, b: Result) -> bool:
    """Compare ordering on the extracted sort keys only.

    Rows tied on every extracted ordering column may legitimately appear in
    any relative order, so the checksum covers the ordering-key projection of
    each row rather than whole rows.
    """
    key_positions = [
        session.query.output_named(spec.output_name).position
        for spec in session.query.order_by
    ]
    keys_a = [tuple(row[i] for i in key_positions) for row in _normalize(a)]
    keys_b = [tuple(row[i] for i in key_positions) for row in _normalize(b)]
    return keys_a == keys_b


# --- candidate database generation -----------------------------------------


def _candidate_databases(session: ExtractionSession, svalues: SValueSource):
    yield from _random_databases(session, svalues)
    yield from _xdata_lite_databases(session, svalues)


def _random_databases(session: ExtractionSession, svalues: SValueSource):
    for round_index in range(RANDOM_DATABASES):
        yield _build_random(session, svalues, RANDOM_ROWS_PER_TABLE,
                            salt=round_index)


def _build_random(
    session: ExtractionSession, svalues: SValueSource, n: int, salt: int
) -> dict[str, list[tuple]]:
    rng = session.rng
    overrides: dict[ColumnNode, list] = {}
    row_counts = {table: n for table in session.query.tables}

    # Join keys: aligned 1..n with a sprinkling of misaligned keys so joins
    # are exercised both ways.
    for clique in session.query.join_cliques:
        for member in clique.sorted_columns():
            values = list(range(1, n + 1))
            for i in range(n):
                if rng.random() < 0.2:
                    values[i] = rng.randint(1, n + 3)
            overrides[member] = values

    for table in session.query.tables:
        for column in session.table_columns(table):
            if column in overrides:
                continue
            if session.is_key_column(column):
                overrides[column] = [rng.randint(1, n) for _ in range(n)]
                continue
            overrides[column] = [
                _random_value(session, svalues, column, rng) for _ in range(n)
            ]
    builder = DgenBuilder(session, svalues)
    return builder.build(row_counts, overrides)


def _random_value(session, svalues: SValueSource, column: ColumnNode, rng):
    """A mix of s-values, original-instance values, and random domain values.

    The D_I samples matter: they exercise value regions the extraction never
    probed, catching e.g. a hidden disjunct whose second constant an
    overfitted candidate query would silently drop.
    """
    col_type = session.column_type(column)
    dice = rng.random()
    if dice < 0.3:
        samples = session.di_samples.get(column)
        if samples:
            return rng.choice(samples)
    if dice < 0.75:
        try:
            pool = svalues.distinct(column, min(6, svalues.capacity(column)))
            return rng.choice(pool)
        except SValueError:
            pass
    if col_type.is_textual:
        alphabet = "abcdefgh"
        max_length = min(getattr(col_type, "max_length", 5), 5)
        return "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, max(1, max_length)))
        )
    domain = session.column_domain(column)
    if col_type.is_temporal:
        span = (domain.hi - domain.lo).days
        return domain.lo + datetime.timedelta(days=rng.randint(0, span))
    if hasattr(col_type, "scale"):
        lo = max(domain.lo, -1000.0)
        hi = min(domain.hi, 10000.0)
        return round(rng.uniform(lo, hi), col_type.scale)
    lo = max(domain.lo, -1000)
    hi = min(domain.hi, 10000)
    return rng.randint(lo, hi)


def _xdata_lite_databases(session: ExtractionSession, svalues: SValueSource):
    builder = DgenBuilder(session, svalues)
    yield from _filter_boundary_databases(session, svalues, builder)
    yield from _join_breaking_database(session, svalues, builder)
    yield from _limit_probe_database(session, svalues, builder)


def _filter_boundary_databases(session, svalues: SValueSource, builder: DgenBuilder):
    """Rows at and just beyond every extracted filter constant."""
    for predicate in session.query.filters:
        column = predicate.column
        values = _boundary_values(session, predicate)
        if not values:
            continue
        n = len(values)
        overrides: dict[ColumnNode, list] = {column: values}
        row_counts = {table: n for table in session.query.tables}
        for clique in session.query.join_cliques:
            for member in clique.sorted_columns():
                overrides[member] = list(range(1, n + 1))
        for table in session.query.tables:
            for other in session.table_columns(table):
                if other in overrides:
                    continue
                overrides[other] = [svalues.value(other)] * n
        yield builder.build(row_counts, overrides)


def _boundary_values(session, predicate) -> list:
    from repro.core.model import InListFilter, MultiRangeFilter

    if isinstance(predicate, InListFilter):
        variants = set(predicate.values)
        variants.add(predicate.values[0] + "x")
        variants.add("zz")
        max_length = getattr(session.column_type(predicate.column), "max_length", 10**6)
        return [v for v in variants if v and len(v) <= max_length]
    if isinstance(predicate, MultiRangeFilter):
        col_type = session.column_type(predicate.column)
        step = _unit_step(col_type)
        values = []
        for lo, hi in predicate.intervals:
            for candidate in (lo, _shift(lo, -step), hi, _shift(hi, step)):
                if predicate.domain_lo <= candidate <= predicate.domain_hi:
                    values.append(candidate)
        seen = set()
        return [v for v in values if not (v in seen or seen.add(v))]
    if isinstance(predicate, TextFilter):
        pattern = predicate.pattern
        base = pattern.replace("%", "").replace("_", "a")
        variants = {base, base + "x", "x" + base, base[:-1] if base else "y", "zz"}
        max_length = getattr(session.column_type(predicate.column), "max_length", 10**6)
        return [v for v in variants if v and len(v) <= max_length]
    from repro.core.model import NullFilter

    if isinstance(predicate, NullFilter):
        # rows straddling the predicate: NULLs and non-NULLs side by side
        col_type = session.column_type(predicate.column)
        concrete = "x" if col_type.is_textual else session.column_domain(
            predicate.column
        ).lo
        return [None, concrete, None, concrete]
    assert isinstance(predicate, NumericFilter)
    col_type = session.column_type(predicate.column)
    step = _unit_step(col_type)
    values = []
    for bound in (predicate.lo, predicate.hi):
        for candidate in (bound, _shift(bound, -step), _shift(bound, step)):
            if predicate.domain_lo <= candidate <= predicate.domain_hi:
                values.append(candidate)
    # dedupe preserving order
    seen = set()
    unique = []
    for v in values:
        if v not in seen:
            seen.add(v)
            unique.append(v)
    return unique


def _unit_step(col_type):
    if getattr(col_type, "is_temporal", False):
        return datetime.timedelta(days=1)
    scale = getattr(col_type, "scale", None)
    if scale is not None:
        return 10**-scale
    return 1


def _shift(value, step):
    if isinstance(value, datetime.date):
        return value + step
    if isinstance(step, float):
        return round(value + step, 9)
    return value + step


def _join_breaking_database(session, svalues: SValueSource, builder: DgenBuilder):
    """Aligned keys plus one deliberately dangling key per clique."""
    if not session.query.join_cliques:
        return
    n = 4
    overrides: dict[ColumnNode, list] = {}
    row_counts = {table: n for table in session.query.tables}
    for clique_index, clique in enumerate(session.query.join_cliques):
        for member_index, member in enumerate(clique.sorted_columns()):
            values = list(range(1, n + 1))
            values[(clique_index + member_index) % n] = 90 + member_index
            overrides[member] = values
    for table in session.query.tables:
        for column in session.table_columns(table):
            if column in overrides:
                continue
            try:
                pool = svalues.distinct(column, min(n, svalues.capacity(column)))
            except SValueError:
                pool = [svalues.value(column)]
            overrides[column] = [pool[i % len(pool)] for i in range(n)]
    yield builder.build(row_counts, overrides)


def _limit_probe_database(session, svalues: SValueSource, builder: DgenBuilder):
    """More result rows than the extracted limit (if any)."""
    limit = session.query.limit
    if limit is None:
        return
    n = min(limit + 3, LIMIT_PROBE_CAP)
    overrides: dict[ColumnNode, list] = {}
    row_counts = {table: n for table in session.query.tables}
    for clique in session.query.join_cliques:
        for member in clique.sorted_columns():
            overrides[member] = list(range(1, n + 1))
    for column in _limit_group_columns(session):
        if column in overrides:
            continue
        try:
            overrides[column] = svalues.distinct(column, n)
        except SValueError:
            pass
    # Give ordering arguments distinct values too, so the limit boundary is
    # tie-free and both engines cut the same rows deterministically.
    for spec in session.query.order_by:
        output = session.query.output_named(spec.output_name)
        if output.function is None:
            continue
        for dep in output.function.deps:
            if dep in overrides:
                continue
            try:
                overrides[dep] = svalues.distinct(dep, n)
            except SValueError:
                pass
    yield builder.build(row_counts, overrides)


def _limit_group_columns(session) -> list[ColumnNode]:
    seen = set()
    result = []
    for column in session.query.group_by:
        clique = session.query.clique_of(column)
        if clique is not None:
            if clique in seen:
                continue
            seen.add(clique)
        result.append(column)
    return result
