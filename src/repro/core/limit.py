"""Limit extraction (paper §5.4).

Databases are generated so the pre-limit result cardinality follows a
geometric progression ``a, a·r, a·r², …`` — each table receives ``n`` rows
with join-clique columns aligned ``1..n`` and the functionally-independent
grouping attributes carrying a distinct value per row, so the SPJ core yields
``n`` rows forming ``n`` groups.  The first probe whose observed cardinality
``m`` falls short of ``n`` exposes ``limit m``.

The probe ceiling is ``l_max`` — the product of the distinct-s-value counts of
the independent grouping attributes (beyond which a larger result is
impossible on *any* valid database, so an undetected limit is semantically
vacuous) — clamped by a configured practical cap.
"""

from __future__ import annotations

from repro.core.dgen import DgenBuilder
from repro.core.session import ExtractionSession
from repro.core.svalues import SValueSource
from repro.errors import ExtractionError
from repro.sgraph.schema_graph import ColumnNode

#: Smallest probe cardinality (paper: max(4, |R_I|)).
LIMIT_START_FLOOR = 4

#: Geometric ratio between successive probe cardinalities (paper: r = 10).
LIMIT_RATIO = 10

#: Upper bound on probe cardinality (a practical cap below the
#: domain-derived l_max).
LIMIT_PROBE_CAP = 2000


def extract_limit(session: ExtractionSession, svalues: SValueSource) -> int | None:
    """Identify ``l_E`` (None when no limit is observable)."""
    with session.module("limit"):
        query = session.query
        if query.ungrouped_aggregation and not query.group_by:
            query.limit = None  # single-row results can never trip a limit >= 3
            return None

        l_max = _max_groups(session, svalues)
        start = max(
            LIMIT_START_FLOOR,
            session.initial_result.row_count if session.initial_result else 0,
        )
        cap = min(l_max, LIMIT_PROBE_CAP)

        n = min(start, cap)
        builder = DgenBuilder(session, svalues)
        provenance = session.provenance
        while True:
            result = _probe_cardinality(session, svalues, builder, n)
            if result < n:
                if result < 3:
                    # EQC guarantees limits of at least 3, so a smaller
                    # cardinality means the probe database failed to flow
                    # through the SPJ core — an earlier clause was
                    # mis-extracted (e.g. a join missing from the schema
                    # graph) or the query is outside EQC.
                    raise ExtractionError(
                        f"limit probe expected {n} result rows but saw {result}; "
                        "the extracted SPJ core is inconsistent with the "
                        "application (is the join declared in the schema?)"
                    )
                if provenance.enabled:
                    provenance.accept(
                        "limit",
                        str(result),
                        "limit",
                        detail=(
                            f"geometric probe expected {n} result rows but "
                            f"observed {result}"
                        ),
                    )
                query.limit = result
                return result
            if n >= cap:
                if provenance.enabled:
                    provenance.observation(
                        "limit",
                        detail=(
                            f"no limit observable up to the probe ceiling "
                            f"{cap} (l_max clamp)"
                        ),
                    )
                query.limit = None
                return None
            n = min(n * LIMIT_RATIO, cap)


def _independent_group_columns(session: ExtractionSession) -> list[ColumnNode]:
    """Grouping attributes that can vary independently (one per clique)."""
    seen_cliques = set()
    independent = []
    for column in session.query.group_by:
        clique = session.query.clique_of(column)
        if clique is not None:
            if clique in seen_cliques:
                continue
            seen_cliques.add(clique)
        independent.append(column)
    return independent


def _max_groups(session: ExtractionSession, svalues: SValueSource) -> int:
    """l_max: the most groups any valid database can produce."""
    if not session.query.group_by:
        return LIMIT_PROBE_CAP  # SPJ: rows are unbounded
    total = 1
    for column in _independent_group_columns(session):
        total *= max(1, svalues.capacity(column))
        if total >= LIMIT_PROBE_CAP:
            return LIMIT_PROBE_CAP
    return total


def _probe_cardinality(
    session: ExtractionSession,
    svalues: SValueSource,
    builder: DgenBuilder,
    n: int,
) -> int:
    overrides: dict[ColumnNode, list] = {}
    row_counts = {table: n for table in session.query.tables}

    for clique in session.query.join_cliques:
        for member in clique.sorted_columns():
            overrides[member] = list(range(1, n + 1))

    if session.query.group_by:
        # Independent grouping attributes get a unique value *combination* per
        # row (mixed-radix over their s-value capacities), so the n aligned
        # join rows land in n distinct groups even when no single column
        # admits n distinct values.
        free_columns = [
            column
            for column in _independent_group_columns(session)
            if column not in overrides  # clique keys are already distinct
        ]
        pools = []
        for column in free_columns:
            pool_size = min(svalues.capacity(column), n)
            pools.append(svalues.distinct(column, pool_size))
        for column, pool in zip(free_columns, pools):
            overrides[column] = []
        for row in range(n):
            remainder = row
            for column, pool in zip(free_columns, pools):
                overrides[column].append(pool[remainder % len(pool)])
                remainder //= len(pool)

    result = builder.run(builder.build(row_counts, overrides))
    return result.row_count


def capture_initial_result(session: ExtractionSession) -> None:
    """Record |R_I| before minimization (the limit probe's starting point)."""
    with session.module("setup"):
        session.initial_result = session.run()
