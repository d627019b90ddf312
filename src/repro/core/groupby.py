"""Group-by extraction (paper §5.1).

For each candidate attribute a tiny synthetic database is generated whose
(invisible) intermediate SPJ result holds exactly three rows that agree on
every column except the attribute under test, which carries two distinct
values split 2/1.  A final result of two rows then proves the attribute is a
grouping column.

* Case 1 — attribute outside the join graph: its table gets three rows with
  values ``(p, p, q)``; every other table one row.  A table's case-1
  attributes are group-tested (``core/grouptest.py``): every member of a
  group takes its ``(p, p, q)`` on the same rows, so the result has two rows
  exactly when at least one member groups, and a joint probe that returns
  one row (or three: nothing merges) clears them all.
* Case 2 — attribute inside a join clique: its table gets three rows with key
  values ``(1, 1, 2)``; each table holding a clique-mate gets two rows keyed
  ``(1, 2)``; the rest one row.

Columns pinned by equality filters are skipped (grouping on them is
superfluous), and one clique member stands for the whole clique (its members
are interchangeable under the equi-join); each clique keeps its own probe.
If no grouping column surfaces, a two-row all-distinct database
distinguishes an ungrouped aggregation (one result row) from a plain SPJ
query (two rows).
"""

from __future__ import annotations

from repro.core.dgen import DgenBuilder
from repro.core.grouptest import Screen, group_test, own_probes
from repro.core.session import ExtractionSession
from repro.core.svalues import SValueError, SValueSource
from repro.sgraph.schema_graph import ColumnNode


def extract_group_by(session: ExtractionSession, svalues: SValueSource) -> list[ColumnNode]:
    """Identify ``G_E`` and the ungrouped-aggregation flag."""
    with session.module("group_by"):
        builder = DgenBuilder(session, svalues)
        # every default value the probe databases use, cached before the
        # scheduler's tasks build them
        builder.build({})
        screens: list[Screen] = []
        tested_cliques: set = set()
        for table in session.query.tables:
            candidates = []
            for column in session.table_columns(table):
                clique = session.query.clique_of(column)
                if clique is not None:
                    if clique not in tested_cliques:
                        tested_cliques.add(clique)
                        screens.append(_clique_screen(builder, clique))
                    continue
                if svalues.is_equality_constrained(column):
                    continue  # superfluous in G_E
                try:
                    candidates.append((column, svalues.pair(column)))
                except SValueError:
                    continue  # effectively equality-pinned: superfluous in G_E
            screens.append(_case1_screen(builder, table, candidates))

        outcomes = group_test(session, screens, label="group_by")
        group_by = [
            column
            for screen, counts in zip(screens, outcomes)
            for (column, _), count in zip(screen.items, counts)
            if count == 2
        ]

        session.query.group_by = sorted(group_by)
        if not group_by:
            session.query.ungrouped_aggregation = _is_ungrouped_aggregation(
                session, svalues, builder
            )
            if session.provenance.enabled:
                session.provenance.observation(
                    "group_by",
                    detail=(
                        "two-row all-distinct probe: "
                        + (
                            "one result row — ungrouped aggregation"
                            if session.query.ungrouped_aggregation
                            else "two result rows — plain SPJ query"
                        )
                    ),
                )
        return session.query.group_by


def _membership_probe(session: ExtractionSession, probe) -> int:
    """One candidate's 2/1-split probe, with its accept/reject evidence.

    The decision is made (and recorded) inside the task, citing exactly
    its own probe, so the evidence is the same at every ``--jobs``.
    """
    column, rows = probe
    provenance = session.provenance
    before = len(provenance.events)
    count = session.run_on(rows).row_count
    if provenance.enabled:
        target = f"{column.table}.{column.column}"
        record = provenance.accept if count == 2 else provenance.reject
        record(
            "group_by",
            target,
            "group_by",
            detail=f"2/1-split probe returned {count} result row(s)",
            claim=False,
            extra_evidence=own_probes(provenance, before),
        )
    return count


def _case1_screen(builder: DgenBuilder, table: str, candidates: list) -> Screen:
    """Case 1 over one table's candidates ``(column, (p, q))``.

    The table gets three rows; every member of a probed group takes the
    values ``(p, p, q)`` on the same rows, so the first two rows stay
    identical and the third differs in every member.  The result has two
    rows exactly when at least one member groups; one row (the rows were
    aggregated together) or three (identical rows were not merged, so
    nothing groups) clears the group.
    """

    def rows(group):
        return builder.build(
            row_counts={table: 3},
            overrides={column: [p, p, q] for column, (p, q) in group},
        )

    def joint(ctx, group):
        return ctx.run_on(rows(group)).row_count in (1, 3)

    def single(ctx, item):
        return _membership_probe(ctx, (item[0], rows([item])))

    return Screen(
        items=candidates,
        joint=joint,
        single=single,
        clause="group_by",
        describe=lambda item: f"{item[0].table}.{item[0].column}",
    )


def _clique_screen(builder: DgenBuilder, clique) -> Screen:
    """Case 2 for one join clique: its own probe, never a joint one."""
    column, rows = _clique_probe(builder, clique)
    return Screen(
        items=[(column, rows)],
        joint=None,
        single=_membership_probe,
        clause="group_by",
    )


def _clique_probe(
    builder: DgenBuilder, clique
) -> tuple[ColumnNode, dict[str, list[tuple]]]:
    """Case 2 probe database for the clique's representative."""
    column = clique.representative()
    overrides: dict[ColumnNode, list] = {column: [1, 1, 2]}
    row_counts: dict[str, int] = {column.table: 3}
    for table, member in builder.connected_tables(column).items():
        row_counts[table] = 2
        overrides[member] = [1, 2]
    # Clique-mates sharing the probe table (if any) must mirror the values.
    for member in clique.sorted_columns():
        if member != column and member.table == column.table:
            overrides[member] = [1, 1, 2]
    return column, builder.build(row_counts, overrides)


def _is_ungrouped_aggregation(
    session: ExtractionSession, svalues: SValueSource, builder: DgenBuilder
) -> bool:
    """Two-row probe: one result row ⇒ aggregation without grouping."""
    overrides: dict[ColumnNode, list] = {}
    row_counts = {table: 2 for table in session.query.tables}
    for clique in session.query.join_cliques:
        for member in clique.sorted_columns():
            overrides[member] = [1, 2]
    for table in session.query.tables:
        for column in session.table_columns(table):
            if column in overrides:
                continue
            try:
                p, q = svalues.pair(column)
                overrides[column] = [p, q]
            except SValueError:
                overrides[column] = [svalues.value(column)] * 2
    result = builder.run(builder.build(row_counts, overrides))
    return result.row_count == 1
