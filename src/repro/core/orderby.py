"""Order-by extraction (paper §5.3).

Ordering columns are discovered left-to-right.  For the output column under
test, a pair of two-row databases is generated — ``D²_same``, where every
output varies in one common direction, and ``D²_rev``, where only the tested
column's argument values are swapped between the rows.  If the tested column
comes out sorted the same way in both results, it (with that direction) is the
ordering column at the current position; every other candidate is refuted
because the true driver keeps the result order fixed while the candidate's
values flip.

Already-extracted ordering outputs (``S_1``) are *tied* — their argument
columns receive a common value in both rows — so the comparison falls through
to the position under test.  Because the extractor already knows every
output's scalar function and aggregate, it *predicts* the output values for a
candidate assignment and retries until the required sortedness invariants
hold (the constructive counterpart of the paper's value-vector selection).

``count(*)`` candidates cannot be steered by values; they are probed by
varying per-group row multiplicities instead (the technical-report extension
noted in DESIGN.md §5), with the other aggregates pinned by the predicted
invariants so only the count flips between the two instances.
"""

from __future__ import annotations

from repro.core.dgen import DgenBuilder
from repro.core.model import OrderSpec, OutputColumn
from repro.core.session import ExtractionSession
from repro.core.svalues import SValueError, SValueSource
from repro.engine.result import values_sorted
from repro.sgraph.schema_graph import ColumnNode


def extract_order_by(session: ExtractionSession, svalues: SValueSource) -> list[OrderSpec]:
    """Identify the ordered output sequence ``O_E``."""
    with session.module("order_by"):
        query = session.query
        if query.ungrouped_aggregation and not query.group_by:
            query.order_by = []  # single-row results carry no observable order
            return []

        candidates = list(query.outputs)
        order: list[OrderSpec] = []
        s1: list[OutputColumn] = []
        provenance = session.provenance
        while candidates:
            hit = None
            for candidate in candidates:
                direction = _probe_candidate(session, svalues, candidate, s1)
                if direction is not None:
                    hit = (candidate, direction)
                    break
            if hit is None:
                if provenance.enabled and order:
                    # the probes since the last accept refuted every remaining
                    # candidate: the ordering prefix ends here
                    provenance.observation(
                        "order_by",
                        detail=(
                            f"no candidate sorted consistently at position "
                            f"{len(order) + 1}; ordering prefix closed"
                        ),
                    )
                break
            candidate, direction = hit
            spec = OrderSpec(candidate.name, descending=(direction == "desc"))
            order.append(spec)
            if provenance.enabled:
                # claim the whole pool: the same-vs-reversed pair for this
                # candidate plus the probes that refuted the ones tried first
                provenance.accept(
                    "order_by",
                    spec.to_sql(),
                    "order_by",
                    detail=(
                        f"position {len(order)}: sorted {direction} in both "
                        "the same-direction and argument-swapped instances"
                    ),
                )
            s1.append(candidate)
            candidates.remove(candidate)
        query.order_by = order
        return order


# --- candidate probing -----------------------------------------------------


def _probe_candidate(
    session: ExtractionSession,
    svalues: SValueSource,
    target: OutputColumn,
    s1: list[OutputColumn],
) -> str | None:
    if target.count_star:
        return _probe_count_star(session, svalues, target, s1)
    if target.function is None or target.function.is_constant:
        return None
    return _probe_value_driven(session, svalues, target, s1)


def _tied_columns(session: ExtractionSession, s1: list[OutputColumn]) -> set[ColumnNode]:
    """Argument columns of S1 outputs (closed over join cliques)."""
    tied: set[ColumnNode] = set()
    for output in s1:
        if output.function is None:
            continue
        for dep in output.function.deps:
            tied.add(dep)
            clique = session.query.clique_of(dep)
            if clique is not None:
                tied.update(clique.columns)
    return tied


def _assignment_plan(
    session: ExtractionSession,
    svalues: SValueSource,
    s1: list[OutputColumn],
) -> tuple[dict[str, int], dict[ColumnNode, list], dict[ColumnNode, tuple]] | None:
    """Choose per-column row-pair values for the two-row probe databases.

    Returns (row_counts, overrides, pairs) where ``pairs`` records columns
    whose two rows differ (orientation may later be flipped per column).
    Tied join cliques (arguments of S1 outputs) force single-key layouts; when
    two multi-row tables would cross-join through a tied clique the probe is
    infeasible and None is returned.
    """
    tied = _tied_columns(session, s1)
    cliques = session.query.join_cliques
    tied_cliques = [c for c in cliques if any(m in tied for m in c.columns)]
    free_cliques = [c for c in cliques if c not in tied_cliques]

    # Tables that must vary: those with any free clique or any free column.
    row_counts: dict[str, int] = {}
    if not tied_cliques:
        for table in session.query.tables:
            row_counts[table] = 2
    else:
        varying_tables = {m.table for c in free_cliques for m in c.columns}
        for table in session.query.tables:
            free_column_exists = any(
                column not in tied and session.query.clique_of(column) is None
                for column in session.table_columns(table)
            )
            if table in varying_tables or free_column_exists:
                row_counts[table] = 2
            else:
                row_counts[table] = 1
        # Feasibility: two 2-row tables must not be linked only by tied cliques.
        for clique in tied_cliques:
            two_row = [t for t in clique.tables() if row_counts.get(t, 1) == 2]
            if len(two_row) > 1 and not _also_linked_free(clique, free_cliques):
                return None

    overrides: dict[ColumnNode, list] = {}
    pairs: dict[ColumnNode, tuple] = {}

    for clique in cliques:
        clique_tied = clique in tied_cliques
        for member in clique.sorted_columns():
            count = row_counts.get(member.table, 1)
            if clique_tied:
                overrides[member] = [1] * count
            else:
                overrides[member] = [1, 2][:count] if count == 2 else [1]
                if count == 2:
                    pairs[member] = (1, 2)

    for table in session.query.tables:
        count = row_counts.get(table, 1)
        for column in session.table_columns(table):
            if column in overrides:
                continue
            if count == 1:
                overrides[column] = [svalues.value(column)]
                continue
            if column in tied or svalues.is_equality_constrained(column):
                overrides[column] = [svalues.value(column)] * 2
                continue
            try:
                p, q = svalues.pair(column)
            except SValueError:
                overrides[column] = [svalues.value(column)] * 2
                continue
            overrides[column] = [p, q]
            pairs[column] = (p, q)
    return row_counts, overrides, pairs


def _also_linked_free(tied_clique, free_cliques) -> bool:
    tables = tied_clique.tables()
    for clique in free_cliques:
        if len(tables & clique.tables()) > 1:
            return True
    return False


def _row_values(
    session: ExtractionSession, overrides: dict[ColumnNode, list], row: int
) -> dict[ColumnNode, object]:
    return {
        column: values[row if len(values) > 1 else 0]
        for column, values in overrides.items()
    }


def _predict(output: OutputColumn, values: dict[ColumnNode, object], multiplicity: int = 1):
    """Predicted output value for one result group."""
    if output.count_star:
        return multiplicity
    base = output.function.evaluate(values)
    if output.aggregate == "sum":
        return multiplicity * base
    return base  # native, min, max, avg are multiplicity-invariant here


def _orient_for_consistency(
    session: ExtractionSession,
    target: OutputColumn,
    overrides: dict[ColumnNode, list],
    pairs: dict[ColumnNode, tuple],
    s1: list[OutputColumn],
    require_target_varies: bool = True,
) -> bool:
    """Flip column pairs until all varying outputs ascend row0 → row1.

    Columns are owned by the first varying output that uses them; an output
    whose direction cannot be fixed without disturbing an earlier one makes
    the attempt fail.
    """
    fixed_columns: set[ColumnNode] = set()
    outputs = [target] + [
        o for o in session.query.outputs if o is not target and o not in s1
    ]
    for output in outputs:
        if output.count_star or output.function is None:
            continue
        v0 = _predict(output, _row_values(session, overrides, 0))
        v1 = _predict(output, _row_values(session, overrides, 1))
        if v0 == v1:
            if output is target and require_target_varies:
                return False  # the tested column must vary
            continue
        if v0 < v1:
            fixed_columns.update(output.function.deps)
            continue
        own_pairs = [
            dep
            for dep in output.function.deps
            if dep in pairs and dep not in fixed_columns
        ]
        if not own_pairs:
            return False
        for dep in own_pairs:
            overrides[dep] = [overrides[dep][1], overrides[dep][0]]
        v0 = _predict(output, _row_values(session, overrides, 0))
        v1 = _predict(output, _row_values(session, overrides, 1))
        if not v0 < v1:
            return False
        fixed_columns.update(output.function.deps)
    return True


def _varying_count_outputs(
    session: ExtractionSession, target: OutputColumn, s1: list[OutputColumn]
) -> list[OutputColumn]:
    """count(*) outputs that must vary during a value-driven probe.

    A count output outside S1 ties under equal multiplicities; were the
    hidden ordering led by it, the comparison would fall through to the
    column under test and produce a false positive.  Such counts are varied
    by giving the second group multiplicity 2.
    """
    return [
        o
        for o in session.query.outputs
        if o.count_star and o is not target and o not in s1
    ]


def _sums_stay_ordered(
    session: ExtractionSession,
    overrides: dict[ColumnNode, list],
    pairs: dict[ColumnNode, tuple],
    svalues: SValueSource,
    s1: list[OutputColumn],
) -> bool:
    """Pin every sum output's gap so multiplicities cannot mask orderings.

    With group multiplicities (1, 2), a sum output's observed values are
    ``(f(row0), 2·f(row1))``; after the target-swap they become
    ``(f(row1), 2·f(row0))``.  Requiring ``0 < 2·f(row0) < f(row1)`` makes a
    non-swapped sum stay ascending AND a swapped sum read descending — without
    it, the ×2 duplication can compensate the swap and fake a consistent
    ordering (a false-positive ORDER BY).
    """
    for output in session.query.outputs:
        if output in s1 or output.aggregate != "sum" or output.function is None:
            continue
        v0 = output.function.evaluate(_row_values(session, overrides, 0))
        v1 = output.function.evaluate(_row_values(session, overrides, 1))
        if v0 == v1:
            continue
        if not 0 < 2 * v0 < v1:
            if not _stretch_sum_gap(session, svalues, output, overrides, pairs):
                return False
    return True


def _swap_target_args(
    session: ExtractionSession,
    target: OutputColumn,
    overrides: dict[ColumnNode, list],
    pairs: dict[ColumnNode, tuple],
) -> dict[ColumnNode, list] | None:
    """The D²_rev assignment: only the target's argument values swap rows."""
    reversed_overrides = {col: list(vals) for col, vals in overrides.items()}
    swapped: set[ColumnNode] = set()
    for dep in target.function.deps:
        if dep in pairs:
            reversed_overrides[dep] = [overrides[dep][1], overrides[dep][0]]
            swapped.add(dep)
            clique = session.query.clique_of(dep)
            if clique is not None:
                for member in clique.columns:
                    if member in pairs and member not in swapped:
                        reversed_overrides[member] = [
                            overrides[member][1],
                            overrides[member][0],
                        ]
                        swapped.add(member)
    if not swapped:
        return None
    # Verify no other varying output was disturbed by the swap.
    for output in session.query.outputs:
        if output is target or output.count_star or output.function is None:
            continue
        before = (
            _predict(output, _row_values(session, overrides, 0)),
            _predict(output, _row_values(session, overrides, 1)),
        )
        after = (
            _predict(output, _row_values(session, reversed_overrides, 0)),
            _predict(output, _row_values(session, reversed_overrides, 1)),
        )
        if before != after:
            return None
    return reversed_overrides


def _probe_value_driven(
    session: ExtractionSession,
    svalues: SValueSource,
    target: OutputColumn,
    s1: list[OutputColumn],
) -> str | None:
    builder = DgenBuilder(session, svalues)
    plan = _assignment_plan(session, svalues, s1)
    if plan is None:
        return None
    row_counts, overrides, pairs = plan
    if not _orient_for_consistency(session, target, overrides, pairs, s1):
        return None

    # If a non-S1 count(*) output exists, vary it too (multiplicity 2 on the
    # second group) so it cannot silently lead the hidden ordering.
    vary_counts = bool(_varying_count_outputs(session, target, s1))
    if vary_counts and not _sums_stay_ordered(session, overrides, pairs, svalues, s1):
        return None
    if vary_counts and not _orient_for_consistency(
        session, target, overrides, pairs, s1
    ):
        return None  # re-verify after any sum-gap stretching

    reversed_overrides = _swap_target_args(session, target, overrides, pairs)
    if reversed_overrides is None:
        return None

    duplicate_table = _duplication_table(session, row_counts) if vary_counts else None
    if vary_counts and duplicate_table is None:
        return None

    if duplicate_table is None:
        same, rev = _run_pair(
            session,
            builder.build(row_counts, overrides),
            builder.build(row_counts, reversed_overrides),
        )
    else:
        same, rev = _run_pair(
            session,
            _with_duplicated_row(builder, row_counts, overrides, duplicate_table, 1),
            _with_duplicated_row(
                builder, row_counts, reversed_overrides, duplicate_table, 1
            ),
        )
    if same.row_count != 2 or rev.row_count != 2:
        return None
    same_vals = same.column_values(target.position)
    rev_vals = rev.column_values(target.position)
    if values_sorted(same_vals) and values_sorted(rev_vals):
        return "asc"
    if values_sorted(same_vals, descending=True) and values_sorted(
        rev_vals, descending=True
    ):
        return "desc"
    return None


# --- count(*) candidates ------------------------------------------------------


def _probe_count_star(
    session: ExtractionSession,
    svalues: SValueSource,
    target: OutputColumn,
    s1: list[OutputColumn],
) -> str | None:
    """Vary per-group multiplicities: counts (2,1) vs (1,2), values fixed.

    Sum outputs must keep their order under both multiplicity splits; the
    orientation pass enforces ``0 < 2·f(row0) < f(row1)`` by retrying value
    choices, which pins every non-count output while only the count flips.
    """
    builder = DgenBuilder(session, svalues)
    plan = _assignment_plan(session, svalues, s1)
    if plan is None:
        return None
    row_counts, overrides, pairs = plan
    # The count target itself predicts (1, 1) here; orient the value-driven
    # outputs only.
    if not _orient_for_consistency(
        session, target, overrides, pairs, s1, require_target_varies=False
    ):
        return None

    # Check sums stay ordered under duplication: need 2*f(row0) < f(row1).
    for output in session.query.outputs:
        if output.aggregate == "sum" and output.function is not None:
            v0 = output.function.evaluate(_row_values(session, overrides, 0))
            v1 = output.function.evaluate(_row_values(session, overrides, 1))
            if not (0 < 2 * v0 < v1 or v0 == v1):
                ok = _stretch_sum_gap(session, svalues, output, overrides, pairs)
                if not ok:
                    return None

    duplicate_table = _duplication_table(session, row_counts)
    if duplicate_table is None:
        return None

    same, rev = _run_pair(
        session,
        _with_duplicated_row(builder, row_counts, overrides, duplicate_table, 0),
        _with_duplicated_row(builder, row_counts, overrides, duplicate_table, 1),
    )
    if same.row_count != 2 or rev.row_count != 2:
        return None
    same_vals = same.column_values(target.position)
    rev_vals = rev.column_values(target.position)
    if same_vals[0] == same_vals[1] or rev_vals[0] == rev_vals[1]:
        return None
    if values_sorted(same_vals) and values_sorted(rev_vals):
        return "asc"
    if values_sorted(same_vals, descending=True) and values_sorted(
        rev_vals, descending=True
    ):
        return "desc"
    return None


def _run_pair(session: ExtractionSession, same: dict, rev: dict) -> tuple:
    """Run the ``D²_same`` / ``D²_rev`` pair as one scheduler batch: both
    probes always run, and neither depends on the other's outcome."""
    return tuple(
        session.scheduler.map(
            [same, rev], lambda ctx, rows: ctx.run_on(rows), label="order_by"
        )
    )


def _stretch_sum_gap(
    session: ExtractionSession,
    svalues: SValueSource,
    output: OutputColumn,
    overrides: dict[ColumnNode, list],
    pairs: dict[ColumnNode, tuple],
) -> bool:
    """Widen a sum output's row gap so duplication cannot reorder it."""
    for dep in output.function.deps:
        if dep not in pairs:
            continue
        try:
            values = svalues.distinct(dep, 8)
        except SValueError:
            continue
        for low in values:
            for high in reversed(values):
                trial = dict(overrides)
                trial[dep] = [low, high]
                v0 = output.function.evaluate(_row_values(session, trial, 0))
                v1 = output.function.evaluate(_row_values(session, trial, 1))
                if 0 < 2 * v0 < v1:
                    overrides[dep] = [low, high]
                    return True
    return False


def _duplication_table(session: ExtractionSession, row_counts: dict[str, int]) -> str | None:
    for table, count in row_counts.items():
        if count == 2:
            return table
    return None


def _with_duplicated_row(
    builder: DgenBuilder,
    row_counts: dict[str, int],
    overrides: dict[ColumnNode, list],
    table: str,
    which_row: int,
) -> dict[str, list[tuple]]:
    rows = builder.build(row_counts, overrides)
    duplicated = dict(rows)
    duplicated[table] = rows[table] + [rows[table][which_row]]
    return duplicated
