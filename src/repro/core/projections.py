"""Projection extraction (paper §4.5): dependency lists + function identity.

Every output column is treated as an unknown multilinear scalar function of
base columns.  Working on the single-row ``D^1`` (where every aggregate
collapses to its argument and count() to 1):

1. **Dependency list identification** — each mutation unit (a join clique
   moves as one unit to keep the SPJ core satisfied; every other column moves
   alone) is flipped to fresh s-values; output columns that change depend on
   it.  The units are group-tested (``core/grouptest.py``): a joint flip that
   moves no output clears every unit in it, and a unit that is not cleared is
   flipped alone, so each dependency's changed outputs come from its own
   probe.  A joint flip never moves two units that are equal in ``D^1`` to
   one value, nor swaps two units' values, so it cannot cancel ``a - b`` or
   ``a + b`` by its choice of values.  A second, context-jittered attempt guards against coincidental
   cancellations (the paper's ``A = -b/c`` example); it runs once, jointly,
   over every unit the first attempt cleared, and unit by unit only when
   that joint guard moves an output.
2. **Function identification** — for ``k`` dependency units, the multilinear
   form has ``2^k`` coefficients over the product basis; probe assignments are
   drawn until the basis matrix is invertible and the system is solved
   exactly.  (The paper presents ``k ≤ 2``; this is the general-``k``
   extension its technical report defers.)

Outputs whose value never moves are left *unmapped* here — the aggregation
module later resolves them into ``count(*)`` or a constant projection.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.grouptest import (
    CLEARED,
    INCONCLUSIVE,
    Screen,
    group_test,
    own_probes,
)
from repro.core.model import OutputColumn, ScalarFunction
from repro.core.session import ExtractionSession
from repro.core.svalues import SValueError, SValueSource
from repro.errors import ExtractionError, UnsupportedQueryError
from repro.sgraph.schema_graph import ColumnNode

_MAX_SOLVE_ATTEMPTS = 40


class MutationUnit:
    """A set of columns mutated together: a join clique or a single column."""

    def __init__(self, columns: tuple[ColumnNode, ...]):
        self.columns = columns

    @property
    def representative(self) -> ColumnNode:
        return min(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<unit {self.representative}>"


def extract_projections(session: ExtractionSession, svalues: SValueSource) -> list[OutputColumn]:
    """Identify ``P̃_E`` (projections-before-aggregation-refinement)."""
    with session.module("projections"):
        baseline = session.run()
        if baseline.row_count != 1:
            raise ExtractionError(
                f"expected a single-row result on D^1, got {baseline.row_count} rows"
            )
        session.baseline_result = baseline
        names = _unique_names(baseline.columns)

        deps_per_output = dependency_lists(session, svalues, baseline)

        provenance = session.provenance
        outputs: list[OutputColumn] = []
        for position, name in enumerate(names):
            deps = deps_per_output[position]
            before = len(provenance.events)
            if not deps:
                function = None  # unmapped: count(*) or constant, resolved later
            else:
                function = _identify_function(
                    session, svalues, deps, position, baseline
                )
            output = OutputColumn(name=name, position=position, function=function)
            outputs.append(output)
            if provenance.enabled and function is not None:
                seqs = own_probes(provenance, before)
                provenance.refine(
                    "select",
                    output.select_sql(),
                    "projections",
                    detail=(
                        f"{len(deps)} dependency unit(s); function solved "
                        f"with {len(seqs)} probe(s)"
                    ),
                    key=("select", position),
                    claim=False,
                    extra_evidence=seqs,
                )
        session.query.outputs = outputs
        return outputs


def dependency_lists(
    session: ExtractionSession, svalues: SValueSource, baseline
) -> list[list[MutationUnit]]:
    """Each output's dependency units, in unit order (the screen of §4.5).

    Attempt 1 flips units to fresh s-values and group-tests them: a joint
    flip that moves no output clears every unit in it, and a unit that is
    not cleared is flipped alone, so each dependency's changed-output set
    comes from its own probe.  Attempt 2, the jitter guard against
    coincidental cancellations, runs once over the union of the units
    attempt 1 cleared; if that joint guard moves any output, or is
    inconclusive, every unit in the union gets its own guard.

    The probes mutate units against the same ``D^1`` baseline, so they fan
    out across the probe scheduler.  The s-value source is prewarmed first:
    its caches make the worker-thread lookups read-only (and it is a pure
    function of the filter set, so prewarming changes no outcome).  Function
    identification stays sequential — it consumes the session RNG, whose
    draw order is part of the determinism contract.
    """
    units = _mutation_units(session)
    if session.scheduler.parallel:
        _prewarm_svalues(session, svalues, units)
    baseline_row = baseline.first_row()
    current = [session.d1_value(unit.representative) for unit in units]
    flips = [_first_flip(session, svalues, unit) for unit in units]
    probed = [i for i, flip in enumerate(flips) if flip is not None]

    def joint(ctx, group):
        cells = _joint_cells(
            session, svalues, [(units[i], current[i], {current[i]}) for i in group]
        )
        if cells is None:
            return False
        result = ctx.run_on_d1_cells(cells)
        return result.row_count == 1 and not _diff_outputs(baseline_row, result)

    def single(ctx, index):
        return _record_dependency(
            ctx,
            units[index],
            lambda: _diff_outputs(baseline_row, ctx.run_on_d1_cells(flips[index])),
        )

    (outcomes,) = group_test(
        session,
        [
            Screen(
                items=probed,
                joint=joint,
                single=single,
                clause="select",
                describe=lambda index: str(units[index].representative),
            )
        ],
        label="projections",
    )
    changed: dict[int, set[int]] = {}
    unmoved = []
    for index, outcome in zip(probed, outcomes):
        if outcome is CLEARED or not outcome:
            unmoved.append(index)
        else:
            changed[index] = outcome
    avoid = {index: {current[index], *flips[index].values()} for index in unmoved}
    seconds = {
        index: _fresh_values(session, svalues, units[index], avoid[index])
        for index in unmoved
    }
    guarded = [index for index in unmoved if seconds[index] is not None]
    if guarded and not _joint_guard_clears(
        session, svalues, [(units[i], current[i], avoid[i]) for i in guarded]
    ):
        moved = session.scheduler.map(
            guarded,
            lambda ctx, index: _record_dependency(
                ctx,
                units[index],
                lambda: _second_attempt(ctx, svalues, units[index], seconds[index]),
            ),
            label="projections",
        )
        changed.update(zip(guarded, moved))

    deps_per_output: list[list[MutationUnit]] = [[] for _ in baseline_row]
    for index, unit in enumerate(units):
        for output_index in sorted(changed.get(index, ())):
            deps_per_output[output_index].append(unit)
    return deps_per_output


def _record_dependency(session: ExtractionSession, unit: MutationUnit, probe) -> set[int]:
    """Run one unit's own dependency probe(s), with evidence per output.

    The refine events accumulate under ``("select", position)`` so the later
    function-identification and aggregation-refinement stages inherit this
    unit's probes into the final select clause's evidence chain.  Runs inside
    a scheduler task: each context's recorder sees exactly this unit's probes.
    """
    provenance = session.provenance
    before = len(provenance.events)
    changed = probe()
    if provenance.enabled and changed:
        seqs = own_probes(provenance, before)
        for index in sorted(changed):
            provenance.refine(
                "select",
                f"output #{index}",
                "projections",
                detail=f"mutating {unit.representative} moved output {index}",
                key=("select", index),
                claim=False,
                extra_evidence=seqs,
            )
    return changed


def _unique_names(names: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    result = []
    for raw in names:
        name = "".join(ch if (ch.isalnum() or ch == "_") else "" for ch in raw or "")
        if not name or not (name[0].isalpha() or name[0] == "_"):
            name = f"col_{name}" if name else "column"
        if name in seen:
            seen[name] += 1
            result.append(f"{name}_{seen[name]}")
        else:
            seen[name] = 1
            result.append(name)
    return result


def _mutation_units(session: ExtractionSession) -> list[MutationUnit]:
    units: list[MutationUnit] = []
    clique_members: set[ColumnNode] = set()
    for clique in session.query.join_cliques:
        units.append(MutationUnit(tuple(clique.sorted_columns())))
        clique_members.update(clique.columns)
    for table in session.query.tables:
        for column in session.table_columns(table):
            if column not in clique_members:
                units.append(MutationUnit((column,)))
    return units


def _prewarm_svalues(
    session: ExtractionSession, svalues: SValueSource, units: list[MutationUnit]
) -> None:
    """Populate the s-value caches for every column a parallel dependency
    probe may touch, replicating the exact lookups :func:`_fresh_values` and
    :func:`_jitter_context` will make so those become pure cache hits."""
    columns = {unit.representative for unit in units}
    for table in session.query.tables:
        columns.update(
            column
            for column in session.nonkey_columns(table)
            if session.column_type(column).is_numeric
        )
    for column in sorted(columns):
        if svalues.capacity(column) < 2:
            continue
        try:
            svalues.distinct(column, 6)
        except SValueError:
            svalues.distinct(column, svalues.capacity(column))


def _fresh_values(
    session: ExtractionSession, svalues: SValueSource, unit: MutationUnit, avoid: set
) -> dict[ColumnNode, object] | None:
    """A consistent fresh assignment for the unit, avoiding given values."""
    representative = unit.representative
    try:
        candidates = svalues.distinct(representative, 6)
    except SValueError:
        candidates = svalues.distinct(
            representative, svalues.capacity(representative)
        )
    for value in candidates:
        if value not in avoid:
            return {column: value for column in unit.columns}
    return None


def _first_flip(
    session: ExtractionSession, svalues: SValueSource, unit: MutationUnit
) -> dict[ColumnNode, object] | None:
    """Attempt 1's assignment, or None for a unit that cannot be probed:
    equality-pinned columns cannot move (nor group)."""
    representative = unit.representative
    if svalues.capacity(representative) < 2:
        return None
    return _fresh_values(
        session, svalues, unit, {session.d1_value(representative)}
    )


def _joint_cells(
    session: ExtractionSession,
    svalues: SValueSource,
    members: list[tuple[MutationUnit, object, set]],
) -> dict[ColumnNode, object] | None:
    """One joint flip of ``members``, each ``(unit, D^1 value, avoid)``.

    Each unit takes its first candidate outside its own ``avoid``, outside
    every member's ``D^1`` value, and outside the values already given to
    earlier members with its ``D^1`` value.  So no two units trade values
    (which would cancel ``a + b``), and no two units that are equal in
    ``D^1`` move to one value (which would cancel ``a - b`` and ``a / b``).
    A single member takes exactly its per-unit value.  None when a unit runs
    out of candidates: the group is then split, never cleared.
    """
    shared = {value for _, value, _ in members}
    given: dict[object, set] = {}
    cells: dict[ColumnNode, object] = {}
    for unit, value, avoid in members:
        taken = given.setdefault(value, set())
        fresh = _fresh_values(session, svalues, unit, avoid | shared | taken)
        if fresh is None:
            return None
        taken.update(fresh.values())
        cells.update(fresh)
    return cells


def _joint_guard_clears(
    session: ExtractionSession,
    svalues: SValueSource,
    members: list[tuple[MutationUnit, object, set]],
) -> bool:
    """Attempt 2 over the union of ``members``' units, as one joint guard.

    The context outside the union is jittered, then every unit is flipped
    to a second fresh value at once (:func:`_joint_cells`); the union is
    cleared when the two probes return one row each and agree on every
    output.
    """
    cells = _joint_cells(session, svalues, members)
    if cells is None:
        return False
    union = {column for unit, _, _ in members for column in unit.columns}
    jitter = _jitter_context(session, svalues, union)
    flipped = {**jitter, **cells}

    base, result = session.scheduler.map(
        [jitter, flipped], _guard_probe, label="projections"
    )
    return (
        base is not None
        and result is not None
        and base.row_count == 1
        and result.row_count == 1
        and not _diff_outputs(base.first_row(), result)
    )


def _guard_probe(session: ExtractionSession, cells: dict[ColumnNode, object]):
    """One probe of the joint guard; None when it is inconclusive."""
    try:
        return session.run_on_d1_cells(cells)
    except INCONCLUSIVE:
        return None


def _second_attempt(
    session: ExtractionSession,
    svalues: SValueSource,
    unit: MutationUnit,
    assignment: dict[ColumnNode, object],
) -> set[int]:
    """One unit's own jitter guard: flip it to ``assignment`` with the rest
    of the row jittered, to break multiplicative cancellations."""
    jitter = _jitter_context(session, svalues, set(unit.columns))
    base = session.run_on_d1_cells(jitter)
    if base.row_count != 1:
        return set()
    combined = dict(jitter)
    combined.update(assignment)
    return _diff_outputs(base.first_row(), session.run_on_d1_cells(combined))


def _jitter_context(
    session: ExtractionSession, svalues: SValueSource, excluded: set[ColumnNode]
) -> dict[ColumnNode, object]:
    """Fresh s-values for the numeric non-key columns not ``excluded``."""
    jitter: dict[ColumnNode, object] = {}
    for table in session.query.tables:
        for column in session.nonkey_columns(table):
            if column in excluded:
                continue
            if not session.column_type(column).is_numeric:
                continue
            if svalues.capacity(column) < 2:
                continue
            current = session.d1_value(column)
            fresh = _fresh_values(session, svalues, MutationUnit((column,)), {current})
            if fresh:
                jitter.update(fresh)
    return jitter


def _diff_outputs(baseline_row: tuple, result) -> set[int]:
    if result.row_count != 1:
        return set()  # a broken probe (empty result) proves nothing
    row = result.first_row()
    return {
        i
        for i, (before, after) in enumerate(zip(baseline_row, row))
        if not _values_equal(before, after)
    }


def _values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


# --- function identification -------------------------------------------------


def _identify_function(
    session: ExtractionSession,
    svalues: SValueSource,
    deps: list[MutationUnit],
    output_index: int,
    baseline,
) -> ScalarFunction:
    representatives = [unit.representative for unit in deps]
    dep_types = [session.column_type(rep) for rep in representatives]

    if any(t.is_textual or t.is_temporal for t in dep_types):
        if len(deps) > 1:
            raise UnsupportedQueryError(
                "non-numeric columns may appear only in identity projections"
            )
        return _verify_identity(session, svalues, deps[0], output_index, baseline)

    return _solve_multilinear(session, svalues, deps, output_index)


def _verify_identity(
    session: ExtractionSession,
    svalues: SValueSource,
    unit: MutationUnit,
    output_index: int,
    baseline,
) -> ScalarFunction:
    """Confirm a textual/temporal output is a straight column projection."""
    representative = unit.representative
    if baseline.first_row()[output_index] != session.d1_value(representative):
        raise UnsupportedQueryError(
            f"output {output_index} depends on {representative} but is not an "
            "identity projection (non-numeric functions are outside EQC)"
        )
    probe = _fresh_values(session, svalues, unit, {session.d1_value(representative)})
    if probe is not None:
        result = session.run_on_d1_cells(probe)
        if result.row_count == 1:
            expected = next(iter(probe.values()))
            if result.first_row()[output_index] != expected:
                raise UnsupportedQueryError(
                    f"output {output_index} is a non-identity function of "
                    f"{representative}"
                )
    return ScalarFunction.identity(representative)


def _solve_multilinear(
    session: ExtractionSession,
    svalues: SValueSource,
    deps: list[MutationUnit],
    output_index: int,
) -> ScalarFunction:
    """Solve for the 2^k multilinear coefficients via independent probes."""
    k = len(deps)
    subsets = [
        tuple(sorted(s))
        for r in range(k + 1)
        for s in itertools.combinations(range(k), r)
    ]
    needed = len(subsets)

    value_pools = []
    for unit in deps:
        pool = svalues.distinct(
            unit.representative, min(max(needed + 2, 4), svalues.capacity(unit.representative))
        )
        value_pools.append(pool)

    rows: list[list[float]] = []
    rhs: list[float] = []
    attempts = 0
    while len(rows) < needed and attempts < _MAX_SOLVE_ATTEMPTS:
        attempts += 1
        assignment_values = [session.rng.choice(pool) for pool in value_pools]
        basis_row = [
            float(np.prod([assignment_values[i] for i in subset])) if subset else 1.0
            for subset in subsets
        ]
        candidate = rows + [basis_row]
        if np.linalg.matrix_rank(np.array(candidate)) < len(candidate):
            continue
        assignment: dict[ColumnNode, object] = {}
        for unit, value in zip(deps, assignment_values):
            for column in unit.columns:
                assignment[column] = value
        result = session.run_on_d1_cells(assignment)
        if result.row_count != 1:
            continue
        output_value = result.first_row()[output_index]
        if not isinstance(output_value, (int, float)):
            raise UnsupportedQueryError(
                f"output {output_index} mixes numeric dependencies with a "
                "non-numeric value"
            )
        rows.append(basis_row)
        rhs.append(float(output_value))

    if len(rows) < needed:
        raise ExtractionError(
            f"could not assemble {needed} independent probes for output "
            f"{output_index} (dependencies: {[u.representative for u in deps]})"
        )

    solution = np.linalg.solve(np.array(rows), np.array(rhs))
    coeffs = {subset: float(c) for subset, c in zip(subsets, solution)}
    representatives = [unit.representative for unit in deps]
    return ScalarFunction.from_solution(representatives, coeffs)
