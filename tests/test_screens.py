"""Group-tested screens against a per-item brute-force reference.

The filter, projection-dependency and group-by screens (``core/grouptest.py``)
replace one probe per item with joint probes over groups of items.  The
reference below is the per-item schedule they replace: two extreme probes
per column, the two-attempt dependency check per mutation unit, and one
2/1-split probe per group-by candidate.  Each screen is wrapped so that the
reference runs on the same session state first and the two results must be
equal: on every golden-corpus query and on 20 random EQC queries (80 more
under ``-m slow``).

The pinned invocation counts are the per-item schedule's totals on the
golden corpus: the screens must never cost more.
"""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.core import ExtractionConfig, UnmasqueExtractor, filters, groupby, projections
from repro.core.dgen import DgenBuilder
from repro.core.svalues import Axis, SValueError
from repro.engine import Column, Database, IntegerType, TableSchema, VarcharType
from repro.workloads import having_queries, random_queries

from tests.test_golden_corpus import CORPUS, GOLDEN_DIR, _queries

#: random-query seeds: the first 20 in tier-1, the rest under ``-m slow``
SCREEN_SEEDS = list(range(20)) + [
    pytest.param(seed, marks=pytest.mark.slow) for seed in range(20, 100)
]

#: total logical invocations of each golden query under the per-item
#: schedule (jobs=1, no checker)
PER_ITEM_INVOCATIONS = {
    "Q3": 295,
    "Q6": 163,
    "Q12": 219,
    "JQ1": 177,
    "JQ4": 219,
    "DS19": 221,
    "DS98": 206,
}


# --- the per-item reference --------------------------------------------------


def _reference_extremes(session, columns):
    """Two extreme probes per column, as the per-column check made them."""
    flagged = []
    for column in columns:
        col_type = session.column_type(column)
        if col_type.is_textual:
            populated_min = filters._text_probe(session, column, "")
            populated_max = populated_min and filters._text_probe(session, column, "a")
        else:
            axis = Axis.of(session, column)
            populated_min = filters._numeric_probe(session, column, axis, axis.lo)
            populated_max = filters._numeric_probe(session, column, axis, axis.hi)
        if not (populated_min and populated_max):
            flagged.append((column, (populated_min, populated_max)))
    return flagged


def _reference_unit(session, svalues, unit, baseline):
    """The two-attempt dependency check of one mutation unit."""
    representative = unit.representative
    if svalues.capacity(representative) < 2:
        return set()
    current = session.d1_value(representative)
    first = projections._fresh_values(session, svalues, unit, {current})
    if first is None:
        return set()
    changed = projections._diff_outputs(
        baseline.first_row(), session.run_on_d1_cells(first)
    )
    if changed:
        return changed
    jitter = projections._jitter_context(session, svalues, set(unit.columns))
    base = session.run_on_d1_cells(jitter)
    second = projections._fresh_values(
        session, svalues, unit, {current, next(iter(first.values()))}
    )
    if second is None or base.row_count != 1:
        return set()
    return projections._diff_outputs(
        base.first_row(), session.run_on_d1_cells({**jitter, **second})
    )


def _reference_dependencies(session, svalues, baseline):
    deps = [[] for _ in baseline.first_row()]
    for unit in projections._mutation_units(session):
        for index in sorted(_reference_unit(session, svalues, unit, baseline)):
            deps[index].append(unit.representative)
    return deps


def _reference_group_by(session, svalues):
    """One 2/1-split probe per case-1 attribute and per join clique."""
    builder = DgenBuilder(session, svalues)
    grouped, cliques = [], set()
    for table in session.query.tables:
        for column in session.table_columns(table):
            clique = session.query.clique_of(column)
            if clique is not None:
                if clique not in cliques:
                    cliques.add(clique)
                    member, rows = groupby._clique_probe(builder, clique)
                    if session.run_on(rows).row_count == 2:
                        grouped.append(member)
                continue
            if svalues.is_equality_constrained(column):
                continue
            try:
                p, q = svalues.pair(column)
            except SValueError:
                continue
            rows = builder.build({table: 3}, {column: [p, p, q]})
            if session.run_on(rows).row_count == 2:
                grouped.append(column)
    return sorted(grouped)


@pytest.fixture()
def compared(monkeypatch):
    """Wrap every screen so it is checked against the reference; returns
    the list of screen names compared, per extraction."""
    seen: list[str] = []
    real_extremes = filters._screen_extremes
    real_dependencies = projections.dependency_lists
    real_group_by = groupby.extract_group_by

    def extremes(session, columns):
        expected = _reference_extremes(session, columns)
        assert real_extremes(session, columns) == expected
        seen.append("filters")
        return expected

    def dependencies(session, svalues, baseline):
        expected = _reference_dependencies(session, svalues, baseline)
        actual = real_dependencies(session, svalues, baseline)
        assert [[u.representative for u in deps] for deps in actual] == expected
        seen.append("projections")
        return actual

    def group_by(session, svalues):
        expected = _reference_group_by(session, svalues)
        assert real_group_by(session, svalues) == expected
        seen.append("group_by")
        return expected

    monkeypatch.setattr(filters, "_screen_extremes", extremes)
    monkeypatch.setattr(projections, "dependency_lists", dependencies)
    monkeypatch.setattr(groupby, "extract_group_by", group_by)
    return seen


@pytest.fixture(scope="module")
def corpus_dbs(tpch_db):
    from repro.datagen import imdb, tpcds

    return {
        "tpch": tpch_db,
        "job": imdb.build_database(movies=250, seed=5),
        "tpcds": tpcds.build_database(sales=3000, seed=3),
    }


@pytest.fixture(scope="module")
def star_db():
    return random_queries.build_database(facts=400, seed=1)


@pytest.mark.parametrize("workload,name", CORPUS, ids=[f"{w}-{n}" for w, n in CORPUS])
def test_screens_match_per_item_reference_on_goldens(workload, name, corpus_dbs, compared):
    app = SQLExecutable(_queries(workload)[name].sql, name=f"screen-{name}")
    outcome = UnmasqueExtractor(
        corpus_dbs[workload], app, ExtractionConfig(run_checker=False)
    ).extract()
    assert compared == ["filters", "projections", "group_by"]
    golden = (GOLDEN_DIR / f"{workload}_{name.lower()}.sql").read_text().strip()
    assert outcome.sql == golden


@pytest.mark.parametrize("seed", SCREEN_SEEDS)
def test_screens_match_per_item_reference_on_random_queries(seed, star_db, compared):
    generated = random_queries.generate_query(seed)
    app = SQLExecutable(generated.sql, name=f"screen-random-{seed}")
    if app.run(star_db).is_effectively_empty:
        pytest.skip("generated query has an empty initial result on this instance")
    UnmasqueExtractor(star_db, app, ExtractionConfig(run_checker=False)).extract()
    assert compared == ["filters", "projections", "group_by"]


@pytest.mark.parametrize("workload,name", CORPUS, ids=[f"{w}-{n}" for w, n in CORPUS])
def test_screens_never_cost_more_than_per_item_probes(workload, name, corpus_dbs):
    app = SQLExecutable(_queries(workload)[name].sql, name=f"screen-cost-{name}")
    outcome = UnmasqueExtractor(
        corpus_dbs[workload], app, ExtractionConfig(run_checker=False)
    ).extract()
    assert outcome.stats.total_invocations <= PER_ITEM_INVOCATIONS[name]


@pytest.fixture(scope="module")
def equal_pair_db():
    """Two integer columns equal on every row, so they are equal in ``D^1``
    and have the same candidate values."""
    db = Database(
        [
            TableSchema(
                name="pairs",
                columns=(
                    Column("p_key", IntegerType()),
                    Column("p_a", IntegerType(lo=0, hi=100)),
                    Column("p_b", IntegerType(lo=0, hi=100)),
                    Column("p_note", VarcharType(8)),
                ),
                primary_key=("p_key",),
            )
        ]
    )
    db.insert("pairs", [(i, 10 + i % 7, 10 + i % 7, "note") for i in range(1, 41)])
    return db


@pytest.mark.parametrize(
    "sql",
    [
        "select p_a - p_b as gap from pairs",
        "select p_b - p_a as gap from pairs where p_a <= 14",
    ],
)
def test_joint_flips_do_not_cancel_a_difference_of_equal_columns(
    sql, equal_pair_db, compared
):
    """A joint flip that moved both columns to one value would leave the
    difference at 0 and clear both dependencies."""
    app = SQLExecutable(sql, name="screen-equal-pair")
    outcome = UnmasqueExtractor(
        equal_pair_db, app, ExtractionConfig(run_checker=False)
    ).extract()
    assert compared == ["filters", "projections", "group_by"]
    gap = outcome.query.outputs[-1].function
    assert {column.column for column in gap.deps} == {"p_a", "p_b"}


@pytest.mark.parametrize("name", having_queries.names())
def test_screens_match_per_item_reference_under_having(name, tpch_db, compared):
    """The HAVING pipeline runs the projection and group-by screens on its
    multi-row template, with s-value guards and a probe multiplier."""
    app = SQLExecutable(having_queries.QUERIES[name].sql, name=f"screen-{name}")
    config = ExtractionConfig(run_checker=False, extract_having=True)
    UnmasqueExtractor(tpch_db, app, config).extract()
    assert compared == ["projections", "group_by"]
