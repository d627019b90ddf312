"""HAVING-clause extraction tests (paper §7, experiment E11)."""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.core import ExtractionConfig, UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.errors import ExtractionPaused
from repro.resilience import (
    CheckpointStore,
    FaultPlan,
    FaultyExecutable,
    InjectedCrashError,
)
from repro.workloads import having_queries


def extract(db, name, **config_kwargs):
    query = having_queries.QUERIES[name]
    app = SQLExecutable(query.sql)
    config = ExtractionConfig(extract_having=True, **config_kwargs)
    return UnmasqueExtractor(db, app, config).extract()


@pytest.mark.parametrize("name", having_queries.names())
def test_having_extraction_passes_checker(tpch_db, name):
    outcome = extract(tpch_db, name)
    assert outcome.checker_report is not None
    assert outcome.checker_report.passed


def _having_by_aggregate(query):
    return {h.aggregate: h for h in query.having}


def test_count_bound_value(tpch_db):
    outcome = extract(tpch_db, "H1_count", run_checker=False)
    having = _having_by_aggregate(outcome.query)
    assert having["count"].lo == 3
    assert having["count"].column is None


def test_sum_bound_value(tpch_db):
    outcome = extract(tpch_db, "H2_sum_lower", run_checker=False)
    having = _having_by_aggregate(outcome.query)
    # `> 500000` on a 2-decimal axis is `>= 500000.01`
    assert having["sum"].lo == pytest.approx(500000.01)
    assert having["sum"].column.column == "o_totalprice"


def test_min_bound_not_rendered_as_filter(tpch_db):
    outcome = extract(tpch_db, "H3_min", run_checker=False)
    having = _having_by_aggregate(outcome.query)
    assert having["min"].lo == pytest.approx(50000.0)
    filter_columns = {f.column.column for f in outcome.query.filters}
    assert "o_totalprice" not in filter_columns


def test_max_bound(tpch_db):
    outcome = extract(tpch_db, "H4_max", run_checker=False)
    having = _having_by_aggregate(outcome.query)
    assert having["max"].hi == pytest.approx(45.0)


def test_avg_band_bounds(tpch_db):
    outcome = extract(tpch_db, "H6_avg_band", run_checker=False)
    having = _having_by_aggregate(outcome.query)
    assert having["avg"].lo == pytest.approx(50000.0)
    assert having["avg"].hi == pytest.approx(400000.0)


def test_filter_and_count_disjoint(tpch_db):
    outcome = extract(tpch_db, "H7_filter_count", run_checker=False)
    filters = {f.column.column for f in outcome.query.filters}
    assert "o_orderdate" in filters
    having = _having_by_aggregate(outcome.query)
    assert having["count"].lo == 5


def test_join_survives_having_pipeline(tpch_db):
    outcome = extract(tpch_db, "H8_join_count", run_checker=False)
    assert outcome.query.tables == ["customer", "orders"]
    assert len(outcome.query.join_cliques) == 1


def test_having_sql_runs_and_matches(tpch_db):
    for name in ("H1_count", "H3_min", "H5_avg_upper"):
        query = having_queries.QUERIES[name]
        app = SQLExecutable(query.sql)
        outcome = extract(tpch_db, name, run_checker=False)
        expected = app.run(tpch_db)
        actual = tpch_db.execute(outcome.sql)
        assert expected.same_multiset(actual), name


def test_min_having_differs_from_filter_semantics(tpch_db):
    """Regression guard: `having min(A) >= a` must NOT extract as `A >= a`.

    On a mixed group the two differ (the filter trims rows, the having kills
    the group); the extracted SQL must reproduce the group-kill behaviour.
    """
    outcome = extract(tpch_db, "H3_min", run_checker=False)
    db = tpch_db.clone()
    db.clear_table("orders")
    import datetime

    db.insert(
        "orders",
        [
            # customer 1: mixed group (one row below the bound)
            (1, 1, "O", 10000.0, datetime.date(1995, 1, 1), "1-URGENT", "c", 0, ""),
            (2, 1, "O", 90000.0, datetime.date(1995, 1, 2), "1-URGENT", "c", 0, ""),
            # customer 2: all rows qualify
            (3, 2, "O", 60000.0, datetime.date(1995, 1, 3), "1-URGENT", "c", 0, ""),
        ],
    )
    result = db.execute(outcome.sql)
    custkeys = result.column_values("o_custkey")
    assert custkeys == [2]  # a filter rendering would also return customer 1


# --- the one step loop's contract under extract_having -------------------------

HAVING_STEPS = [
    "setup",
    "from_clause",
    "minimizer",
    "joins",
    "having_bounds",
    "having_count",
    "filters",
    "projections",
    "group_by",
    "aggregations",
    "order_by",
    "limit",
]


def _extractor(
    db,
    name,
    app=None,
    checkpoint_dir=None,
    step_listener=None,
    pause_check=None,
    **config_kwargs,
):
    config_kwargs.setdefault("run_checker", False)
    if app is None:
        app = SQLExecutable(having_queries.QUERIES[name].sql, obfuscate_text=True)
    return UnmasqueExtractor(
        db,
        app,
        ExtractionConfig(extract_having=True, **config_kwargs),
        checkpoint_dir=checkpoint_dir,
        step_listener=step_listener,
        pause_check=pause_check,
    )


def test_budget_stop_is_a_verdict_under_best_effort(tpch_db):
    outcome = _extractor(
        tpch_db, "H1_count", budget_invocations=20, fail_fast=False
    ).extract()
    assert outcome.verdict == "budget_exhausted"
    assert [d.error for d in outcome.degradations] == ["BudgetExhausted"]
    assert outcome.budget["exhausted"]


def test_count_upper_bound_is_an_out_of_class_verdict(tpch_db):
    sql = (
        "select o_custkey from orders group by o_custkey "
        "having count(*) <= 2"
    )
    app = SQLExecutable(sql, obfuscate_text=True)
    assert not app.run(tpch_db).is_effectively_empty
    outcome = _extractor(
        tpch_db, None, app=app, out_of_class_action="verdict"
    ).extract()
    assert outcome.verdict == "out_of_class"
    assert outcome.sql == ""
    assert outcome.eqc.verdict == "out_of_class"


def test_step_listener_sees_every_step_and_pause_resumes(tpch_db, tmp_path):
    seen = []
    clean = _extractor(tpch_db, "H8_join_count", step_listener=seen.append)
    sql = clean.extract().sql
    assert seen == HAVING_STEPS

    store = CheckpointStore(tmp_path)
    paused = []
    extractor = _extractor(
        tpch_db,
        "H8_join_count",
        checkpoint_dir=store,
        step_listener=paused.append,
        pause_check=lambda: paused[-1] == "joins",
    )
    with pytest.raises(ExtractionPaused):
        extractor.extract()
    assert paused == HAVING_STEPS[:4]
    assert store.exists()

    resumed = _extractor(tpch_db, "H8_join_count", checkpoint_dir=store).extract()
    assert resumed.sql == sql
    assert resumed.resumed_modules == sorted(HAVING_STEPS[:4])


@pytest.mark.parametrize(
    "name, crash_at",
    [
        ("H1_count", 65),  # inside having_bounds: resumes on D_min
        ("H1_count", 90),  # inside projections: resumes on the template D^1
        ("H2_sum_lower", 70),
        ("H2_sum_lower", 120),  # after the sum bound's s-value guard
        ("H8_join_count", 130),
    ],
)
def test_crash_resume_matches_a_clean_run(tpch_db, tmp_path, name, crash_at):
    sql = having_queries.QUERIES[name].sql
    clean = _extractor(tpch_db, name).extract()
    store = CheckpointStore(tmp_path)
    crashing = FaultyExecutable(
        SQLExecutable(sql, obfuscate_text=True), FaultPlan(crash_at=crash_at)
    )
    with pytest.raises(InjectedCrashError):
        _extractor(tpch_db, name, app=crashing, checkpoint_dir=store).extract()

    healthy = SQLExecutable(sql, obfuscate_text=True)
    outcome = _extractor(
        tpch_db, name, app=healthy, checkpoint_dir=store
    ).extract()
    assert outcome.sql == clean.sql
    assert outcome.resumed_modules
    assert healthy.invocation_count < clean.stats.total_invocations
    assert not store.exists()


@pytest.mark.parametrize("name", having_queries.names())
def test_sandbox_invariant_holds_at_every_step(tpch_db, name, monkeypatch):
    checks = []
    matches_di = ExtractionSession.silo_matches_di

    def checked(session):
        checks.append(matches_di(session))
        return checks[-1]

    monkeypatch.setattr(ExtractionSession, "silo_matches_di", checked)
    outcome = extract(tpch_db, name, sandbox_verify=True)
    assert outcome.checker_report.passed
    assert checks == [True] * (len(HAVING_STEPS) + 1)  # and the checker
