"""Resource budgets: the watchdog, its charge points, and degradation flow."""

from __future__ import annotations

import time

import pytest

from repro.apps.executable import SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import UnmasqueExtractor
from repro.datagen import tpch
from repro.engine.parser import parse_select
from repro.errors import BudgetExhausted
from repro.obs import MetricsRegistry, Tracer
from repro.resilience.budgets import BudgetSpec, ResourceBudget
from repro.workloads import build_instance, find_query, tpch_queries

QUERY = tpch_queries.QUERIES["Q6"].sql


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestBudgetSpec:
    def test_unlimited_is_disabled(self):
        assert not BudgetSpec.unlimited().enabled
        assert not ResourceBudget(BudgetSpec()).enabled

    def test_any_limit_enables(self):
        assert BudgetSpec(max_invocations=1).enabled
        assert BudgetSpec(max_seconds=0.5).enabled


class TestResourceBudget:
    def test_invocation_limit(self):
        budget = ResourceBudget(BudgetSpec(max_invocations=3))
        for _ in range(3):
            budget.charge_invocation()
        with pytest.raises(BudgetExhausted) as exc:
            budget.charge_invocation()
        assert exc.value.resource == "invocations"
        assert exc.value.limit == 3
        assert exc.value.used == 4
        assert budget.exhausted is exc.value

    def test_rows_scanned_and_cells(self):
        budget = ResourceBudget(BudgetSpec(max_rows_scanned=100, max_cells=10))
        budget.charge_rows_scanned(60)
        with pytest.raises(BudgetExhausted):
            budget.charge_rows_scanned(41)
        budget = ResourceBudget(BudgetSpec(max_cells=10))
        with pytest.raises(BudgetExhausted):
            budget.charge_cells(11)

    def test_wall_clock_uses_injected_clock(self):
        clock = FakeClock()
        budget = ResourceBudget(BudgetSpec(max_seconds=5.0), clock=clock)
        budget.start()
        budget.check_wall_clock()  # within budget
        clock.now += 5.1
        with pytest.raises(BudgetExhausted) as exc:
            budget.check_wall_clock()
        assert exc.value.resource == "wall_clock_seconds"

    def test_disabled_budget_never_raises(self):
        budget = ResourceBudget(BudgetSpec())
        budget.start()
        for _ in range(1000):
            budget.charge_invocation()
        budget.charge_rows_scanned(10**9)
        budget.charge_cells(10**9)
        budget.check_wall_clock()
        assert budget.invocations == 0  # disabled budgets do not even count

    def test_metrics_mirroring(self):
        metrics = MetricsRegistry()
        budget = ResourceBudget(BudgetSpec(max_invocations=2), metrics=metrics)
        budget.charge_invocation()
        budget.charge_rows_scanned(7)
        assert metrics.gauge("budget_invocations_used").value == 1
        assert metrics.gauge("budget_rows_scanned_used").value == 7
        budget.charge_invocation()
        with pytest.raises(BudgetExhausted):
            budget.charge_invocation()
        assert metrics.counter("budget_exhaustions_total").value == 1

    def test_snapshot_reports_usage_and_limits(self):
        budget = ResourceBudget(BudgetSpec(max_invocations=10))
        budget.start()
        budget.charge_invocation()
        snap = budget.snapshot()
        assert snap["invocations"] == 1
        assert snap["limits"]["invocations"] == 10
        assert snap["exhausted"] is None


@pytest.fixture(scope="module")
def budget_tpch_db():
    return tpch.build_database(scale=0.001, seed=13)


class TestBudgetedExtraction:
    def test_fail_fast_run_raises_budget_exhausted(self, budget_tpch_db):
        config = ExtractionConfig(budget_invocations=10, fail_fast=True)
        app = SQLExecutable(QUERY, obfuscate_text=True)
        with pytest.raises(BudgetExhausted):
            UnmasqueExtractor(budget_tpch_db, app, config).extract()

    def test_best_effort_run_degrades_with_structured_outcome(self, budget_tpch_db):
        metrics = MetricsRegistry()
        config = ExtractionConfig(budget_invocations=10, fail_fast=False)
        app = SQLExecutable(QUERY, obfuscate_text=True)
        outcome = UnmasqueExtractor(
            budget_tpch_db, app, config, tracer=Tracer(metrics=metrics)
        ).extract()
        assert outcome.verdict == "budget_exhausted"
        assert any(d.error == "BudgetExhausted" for d in outcome.degradations)
        assert outcome.budget is not None
        assert outcome.budget["exhausted"]
        assert outcome.budget["limits"]["invocations"] == 10
        # budget_* metrics were emitted
        snap = metrics.snapshot()
        assert snap["budget_invocations_used"]["value"] >= 10
        assert snap["budget_exhaustions_total"]["value"] >= 1
        assert "budget" in outcome.describe()

    def test_wall_clock_budget_terminates_promptly(self, budget_tpch_db):
        # A budget far below what this extraction needs (a quarter of an
        # unbudgeted run's wall-clock): the watchdog must cut it off close to
        # the limit, not hang to completion.
        started = time.perf_counter()
        UnmasqueExtractor(
            budget_tpch_db, SQLExecutable(QUERY, obfuscate_text=True),
            ExtractionConfig(),
        ).extract()
        needed = time.perf_counter() - started
        config = ExtractionConfig(budget_seconds=needed / 4, fail_fast=False)
        app = SQLExecutable(QUERY, obfuscate_text=True)
        started = time.perf_counter()
        outcome = UnmasqueExtractor(budget_tpch_db, app, config).extract()
        elapsed = time.perf_counter() - started
        assert outcome.verdict == "budget_exhausted"
        assert any(
            "wall_clock" in d.message for d in outcome.degradations
        )
        assert elapsed < 10.0  # generous CI headroom over the budget

    def test_unbudgeted_run_reports_no_budget(self, budget_tpch_db):
        app = SQLExecutable(QUERY, obfuscate_text=True)
        outcome = UnmasqueExtractor(budget_tpch_db, app, ExtractionConfig()).extract()
        assert outcome.verdict == "ok"
        assert outcome.budget is None

    def test_generous_budget_does_not_disturb_extraction(self, budget_tpch_db):
        app = SQLExecutable(QUERY, obfuscate_text=True)
        plain = UnmasqueExtractor(
            budget_tpch_db, SQLExecutable(QUERY, obfuscate_text=True),
            ExtractionConfig(),
        ).extract()
        budgeted = UnmasqueExtractor(
            budget_tpch_db,
            app,
            ExtractionConfig(
                budget_invocations=100_000,
                budget_rows_scanned=10**9,
                budget_cells=10**9,
                budget_seconds=600.0,
            ),
        ).extract()
        assert budgeted.sql == plain.sql
        assert budgeted.verdict == "ok"
        assert budgeted.budget["invocations"] == budgeted.stats.total_invocations
        assert budgeted.budget["rows_scanned"] > 0
        assert budgeted.budget["cells_materialized"] > 0


class TestBudgetStoppedSql:
    @pytest.mark.parametrize(
        "workload, name, scale, budget",
        [("tpch", "Q6", 0.0005, 25), ("having", "H1_count", 0.002, 20)],
    )
    def test_run_stopped_before_any_output_emits_no_sql(
        self, workload, name, scale, budget
    ):
        config = ExtractionConfig(
            extract_having=workload == "having",
            budget_invocations=budget,
            fail_fast=False,
        )
        app = SQLExecutable(find_query(workload, name).sql, obfuscate_text=True)
        db = build_instance(workload, scale, 7)
        outcome = UnmasqueExtractor(db, app, config).extract()
        assert outcome.verdict == "budget_exhausted"
        assert not outcome.query.outputs
        assert outcome.sql == ""

    def test_every_budget_stopped_sql_parses(self, budget_tpch_db):
        verdicts = set()
        for budget in range(5, 100, 8):
            config = ExtractionConfig(budget_invocations=budget, fail_fast=False)
            app = SQLExecutable(QUERY, obfuscate_text=True)
            outcome = UnmasqueExtractor(budget_tpch_db, app, config).extract()
            verdicts.add(outcome.verdict)
            if outcome.sql:
                parse_select(outcome.sql)
        assert "budget_exhausted" in verdicts
