"""Deadline precedence: every pairing of the four wall-clock layers.

The stack (DESIGN.md §5.16): job deadline → budget wall-clock → cooperative
invocation timeout → worker SIGKILL deadline, composed tightest-wins by
:mod:`repro.resilience.deadlines`.
"""

import time

import pytest

from repro.resilience.budgets import BudgetSpec, ResourceBudget
from repro.resilience.deadlines import (
    budget_wall_seconds,
    cooperative_timeout,
    hard_kill_deadline,
    tightest,
    worker_timeout,
)


class TestTightest:
    def test_min_of_applicable_limits(self):
        assert tightest(5.0, 3.0, 7.0) == 3.0

    def test_none_limits_do_not_apply(self):
        assert tightest(None, 4.0, None) == 4.0

    def test_all_none_means_unbounded(self):
        assert tightest(None, None) is None

    def test_no_args_means_unbounded(self):
        assert tightest() is None


class TestJobDeadlineVsBudget:
    """Pairing 1: job deadline (serve) × configured budget wall-clock."""

    def test_job_deadline_tighter_than_budget(self):
        assert budget_wall_seconds(10.0, 60.0) == 10.0

    def test_budget_tighter_than_job_deadline(self):
        assert budget_wall_seconds(120.0, 30.0) == 30.0

    def test_only_job_deadline(self):
        assert budget_wall_seconds(15.0, None) == 15.0

    def test_only_budget(self):
        assert budget_wall_seconds(None, 20.0) == 20.0

    def test_neither(self):
        assert budget_wall_seconds(None, None) is None


class TestBudgetVsCooperativeTimeout:
    """Pairing 2: remaining budget wall-clock × caller invocation timeout."""

    def test_caller_timeout_capped_by_remaining_budget(self):
        assert cooperative_timeout(10.0, 2.5) == 2.5

    def test_caller_timeout_tighter_than_budget(self):
        assert cooperative_timeout(0.1, 30.0) == 0.1

    def test_budget_alone_bounds_open_ended_invocations(self):
        assert cooperative_timeout(None, 7.0) == 7.0

    def test_unbounded_when_neither_applies(self):
        assert cooperative_timeout(None, None) is None


class TestCooperativeVsWorkerTimeout:
    """Pairing 3: cooperative timeout × worker default backstop."""

    def test_caller_timeout_wins_over_default(self):
        # An explicit 0.1s probe timeout must not be stretched to the 30s
        # worker default — the From-clause timeout *is* a signal.
        assert worker_timeout(0.1, None, 30.0) == 0.1

    def test_caller_timeout_still_capped_by_budget(self):
        assert worker_timeout(10.0, 3.0, 30.0) == 3.0

    def test_no_caller_timeout_falls_back_to_default(self):
        # The backstop applies: a hung worker dies at default + kill_grace.
        assert worker_timeout(None, None, 30.0) is None  # pool substitutes it

    def test_remaining_budget_tightens_the_default(self):
        assert worker_timeout(None, 5.0, 30.0) == 5.0

    def test_remaining_budget_never_loosens_the_default(self):
        # 10 minutes of budget left must NOT grant a 10-minute hang window.
        assert worker_timeout(None, 600.0, 30.0) == 30.0


class TestHardKillDeadline:
    """Pairing 4: whichever cooperative deadline won × kill_grace."""

    def test_grace_is_added_to_caller_timeout(self):
        assert hard_kill_deadline(2.0, None, 30.0, 1.0) == 3.0

    def test_grace_is_added_to_budget_remainder(self):
        assert hard_kill_deadline(None, 4.0, 30.0, 0.5) == 4.5

    def test_grace_is_added_to_the_default_backstop(self):
        assert hard_kill_deadline(None, None, 30.0, 1.0) == 31.0

    def test_tightest_layer_wins_before_grace(self):
        assert hard_kill_deadline(9.0, 2.0, 30.0, 1.0) == 3.0


class TestBudgetRemainingSeconds:
    def test_unlimited_budget_has_no_remainder(self):
        budget = ResourceBudget(BudgetSpec())
        assert budget.remaining_seconds() is None

    def test_full_limit_before_start(self):
        budget = ResourceBudget(BudgetSpec(max_seconds=10.0))
        assert budget.remaining_seconds() == 10.0

    def test_remainder_tracks_the_clock(self):
        now = [100.0]
        budget = ResourceBudget(
            BudgetSpec(max_seconds=10.0), clock=lambda: now[0]
        )
        budget.start()
        now[0] = 104.0
        assert budget.remaining_seconds() == pytest.approx(6.0)

    def test_remainder_clamps_at_zero(self):
        now = [100.0]
        budget = ResourceBudget(
            BudgetSpec(max_seconds=10.0), clock=lambda: now[0]
        )
        budget.start()
        now[0] = 125.0
        assert budget.remaining_seconds() == 0.0

    def test_bulk_invocation_charge(self):
        from repro.errors import BudgetExhausted

        budget = ResourceBudget(BudgetSpec(max_invocations=10))
        budget.charge_invocations(7)
        assert budget.invocations == 7
        with pytest.raises(BudgetExhausted):
            budget.charge_invocations(4)


class TestSessionComposition:
    """The composed rule as the session actually applies it under isolation."""

    def test_isolated_invocation_timeout_composition(self, tiny_tpch_db):
        from repro.apps.executable import SQLExecutable
        from repro.core.config import ExtractionConfig
        from repro.core.session import ExtractionSession

        captured = []

        class _Backend:
            def invoke(self, silo, timeout):
                captured.append(timeout)
                return SQLExecutable("select r_name from region").run(silo)

            def close(self):
                pass

            def worker_stats(self):
                return {}

        config = ExtractionConfig(budget_seconds=5.0)
        session = ExtractionSession(
            tiny_tpch_db,
            SQLExecutable("select r_name from region"),
            config,
        )
        session.backend = _Backend()
        try:
            # caller timeout tighter than remaining budget -> caller wins
            session.run(timeout=0.05)
            assert captured[-1] == pytest.approx(0.05, abs=0.04)
            # no caller timeout -> tightest(remaining budget, worker default)
            session.run()
            assert captured[-1] is not None
            assert captured[-1] <= 5.0
        finally:
            session.backend = None
            session.close()

    def test_parallel_isolated_probe_killed_within_budget(self, tiny_tpch_db):
        """A hung worker in a parallel isolated batch is killed on the
        wall-clock budget, not on the much looser worker default."""
        from repro.core.config import ExtractionConfig
        from repro.core.session import ExtractionSession
        from repro.errors import BudgetExhausted
        from tests.isolation_workloads import BusyLooper

        budget, grace, slack = 2.0, 0.5, 2.0
        config = ExtractionConfig(
            isolate="process",
            jobs=2,
            budget_seconds=budget,
            worker_default_timeout=12.0,
            worker_kill_grace=grace,
            retry_max_attempts=1,
        )
        session = ExtractionSession(tiny_tpch_db, BusyLooper(), config)
        try:
            session.budget.start()
            started = time.perf_counter()
            with pytest.raises(BudgetExhausted):
                with session.module("filters"):
                    session.scheduler.map([0, 1], lambda ctx, item: ctx.run())
            elapsed = time.perf_counter() - started
        finally:
            session.close()
        assert elapsed < budget + grace + slack
