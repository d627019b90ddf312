"""End-to-end chaos tests: extraction under injected faults (ISSUE PR-2).

The acceptance bar: with a fixed seed and a transient-fault profile, the
pipeline must converge to the *identical* SQL as a fault-free run, with the
retries visible in stats/metrics; a killed run resumed via a checkpoint
directory must re-execute only the unfinished modules.
"""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.core import ExtractionConfig, UnmasqueExtractor
from repro.errors import ReproError, TransientExecutableError
from repro.obs import MetricsRegistry, Tracer
from repro.resilience import (
    FAULT_PROFILES,
    CheckpointStore,
    FaultPlan,
    FaultyExecutable,
    InjectedCrashError,
)
from repro.workloads import tpch_queries

CHAOS_SEED = 1337


def clean_extract(db, sql, **config_kwargs):
    config = ExtractionConfig(run_checker=False, **config_kwargs)
    app = SQLExecutable(sql, obfuscate_text=True)
    return UnmasqueExtractor(db, app, config).extract()


def chaos_extract(db, sql, plan, tracer=None, checkpoint_dir=None, **config_kwargs):
    config_kwargs.setdefault("retry_max_attempts", 6)
    config_kwargs.setdefault("retry_base_delay", 0.0)
    config_kwargs.setdefault("retry_timeouts", plan.injects_timeouts)
    config = ExtractionConfig(run_checker=False, **config_kwargs)
    app = FaultyExecutable(SQLExecutable(sql, obfuscate_text=True), plan)
    extractor = UnmasqueExtractor(
        db, app, config, tracer=tracer, checkpoint_dir=checkpoint_dir
    )
    return extractor.extract(), app


class TestChaosSurvival:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", ["Q3", "Q4"])
    def test_transient_faults_yield_identical_sql(self, tpch_db, name, jobs):
        sql = tpch_queries.QUERIES[name].sql
        clean = clean_extract(tpch_db, sql)
        plan = FAULT_PROFILES["transient"].with_seed(CHAOS_SEED)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics, keep_spans=False)
        chaotic, app = chaos_extract(tpch_db, sql, plan, tracer=tracer, jobs=jobs)

        assert chaotic.sql == clean.sql
        assert app.injected["transient"] > 0
        assert chaotic.stats.retries >= app.injected["transient"]
        # parallel probe tasks fold their metric increments back, so the
        # counters match the stats at every jobs level
        assert metrics.counter("retries_total").value == chaotic.stats.retries
        assert (
            metrics.counter("invocation_timeouts_total").value
            == chaotic.stats.invocation_timeouts
        )
        assert not chaotic.degradations

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timeout_faults_survive_with_retry_timeouts(self, tpch_db, jobs):
        sql = tpch_queries.QUERIES["Q4"].sql
        clean = clean_extract(tpch_db, sql)
        plan = FAULT_PROFILES["timeouts"].with_seed(CHAOS_SEED)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics, keep_spans=False)
        chaotic, app = chaos_extract(tpch_db, sql, plan, tracer=tracer, jobs=jobs)

        assert chaotic.sql == clean.sql
        assert app.injected["timeout"] > 0
        assert chaotic.stats.invocation_timeouts >= app.injected["timeout"]
        assert (
            metrics.counter("invocation_timeouts_total").value
            == chaotic.stats.invocation_timeouts
        )
        assert metrics.counter("retries_total").value == chaotic.stats.retries

    def test_chaos_is_deterministic_per_seed(self, tpch_db):
        sql = tpch_queries.QUERIES["Q4"].sql
        plan = FAULT_PROFILES["transient"].with_seed(CHAOS_SEED)
        first, app_first = chaos_extract(tpch_db, sql, plan)
        second, app_second = chaos_extract(tpch_db, sql, plan)
        assert first.sql == second.sql
        assert app_first.injected == app_second.injected
        assert first.stats.retries == second.stats.retries

    @pytest.mark.parametrize("isolate", ["none", "process"])
    def test_injected_faults_reach_the_invocation_ledger(self, tiny_tpch_db, isolate):
        """An attempt aborted by an injected fault is an invocation like any
        other: every counter of it agrees, in-process and isolated."""
        sql = tpch_queries.QUERIES["Q6"].sql
        plan = FAULT_PROFILES["transient"].with_seed(CHAOS_SEED)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics, keep_spans=False)
        chaotic, app = chaos_extract(
            tiny_tpch_db, sql, plan, tracer=tracer, isolate=isolate
        )

        assert app.injected["transient"] > 0
        total = chaotic.stats.total_invocations
        assert metrics.counter("invocations_total").value == total
        assert metrics.histogram("invocation_latency_seconds").count == total
        assert app.invocation_count == total

    def test_total_outage_still_fails(self, tpch_db):
        """Retry is not magic: a hard outage exhausts attempts and raises."""
        sql = tpch_queries.QUERIES["Q4"].sql
        plan = FaultPlan(transient_rate=1.0, seed=CHAOS_SEED)
        with pytest.raises(TransientExecutableError):
            chaos_extract(tpch_db, sql, plan, retry_max_attempts=3)


class TestCrashResume:
    def test_killed_run_resumes_from_checkpoint(self, tpch_db, tmp_path):
        sql = tpch_queries.QUERIES["Q3"].sql
        clean = clean_extract(tpch_db, sql)
        full_invocations = clean.stats.total_invocations
        store = CheckpointStore(tmp_path)

        plan = FaultPlan(crash_at=40, seed=CHAOS_SEED)
        with pytest.raises(InjectedCrashError):
            chaos_extract(tpch_db, sql, plan, checkpoint_dir=store)
        assert store.exists()  # progress survived the "kill -9"

        # Resume with a healthy executable, as an operator would.
        config = ExtractionConfig(run_checker=False)
        app = SQLExecutable(sql, obfuscate_text=True)
        outcome = UnmasqueExtractor(
            tpch_db, app, config, checkpoint_dir=store
        ).extract()

        assert outcome.sql == clean.sql
        assert outcome.resumed_modules  # at least setup/from_clause were skipped
        assert "setup" in outcome.resumed_modules
        # The resumed run only re-executes unfinished modules, so it invokes
        # the application strictly fewer times than a from-scratch run.
        assert app.invocation_count < full_invocations
        assert not store.exists()  # cleared on success

    def test_checkpoint_rejects_different_database(self, tpch_db, tiny_tpch_db, tmp_path):
        from repro.errors import CheckpointError

        sql = tpch_queries.QUERIES["Q4"].sql
        store = CheckpointStore(tmp_path)
        plan = FaultPlan(crash_at=40, seed=CHAOS_SEED)
        with pytest.raises(InjectedCrashError):
            chaos_extract(tpch_db, sql, plan, checkpoint_dir=store)

        app = SQLExecutable(sql, obfuscate_text=True)
        config = ExtractionConfig(run_checker=False)
        with pytest.raises(CheckpointError):
            UnmasqueExtractor(tiny_tpch_db, app, config, checkpoint_dir=store).extract()


class TestBestEffortDegradation:
    def _late_outage_plan(self, clean_stats):
        """A plan whose outage begins right before the order-by module."""
        tail = {"order_by", "limit", "checker", "eqc_postflight"}
        pre = sum(
            module.invocations
            for name, module in clean_stats.modules.items()
            if name not in tail
        )
        return FaultPlan(transient_rate=1.0, activate_after=pre, seed=CHAOS_SEED)

    def test_tail_modules_degrade_instead_of_failing(self, tpch_db):
        sql = tpch_queries.QUERIES["Q3"].sql
        clean = clean_extract(tpch_db, sql)
        plan = self._late_outage_plan(clean.stats)

        outcome, _app = chaos_extract(
            tpch_db,
            sql,
            plan,
            retry_max_attempts=2,
            fail_fast=False,
        )

        degraded = [d.module for d in outcome.degradations]
        assert degraded == ["order_by", "limit", "eqc_postflight"]
        assert outcome.is_degraded
        for degradation in outcome.degradations:
            assert degradation.error == "TransientExecutableError"
        # Everything extracted before the outage is intact.
        assert outcome.query.tables == clean.query.tables
        assert [f.to_sql() for f in outcome.query.filters] == [
            f.to_sql() for f in clean.query.filters
        ]
        # Degraded clauses are absent, not wrong.
        assert outcome.query.order_by == []
        assert outcome.query.limit is None
        assert "diagnostics (best-effort degradations)" in outcome.describe()

    def test_fail_fast_default_raises_on_tail_failure(self, tpch_db):
        sql = tpch_queries.QUERIES["Q3"].sql
        clean = clean_extract(tpch_db, sql)
        plan = self._late_outage_plan(clean.stats)
        with pytest.raises(ReproError):
            chaos_extract(tpch_db, sql, plan, retry_max_attempts=2, fail_fast=True)
