"""Unit tests for the probe scheduler (``repro.sched``).

The golden-corpus and sweep suites check the determinism contract end to
end; this suite pins the scheduler's own semantics — map parity with the
sequential schedule, submission-order error selection, speculative chain
resolution and its gates, and the exactly-once accounting of logical
invocations into module stats, budgets, and metrics.
"""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.core import ExtractionConfig, UnmasqueExtractor
from repro.core.from_clause import extract_tables
from repro.core.minimizer import minimize
from repro.core.session import ExtractionSession
from repro.obs import MetricsRegistry, Tracer
from repro.workloads import tpch_queries

Q3 = tpch_queries.QUERIES["Q3"].sql
Q6 = tpch_queries.QUERIES["Q6"].sql


def make_session(db, sql, **config_kwargs):
    config = ExtractionConfig(**config_kwargs)
    session = ExtractionSession(db, SQLExecutable(sql), config)
    extract_tables(session)
    return session


class TestMap:
    def test_parallel_map_matches_sequential(self, tiny_tpch_db):
        """Same results, same per-module logical charges, any jobs level."""
        observed = {}
        for jobs in (1, 4):
            session = make_session(tiny_tpch_db, Q3, jobs=jobs)
            minimize(session)
            tables = list(session.query.tables)
            with session.module("filters"):
                results = session.scheduler.map(
                    tables,
                    lambda ctx, table: ctx.run_on(
                        {table: [ctx.d1[table]]}
                    ).row_count,
                )
            observed[jobs] = (
                results,
                session.stats.module("filters").invocations,
            )
            session.close()
        assert observed[1] == observed[4]
        assert observed[1][1] == len(observed[1][0])

    def test_single_item_and_jobs1_stay_inline(self, tiny_tpch_db):
        """Degenerate batches never touch a thread pool: the ctx IS the
        session, so tasks may freely use session-only surface (e.g. rng)."""
        session = make_session(tiny_tpch_db, Q6, jobs=1)
        seen = []
        session.scheduler.map(
            ["only"], lambda ctx, item: seen.append(ctx is session)
        )
        assert seen == [True]
        assert session.scheduler.stats.batches == 0
        session.close()

    def test_parallel_tasks_get_an_rng_free_fork(self, tiny_tpch_db):
        """A real parallel batch hands each task a fork of the probe
        surface, never the session, and the fork has no rng."""
        session = make_session(tiny_tpch_db, Q6, jobs=2)
        minimize(session)
        seen = []

        def task(ctx, item):
            seen.append(ctx is session)
            with pytest.raises(AttributeError):
                ctx.rng
            return ctx.run().row_count

        with session.module("filters"):
            session.scheduler.map([0, 1], task)
        assert seen == [False, False]
        assert session.scheduler.stats.batches == 1
        session.close()

    def test_first_error_in_item_order_wins(self, tiny_tpch_db):
        """Later items may fail earlier in wall-clock; the earliest *item's*
        error is the one re-raised, matching a sequential schedule."""
        session = make_session(tiny_tpch_db, Q6, jobs=4)
        minimize(session)

        def task(ctx, item):
            if item >= 1:
                raise ValueError(f"boom-{item}")
            return item

        with session.module("filters"):
            with pytest.raises(ValueError, match="boom-1"):
                session.scheduler.map([0, 1, 2, 3], task)
        session.close()


class TestChain:
    def test_speculative_chain_matches_sequential(self, tiny_tpch_db):
        observed = {}
        for jobs in (1, 4):
            session = make_session(tiny_tpch_db, Q3, jobs=jobs)
            d1 = minimize(session)
            observed[jobs] = (
                d1,
                session.stats.module("minimizer").invocations,
            )
            stats = session.scheduler.stats
            if jobs == 1:
                assert stats.speculation_hits == 0
            else:
                assert stats.speculation_hits > 0
            session.close()
        assert observed[1] == observed[4]

    def test_random_policy_never_speculates(self, tiny_tpch_db):
        """The random halving policy draws from the session RNG per consumed
        link; speculation would evaluate hypothetical states, so the gate
        must hold — and the result must still match jobs=1 exactly."""
        observed = {}
        for jobs in (1, 4):
            session = make_session(
                tiny_tpch_db, Q3, jobs=jobs, halving_policy="random"
            )
            d1 = minimize(session)
            stats = session.scheduler.stats
            assert stats.speculation_hits == 0
            assert stats.speculation_wasted == 0
            observed[jobs] = d1
            session.close()
        assert observed[1] == observed[4]


class TestAccounting:
    def test_metrics_count_logical_invocations_once(self, tiny_tpch_db):
        """invocations_total must equal stats.total_invocations at jobs=4:
        speculative physical executions are invisible, consumed ones tick
        exactly once."""
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry, keep_spans=False)
        outcome = UnmasqueExtractor(
            tiny_tpch_db,
            SQLExecutable(Q3, name="acct"),
            ExtractionConfig(run_checker=False, jobs=4),
            tracer=tracer,
        ).extract()
        snapshot = registry.snapshot()
        assert (
            snapshot["invocations_total"]["value"]
            == outcome.stats.total_invocations
        )
        assert snapshot["scheduler_parallel_probes_total"]["value"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_chain_link_is_accounted_like_any_invocation(
        self, tiny_tpch_db, jobs
    ):
        """A halving link whose probe raises is one logical invocation in
        every ledger — the executable's count, ``invocations_total``, the
        latency histogram and the ``invocation`` spans — whether it ran
        inline (jobs=1) or as a consumed speculative probe (jobs=2)."""

        class ChainBreaker(SQLExecutable):
            # a state the Q3 halving chain reaches on tiny_tpch_db
            STATE = {"lineitem": 38, "orders": 24, "customer": 37}

            def _execute(self, db, timeout):
                if all(db.row_count(t) == n for t, n in self.STATE.items()):
                    raise RuntimeError("broken chain state")
                return super()._execute(db, timeout)

        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        app = ChainBreaker(Q3, name="breaker")
        config = ExtractionConfig(
            run_checker=False, jobs=jobs, retry_max_attempts=1
        )
        with pytest.raises(RuntimeError, match="broken chain state"):
            UnmasqueExtractor(tiny_tpch_db, app, config, tracer=tracer).extract()
        snapshot = registry.snapshot()
        spans = [span for span in tracer.spans if span.kind == "invocation"]
        assert spans[-1].tags["error"] == "RuntimeError"
        assert (
            app.invocation_count
            == snapshot["invocations_total"]["value"]
            == snapshot["invocation_latency_seconds"]["count"]
            == len(spans)
        )

    def test_retryable_chain_link_retries_at_every_jobs_level(self, tiny_tpch_db):
        """A halving link whose first attempt raises a retryable error is
        retried through the session's retry policy whether it ran inline
        (jobs=1) or as a consumed speculative probe (jobs=2/4): the same
        SQL, the same invocation count and the same single retry."""
        from repro.errors import TransientExecutableError

        class FlakyOnce(SQLExecutable):
            # a state the Q3 halving chain reaches on tiny_tpch_db
            STATE = {"lineitem": 38, "orders": 24, "customer": 37}

            def __init__(self, sql, name):
                super().__init__(sql, name=name)
                self.tripped = False

            def _execute(self, db, timeout):
                if not self.tripped and all(
                    db.row_count(t) == n for t, n in self.STATE.items()
                ):
                    self.tripped = True
                    raise TransientExecutableError("flaky chain state")
                return super()._execute(db, timeout)

        observed = {}
        for jobs in (1, 2, 4):
            registry = MetricsRegistry()
            app = FlakyOnce(Q3, name=f"flaky-{jobs}")
            assert app.cacheable
            outcome = UnmasqueExtractor(
                tiny_tpch_db,
                app,
                ExtractionConfig(
                    run_checker=False, jobs=jobs, retry_base_delay=0.0
                ),
                tracer=Tracer(metrics=registry),
            ).extract()
            assert app.tripped
            observed[jobs] = (
                outcome.sql,
                outcome.stats.total_invocations,
                registry.snapshot()["retries_total"]["value"],
            )
        assert observed[1][2] == 1
        assert observed[1] == observed[2] == observed[4]

    def test_outcome_reports_cache_stats(self, tiny_tpch_db):
        outcome = UnmasqueExtractor(
            tiny_tpch_db,
            SQLExecutable(Q6, name="caches"),
            ExtractionConfig(run_checker=False, jobs=2),
        ).extract()
        caches = outcome.caches
        assert caches["scheduler"]["jobs"] == 2
        assert caches["plan_cache"]["hit_rate"] > 0
        assert caches["invocation_cache"]["hit_rate"] > 0

    def test_cache_knobs_disable_cleanly(self, tiny_tpch_db):
        outcome = UnmasqueExtractor(
            tiny_tpch_db,
            SQLExecutable(Q6, name="no-caches"),
            ExtractionConfig(
                run_checker=False,
                plan_cache_size=0,
                invocation_cache=False,
            ),
        ).extract()
        assert outcome.caches.get("plan_cache") is None
        assert outcome.caches.get("invocation_cache") is None
        assert outcome.caches["scheduler"]["jobs"] == 1
