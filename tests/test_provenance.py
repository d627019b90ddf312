"""Unit tests for the clause-level provenance layer (DESIGN.md §5.15).

Covers the :class:`ProvenanceRecorder` attribution model (claim pools,
``include_module_probes``, cross-module ``key`` chains, the parallel
``absorb`` fold), the SQLite run ledger round-trip, histogram percentile
edge buckets, the interval-union self-time fix in the trace report, and the
cross-run diff renderer.
"""

from __future__ import annotations

import pytest

from repro.obs.ledger import RunLedger
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.provenance import (
    ACCEPTED,
    NULL_PROVENANCE,
    PROBE,
    EvidenceEvent,
    ProvenanceRecorder,
)


class TestRecorder:
    def test_probe_sequences_are_dense_and_counted(self):
        rec = ProvenanceRecorder()
        seqs = [rec.probe("filters") for _ in range(3)]
        assert seqs == [1, 2, 3]
        assert rec.probe_count == 3
        assert rec.module_probes("filters") == (1, 2, 3)

    def test_claim_drains_the_module_pool_per_decision(self):
        rec = ProvenanceRecorder()
        rec.probe("filters")
        rec.probe("filters")
        rec.accept("filters", "a <= 5", "filters")
        rec.probe("filters")
        rec.accept("filters", "b >= 2", "filters")
        first, second = rec.clause_events()
        assert first.evidence == (1, 2)
        # seq 3 is the first accept itself; only the probe recorded after it
        # (seq 4) remains unclaimed for the second decision
        assert second.evidence == (4,)

    def test_claim_ignores_other_modules_pools(self):
        rec = ProvenanceRecorder()
        rec.probe("joins")
        rec.probe("filters")
        rec.accept("filters", "x", "filters")
        (event,) = rec.clause_events()
        assert event.evidence == (2,)
        # the joins probe stays unclaimed for a later joins decision
        rec.accept("joins", "t1.a = t2.b", "joins")
        assert rec.clause_events()[1].evidence == (1,)

    def test_include_module_probes_cites_the_whole_range(self):
        rec = ProvenanceRecorder()
        rec.probe("having_bounds")
        rec.accept("filters", "early", "having_bounds")  # claims probe 1
        rec.probe("having_bounds")
        rec.accept(
            "having",
            "count(*) >= 3",
            "having_bounds",
            claim=False,
            include_module_probes=True,
        )
        last = rec.clause_events()[-1]
        assert last.evidence == (1, 3)  # every probe of the module, claimed or not

    def test_key_inherits_evidence_across_modules(self):
        rec = ProvenanceRecorder()
        rec.probe("projections")
        rec.refine("select", "draft", "projections", key=("select", 0))
        # aggregations re-renders the same output with zero probes of its own
        rec.accept(
            "select", "sum(x) as s", "aggregations", key=("select", 0), claim=False
        )
        final = rec.clause_events()[-1]
        assert final.target == "sum(x) as s"
        assert final.evidence == (1,)  # inherited through the key chain

    def test_extra_evidence_is_deduplicated_and_ordered_first(self):
        rec = ProvenanceRecorder()
        a = rec.probe("m")
        b = rec.probe("m")
        rec.accept("from", "t", "m", extra_evidence=(a, b, a))
        (event,) = rec.clause_events()
        assert event.evidence == (a, b)

    def test_absorb_renumbers_without_collisions(self):
        main = ProvenanceRecorder()
        main.probe("filters")  # seq 1 in the shared stream
        task = ProvenanceRecorder()
        t1 = task.probe("filters")
        task.accept("filters", "col <= 9", "filters", extra_evidence=(t1,))
        main.absorb(task)
        kinds = [e.kind for e in main.events]
        assert kinds == [PROBE, PROBE, ACCEPTED]
        seqs = [e.seq for e in main.events]
        assert seqs == [1, 2, 3]  # task-local seq 1 renumbered to 2
        assert main.events[-1].evidence == (2,)
        assert main.probe_count == 2

    def test_absorb_merges_unclaimed_pools_in_submission_order(self):
        main = ProvenanceRecorder()
        first, second = ProvenanceRecorder(), ProvenanceRecorder()
        first.probe("group_by")
        second.probe("group_by")
        main.absorb(first)
        main.absorb(second)
        main.accept("group_by", "t.c", "group_by")
        (event,) = main.clause_events()
        assert event.evidence == (1, 2)

    def test_flush_is_incremental(self):
        batches = []
        rec = ProvenanceRecorder(sink=batches.append)
        rec.probe("setup")
        rec.flush()
        rec.probe("filters")
        rec.probe("filters")
        rec.flush()
        rec.flush()  # nothing new: no empty batch
        assert [len(batch) for batch in batches] == [1, 2]

    def test_null_provenance_is_inert(self):
        assert NULL_PROVENANCE.enabled is False
        assert NULL_PROVENANCE.probe("m") == 0
        assert NULL_PROVENANCE.accept("from", "t", "m") == 0
        assert NULL_PROVENANCE.probe_count == 0
        assert NULL_PROVENANCE.events == ()

    def test_event_dict_round_trip(self):
        event = EvidenceEvent(
            7, "filters", PROBE, rows=3, cached=True, db_fingerprint="abc"
        )
        clone = EvidenceEvent.from_dict(event.to_dict())
        assert clone.seq == 7
        assert clone.cached is True
        assert clone.rows == 3
        assert clone.db_fingerprint == "abc"


class TestHistogramPercentiles:
    def test_empty_histogram_reports_zero(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        assert h.percentile(0.5) == 0.0
        assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_fraction_out_of_range_rejected(self):
        h = Histogram("lat", buckets=(0.1,))
        with pytest.raises(ValueError):
            h.percentile(1.5)
        with pytest.raises(ValueError):
            h.percentile(-0.1)

    def test_percentile_returns_bucket_upper_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.9, 1.5, 3.0):
            h.observe(value)
        assert h.percentile(0.5) == 1.0  # rank 2 of 4 sits in the first bucket
        assert h.percentile(0.75) == 2.0
        assert h.percentile(1.0) == 4.0

    def test_overflow_bucket_clamps_to_last_finite_bound(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(50.0)  # lands in +Inf
        assert h.percentile(0.99) == 2.0  # documented lower estimate

    def test_q_zero_reports_first_occupied_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(3.0)
        assert h.percentile(0.0) == 4.0

    def test_merged_registries_percentile_matches_sequential(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.5, 1.5):
            a.histogram("lat", (1.0, 2.0)).observe(value)
        for value in (0.7, 1.9):
            b.histogram("lat", (1.0, 2.0)).observe(value)
        a.merge(b)
        assert a.histogram("lat").count == 4
        assert a.histogram("lat").percentile(0.5) == 1.0


class _ModuleStats:
    def __init__(self, seconds, invocations):
        self.seconds = seconds
        self.invocations = invocations


class TestRunLedger:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            run_id = ledger.begin_run(
                label="test", workload="tpch", query_name="Q6", jobs=4
            )
            rec = ProvenanceRecorder(sink=ledger.sink(run_id))
            rec.probe("filters", rows=3, cached=True)
            rec.accept("filters", "a <= 5", "filters")
            rec.flush()
            ledger.record_modules(
                run_id, {"filters": _ModuleStats(0.25, 12)}
            )
            ledger.record_metrics(run_id, "caches", {"hit_rate": 0.5})
            ledger.finish_run(
                run_id,
                status="completed",
                verdict="ok",
                sql="select 1",
                invocations=12,
                seconds=0.5,
                extras={"caches": {"plan_cache": {"hit_rate": 0.9}}},
            )
        with RunLedger(path) as ledger:
            run = ledger.run()
            assert run["run_id"] == run_id
            assert run["status"] == "completed"
            assert run["sql"] == "select 1"
            assert run["jobs"] == 4
            assert run["extras"]["caches"]["plan_cache"]["hit_rate"] == 0.9
            events = ledger.events(run_id)
            assert [e.kind for e in events] == [PROBE, ACCEPTED]
            assert events[0].cached is True
            assert events[1].evidence == (1,)
            assert ledger.modules(run_id) == {
                "filters": {"seconds": 0.25, "invocations": 12}
            }
            assert ledger.metrics(run_id)["caches"] == {"hit_rate": 0.5}

    def test_finish_extraction_records_what_trace_diff_reads(self, tmp_path):
        from types import SimpleNamespace

        from repro.obs.diff import _view_from_ledger

        path = tmp_path / "ledger.sqlite"
        outcome = SimpleNamespace(
            query=None,
            eqc=None,
            verdict="budget_exhausted",
            sql="",
            caches={
                "plan_cache": {"hit_rate": 0.9},
                "workers": {"invocations": 7, "crashes": 1},
            },
            stats=SimpleNamespace(
                modules={"filters": _ModuleStats(0.25, 12)},
                total_invocations=12,
                total_seconds=0.5,
            ),
        )
        with RunLedger(path) as ledger:
            run_id = ledger.begin_run(label="bench")
            ledger.finish_extraction(run_id, ProvenanceRecorder(), outcome)
            run = ledger.run(run_id)
        assert run["status"] == "completed"
        assert run["extras"]["caches"] == {"plan_cache": {"hit_rate": 0.9}}
        view = _view_from_ledger(str(path), run_id)
        assert view.caches == {"plan_cache": 0.9}
        assert view.workers == {"invocations": 7, "crashes": 1}
        assert view.invocations == 12

    def test_fail_extraction_marks_paused_or_failed(self, tmp_path):
        from repro.errors import ExtractionPaused

        with RunLedger(tmp_path / "ledger.sqlite") as ledger:
            paused = ledger.begin_run(label="serve:job-1")
            ledger.fail_extraction(
                paused, ProvenanceRecorder(), ExtractionPaused("drain")
            )
            failed = ledger.begin_run(label="extract")
            ledger.fail_extraction(
                failed, ProvenanceRecorder(), RuntimeError("boom")
            )
            assert ledger.run(paused)["status"] == "paused"
            assert ledger.run(failed)["status"] == "failed"
            assert ledger.run(failed)["extras"]["error"] == "boom"

    def test_crashed_run_keeps_partial_history(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        ledger = RunLedger(path)
        run_id = ledger.begin_run(label="extract")
        rec = ProvenanceRecorder(sink=ledger.sink(run_id))
        rec.probe("setup")
        rec.flush()  # the module boundary flush before the "crash"
        ledger.close()  # simulated hard stop: finish_run never happens
        with RunLedger(path) as fresh:
            run = fresh.run()
            assert run["status"] == "running"
            assert len(fresh.events(run_id)) == 1

    def test_failed_status_recorded(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with RunLedger(path) as ledger:
            run_id = ledger.begin_run(label="extract")
            ledger.finish_run(run_id, status="failed", extras={"error": "boom"})
            run = ledger.run(run_id)
            assert run["status"] == "failed"
            assert run["extras"]["error"] == "boom"


class TestReportSelfTime:
    """The ``--jobs`` double-counting fix: busy time is an interval union."""

    @staticmethod
    def _span(span_id, parent_id, name, kind, start, end, tags=None):
        from repro.obs.trace import Span

        span = Span(span_id, parent_id, name, kind, start, tags=tags or {})
        span.end = end
        return span

    def test_overlapping_children_counted_once(self):
        from repro.obs.report import render_trace_report

        spans = [
            self._span(1, None, "extraction", "pipeline", 0.0, 10.0),
            self._span(2, 1, "filters", "module", 0.0, 10.0),
            # four fully overlapping parallel invocations: 4 x 8s of span
            # time covering only 8s of wall-clock
            self._span(3, 2, "app", "invocation", 1.0, 9.0),
            self._span(4, 2, "app", "invocation", 1.0, 9.0),
            self._span(5, 2, "app", "invocation", 1.0, 9.0),
            self._span(6, 2, "app", "invocation", 1.0, 9.0),
        ]
        report = render_trace_report(spans)
        assert "per-module self-time" in report
        module_line = next(
            line for line in report.splitlines() if line.startswith("filters")
        )
        # wall 10s, busy = union = 8s (NOT the 32s a sum would report),
        # self = 2s (NOT the negative -22s the old summation implied)
        assert "10.0000s" in module_line
        assert "8.0000s" in module_line
        assert "2.0000s" in module_line
        assert "-" not in module_line.replace("self-time", "")

    def test_isolated_worker_spans_count_as_invocations(self):
        """Under ``--isolate`` an invocation is a ``worker`` span."""
        from repro.obs.report import render_trace_report

        spans = [
            self._span(1, None, "extraction", "pipeline", 0.0, 10.0),
            self._span(2, 1, "filters", "module", 0.0, 10.0),
            self._span(3, 2, "app", "worker", 1.0, 2.0),
            self._span(4, 2, "app", "worker", 2.0, 3.0),
            self._span(5, 2, "app", "invocation", 3.0, 4.0),
        ]
        module_line = next(
            line
            for line in render_trace_report(spans).splitlines()
            if line.startswith("filters")
        )
        assert module_line.split()[-1] == "3"

    def test_disjoint_children_equivalent_to_sum(self):
        from repro.obs.report import _interval_union

        assert _interval_union([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
        assert _interval_union([(0.0, 2.0), (1.0, 3.0)]) == pytest.approx(3.0)
        assert _interval_union([]) == 0.0
        assert _interval_union([(1.0, 1.0)]) == 0.0  # zero-length ignored

    def test_caches_and_workers_surface_in_report(self):
        from repro.obs.report import render_trace_report

        root = self._span(
            1,
            None,
            "extraction",
            "pipeline",
            0.0,
            1.0,
            tags={
                "caches": {
                    "plan_cache": {"hit_rate": 0.9, "hits": 90},
                    "invocation_cache": {"hit_rate": 0.5, "hits": 10},
                    "workers": {
                        "invocations": 20,
                        "crashes": 1,
                        "kills": 2,
                        "respawns": 3,
                        "quarantined": 0,
                    },
                }
            },
        )
        report = render_trace_report([root])
        assert "caches: plan 90% hit (90 hits), invocation 50% hit (10 hits)" in report
        assert "workers: 20 invocations, 1 crashes, 2 kills, 3 respawns" in report

    def test_memo_keying_cost_surfaces_in_report(self):
        from repro.obs.report import render_trace_report

        stats = {"hit_rate": 0.25, "hits": 5, "key_seconds": 0.0123}
        root = self._span(
            1, None, "extraction", "pipeline", 0.0, 1.0,
            tags={"caches": {"invocation_cache": stats}},
        )
        report = render_trace_report([root])
        assert "caches: invocation 25% hit (5 hits, 0.012s keying)" in report


class TestTraceDiff:
    def _make_run(self, ledger, seconds, sql, modules):
        run_id = ledger.begin_run(label="extract", workload="tpch", query_name="Q6")
        ledger.record_modules(run_id, modules)
        ledger.finish_run(
            run_id,
            status="completed",
            sql=sql,
            invocations=100,
            seconds=seconds,
            extras={"caches": {"plan_cache": {"hit_rate": 0.9}}},
        )
        return run_id

    def test_ledger_diff_warns_on_self_time_drift(self, tmp_path):
        from repro.obs.diff import render_diff

        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            self._make_run(
                ledger, 1.0, "select 1", {"filters": _ModuleStats(0.10, 50)}
            )
            self._make_run(
                ledger, 1.05, "select 1", {"filters": _ModuleStats(0.20, 50)}
            )
        text, warnings = render_diff(f"{path}@1", f"{path}@2", threshold=0.25)
        assert warnings >= 1
        assert "filters" in text
        assert "extracted SQL identical" in text

    def test_sql_delta_reported(self, tmp_path):
        from repro.obs.diff import render_diff

        path = str(tmp_path / "ledger.sqlite")
        with RunLedger(path) as ledger:
            self._make_run(ledger, 1.0, "select a from t", {})
            self._make_run(ledger, 1.0, "select b from t", {})
        text, _ = render_diff(f"{path}@1", f"{path}@2", threshold=0.25)
        assert "extracted SQL identical" not in text
