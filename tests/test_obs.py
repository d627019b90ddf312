"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    read_jsonl,
    render_trace_report,
)


class TestSpanNesting:
    def test_parent_child_linkage(self):
        tracer = Tracer()
        with tracer.span("root", kind="pipeline") as root:
            with tracer.span("child", kind="module") as child:
                with tracer.span("grandchild", kind="query") as grandchild:
                    pass
            with tracer.span("sibling", kind="module") as sibling:
                pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert sibling.parent_id == root.span_id

    def test_completion_order_children_first(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "root"]

    def test_start_ordering_and_durations(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].start <= by_name["b"].start
        assert by_name["root"].duration >= (
            by_name["a"].duration + by_name["b"].duration
        )
        assert all(s.end is not None for s in tracer.spans)

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_exception_tags_error_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("root"):
                with tracer.span("bad"):
                    raise ValueError("boom")
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["bad"].tags["error"] == "ValueError"
        assert by_name["root"].tags["error"] == "ValueError"
        assert tracer.current is None

    def test_keep_spans_false_discards_but_still_times(self):
        tracer = Tracer(keep_spans=False)
        assert tracer.enabled
        with tracer.span("root") as span:
            pass
        assert tracer.spans == []
        assert span.duration >= 0.0


class TestJsonlRoundTrip:
    def test_write_read_identity(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", kind="pipeline", tags={"db_rows": 42}):
            with tracer.span("q", kind="query") as q:
                q.set_tag("rows_scanned", 7)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)

        loaded = read_jsonl(path)
        assert len(loaded) == len(tracer.spans)
        for original, restored in zip(tracer.spans, loaded):
            assert restored.span_id == original.span_id
            assert restored.parent_id == original.parent_id
            assert restored.name == original.name
            assert restored.kind == original.kind
            assert restored.tags == original.tags
            assert restored.duration == pytest.approx(original.duration, abs=1e-6)

    def test_file_is_one_json_object_per_line(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 2
        for line in lines:
            payload = json.loads(line)
            assert {"span_id", "name", "kind", "start", "end", "tags"} <= set(payload)


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8

    def test_histogram_bucket_edges_le_semantics(self):
        hist = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        hist.observe(0.001)  # exactly on a bound -> that bucket
        hist.observe(0.0005)
        hist.observe(0.05)
        hist.observe(99.0)  # beyond all bounds -> +Inf
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[0.001] == 2
        assert cumulative[0.01] == 2
        assert cumulative[0.1] == 3
        assert cumulative[float("inf")] == 4
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.001 + 0.0005 + 0.05 + 99.0)

    def test_histogram_cumulative_is_monotone(self):
        hist = Histogram("lat", buckets=(1, 2, 3))
        for value in (0.5, 1.5, 2.5, 3.5, 2.0):
            hist.observe(value)
        counts = [n for _, n in hist.cumulative_buckets()]
        assert counts == sorted(counts)
        assert counts[-1] == hist.count

    def test_registry_creates_on_first_use_and_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        registry.gauge("silo_rows").set(12)
        registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.2)
        snap = registry.snapshot()
        assert snap["queries_total"] == {"type": "counter", "value": 3}
        assert snap["silo_rows"]["value"] == 12
        assert snap["lat"]["count"] == 1
        assert list(snap) == sorted(snap)

    def test_registry_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        path = tmp_path / "m.json"
        registry.write_json(path)
        assert json.loads(path.read_text())["n"]["value"] == 1


class TestNullTracer:
    def test_disabled_and_recordless(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.metrics is None
        with NULL_TRACER.span("anything", kind="query") as span:
            span.set_tag("rows", 1)  # absorbed
            span.set_tags(a=1, b=2)
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.current is None

    def test_zero_allocation_context_reuse(self):
        # The no-op path must hand back the same shared objects every time —
        # this is the "zero-cost when disabled" guarantee for hot paths.
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b", kind="query", tags={"k": "v"})
        assert first is second
        with first as span_a:
            pass
        with second as span_b:
            pass
        assert span_a is span_b


class TestTraceReport:
    def _sample_spans(self):
        tracer = Tracer()
        with tracer.span("extraction", kind="pipeline"):
            with tracer.span("minimizer", kind="module"):
                for i in range(3):
                    with tracer.span("app", kind="invocation"):
                        with tracer.span("select", kind="query") as q:
                            q.set_tags(
                                statement="select",
                                rows_scanned=100 * (i + 1),
                                rows_emitted=i,
                                tables=["lineitem"],
                            )
        return tracer.spans

    def test_tree_structure_and_summary(self):
        report = render_trace_report(self._sample_spans())
        assert "trace report" in report
        assert "pipeline:extraction" in report
        assert "  module:minimizer" in report  # indented under root
        assert "rows_scanned=300" in report
        assert "invocation=3" in report and "query=3" in report

    def test_top_queries_table(self):
        report = render_trace_report(self._sample_spans(), top_queries=2)
        assert "slowest engine queries" in report
        assert report.count("select(lineitem)") == 2

    def test_wide_fanout_elided(self):
        tracer = Tracer()
        with tracer.span("root", kind="pipeline"):
            for _ in range(20):
                with tracer.span("app", kind="invocation"):
                    pass
        report = render_trace_report(tracer.spans, max_children=5)
        assert report.count("invocation:app") == 5
        assert "15 more child spans" in report

    def test_empty_trace(self):
        assert "no spans" in render_trace_report([])

    def test_orphan_parent_treated_as_root(self):
        # A truncated JSONL file may lose ancestors; report must not crash.
        orphan = Span(span_id=9, parent_id=404, name="lost", kind="module", start=0.0)
        orphan.end = 1.0
        report = render_trace_report([orphan])
        assert "module:lost" in report


class TestTracedStatement:
    """The ``query`` span and metrics every traced engine statement emits."""

    @staticmethod
    def _db():
        from repro.engine.catalog import Column, TableSchema
        from repro.engine.database import Database
        from repro.engine.types import IntegerType

        db = Database([
            TableSchema("t", (Column("a", IntegerType()), Column("b", IntegerType())))
        ])
        db.insert("t", [(1, 10), (2, 20), (3, 30)])
        db.tracer = Tracer(metrics=MetricsRegistry())
        return db

    @staticmethod
    def _last_query(db):
        return [s for s in db.tracer.spans if s.kind == "query"][-1]

    def test_select_span_carries_phase_timing_and_row_counts(self):
        db = self._db()
        assert db.execute("select a from t where b > 10").rows == [(2,), (3,)]
        span = self._last_query(db)
        assert span.name == "select"
        assert span.tags["statement"] == "select"
        for phase in ("parse_seconds", "plan_seconds", "execute_seconds"):
            assert span.tags[phase] >= 0
        assert span.tags["tables"] == ["t"]
        assert span.tags["rows_scanned"] == 3
        assert span.tags["rows_emitted"] == 2
        assert span.tags["plan_cache"] == "miss"
        db.execute("select a from t where b > 10")
        assert self._last_query(db).tags["plan_cache"] == "hit"

    @pytest.mark.parametrize(
        "sql, kind, affected",
        [
            ("insert into t values (4, 40), (5, 50)", "insert", 2),
            ("update t set b = 0 where a < 3", "update", 2),
            ("delete from t where a = 1", "delete", 1),
        ],
    )
    def test_dml_span_carries_rows_affected(self, sql, kind, affected):
        db = self._db()
        db.execute(sql)
        span = self._last_query(db)
        assert span.name == kind
        assert span.tags["statement"] == kind
        assert span.tags["rows_affected"] == affected
        assert span.tags["plan_cache"] == "miss"
        snap = db.tracer.metrics.snapshot()
        assert snap["dml_statements_total"]["value"] == 1
        assert snap["dml_rows_affected_total"]["value"] == affected

    def test_statement_metrics_count_successes_and_errors(self):
        db = self._db()
        db.execute("select a from t")
        db.execute("alter table t rename to t_away")
        with pytest.raises(Exception):
            db.execute("select a from t")
        span = self._last_query(db)
        assert span.tags["error"] == "UndefinedTableError"
        snap = db.tracer.metrics.snapshot()
        assert snap["queries_total"]["value"] == 3
        assert snap["query_errors_total"]["value"] == 1
        assert snap["query_latency_seconds"]["count"] == 3
        assert snap["rows_scanned_total"]["value"] == 3
