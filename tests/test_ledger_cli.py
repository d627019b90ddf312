"""End-to-end tests for ``--ledger``, ``repro explain``, ``repro trace-diff``,
and the bench payload's provenance/percentile extensions."""

from __future__ import annotations

import io
import re

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


BASE = ["--workload", "tpch", "--query", "Q6", "--scale", "0.001", "--no-checker"]


class TestExplainCommand:
    def test_explain_covers_every_clause(self):
        code, output = run_cli(["explain", *BASE])
        assert code == 0
        assert "clause provenance" in output
        match = re.search(r"clauses: (\d+), evidence-covered: (\d+)", output)
        assert match is not None
        assert match.group(1) == match.group(2)  # 100% coverage
        assert "NO EVIDENCE" not in output
        assert "established by probes" in output

    def test_explain_requires_exactly_one_source(self):
        code, output = run_cli(["explain"])
        assert code == 2
        assert "exactly one of" in output
        code, _ = run_cli(["explain", "--query", "Q6", "--sql", "select 1"])
        assert code == 2

    def test_explain_from_ledger_round_trip(self, tmp_path):
        ledger = str(tmp_path / "runs.sqlite")
        code, live = run_cli(["explain", *BASE, "--ledger", ledger])
        assert code == 0
        assert f"run 1 -> {ledger}" in live
        code, replay = run_cli(["explain", "--from-ledger", ledger])
        assert code == 0
        # the stored clause table reproduces the live report's clause lines
        for line in live.splitlines():
            if line.startswith("  ") and "established by" not in line:
                assert line in replay
        assert "status completed" in replay

    def test_explain_from_empty_ledger_reports_cleanly(self, tmp_path):
        ledger = str(tmp_path / "empty.sqlite")
        RunLedger(ledger).close()
        code, output = run_cli(["explain", "--from-ledger", ledger])
        assert code == 2
        assert "no such run" in output


class TestLedgerPersistence:
    def test_extract_with_ledger_records_run(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        code, output = run_cli(["extract", *BASE, "--ledger", path])
        assert code == 0
        assert "ledger      : run 1" in output
        with RunLedger(path) as ledger:
            run = ledger.run()
            assert run["status"] == "completed"
            assert run["label"] == "extract"
            assert run["query_name"] == "Q6"
            assert run["sql"].startswith("select ")
            assert run["invocations"] > 0
            assert run["extras"]["caches"]
            modules = ledger.modules(run["run_id"])
            assert "filters" in modules
            clauses = ledger.clauses(run["run_id"])
            assert clauses and all(row["probes"] > 0 for row in clauses)
            events = ledger.events(run["run_id"])
            probe_events = [e for e in events if e.kind == "probe"]
            assert len(probe_events) == run["invocations"]

    def test_ledger_accumulates_runs(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        for _ in range(2):
            code, _ = run_cli(["extract", *BASE, "--ledger", path])
            assert code == 0
        with RunLedger(path) as ledger:
            assert [run["run_id"] for run in ledger.runs()] == [1, 2]


class TestTraceDiffCommand:
    def test_identical_runs_diff_clean(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        for _ in range(2):
            run_cli(["extract", *BASE, "--ledger", path])
        code, output = run_cli(
            ["trace-diff", f"{path}@1", f"{path}@2", "--threshold", "10"]
        )
        assert code == 0
        assert "extracted SQL identical" in output
        assert "invocations" in output
        assert "no drift above" in output

    def test_missing_source_reports_cleanly(self, tmp_path):
        code, output = run_cli(
            ["trace-diff", str(tmp_path / "nope.sqlite"), str(tmp_path / "x")]
        )
        assert code == 2
        assert "cannot diff" in output


class TestBenchProvenance:
    def test_payload_carries_modules_percentiles_and_ledger(self, tmp_path):
        from repro.bench.extraction_bench import run_extraction_bench

        ledger_path = str(tmp_path / "bench.sqlite")
        payload = run_extraction_bench(
            queries=["Q6"],
            jobs_levels=[1, 2],
            latency=0.0,
            ledger_path=ledger_path,
        )
        for row in payload["queries"]:
            for run in row["runs"]:
                assert run["modules"], "per-run module breakdown missing"
                for stats in run["modules"].values():
                    assert set(stats) == {"seconds", "invocations"}
                pct = run["latency_percentiles"]
                assert set(pct) == {"p50", "p95", "p99"}
                assert 0.0 < pct["p50"] <= pct["p95"] <= pct["p99"]
        summary_pct = payload["summary"]["invocation_latency"]
        assert set(summary_pct) == {"p50", "p95", "p99"}
        with RunLedger(ledger_path) as ledger:
            runs = ledger.runs()
            assert len(runs) == 2  # one per (query, jobs)
            assert {run["jobs"] for run in runs} == {1, 2}
            assert all(run["status"] == "completed" for run in runs)
            assert all(run["label"] == "bench" for run in runs)
            clauses = ledger.clauses(runs[0]["run_id"])
            assert clauses and all(row["probes"] > 0 for row in clauses)

    def test_failed_extraction_marks_run_failed(self, tmp_path, monkeypatch):
        """A raising extraction leaves its run ``failed`` and the ledger
        closed, as the CLI does."""
        from repro.bench.extraction_bench import run_extraction_bench
        from repro.core.pipeline import UnmasqueExtractor

        def boom(self):
            raise RuntimeError("extraction blew up")

        closed = []
        close = RunLedger.close

        def closing(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(UnmasqueExtractor, "extract", boom)
        monkeypatch.setattr(RunLedger, "close", closing)
        ledger_path = str(tmp_path / "bench.sqlite")
        with pytest.raises(RuntimeError, match="blew up"):
            run_extraction_bench(
                queries=["Q6"],
                jobs_levels=[1],
                scale=0.0005,
                latency=0.0,
                ledger_path=ledger_path,
            )
        assert len(closed) == 1
        with RunLedger(ledger_path) as ledger:
            assert [run["status"] for run in ledger.runs()] == ["failed"]
            assert ledger.run()["extras"]["error"] == "extraction blew up"

    def test_bench_without_ledger_unchanged_shape(self):
        from repro.bench.extraction_bench import run_extraction_bench

        payload = run_extraction_bench(
            queries=["Q6"], jobs_levels=[1], latency=0.0
        )
        run = payload["queries"][0]["runs"][0]
        for key in ("jobs", "seconds", "invocations", "sql",
                    "plan_cache_hit_rate", "invocation_cache_hit_rate",
                    "scheduler", "modules", "latency_percentiles",
                    "speedup_vs_jobs1"):
            assert key in run


class TestTraceReportSelfTimeAtJobs4:
    """Regression: module self-time must stay sane under ``--jobs 4``."""

    def test_busy_never_exceeds_wall(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code, _ = run_cli(
            ["extract", *BASE, "--jobs", "4", "--trace-out", trace]
        )
        assert code == 0
        code, output = run_cli(["trace-report", trace])
        assert code == 0
        assert "per-module self-time" in output
        table = output.split("per-module self-time", 1)[1]
        rows = re.findall(
            r"^(\w+)\s+([\d.]+)s\s+([\d.]+)s\s+([\d.]+)s\s+(\d+)\s*$",
            table,
            re.MULTILINE,
        )
        assert rows, "per-module table missing from report"
        for module, wall, busy, self_time, _ in rows:
            wall, busy, self_time = float(wall), float(busy), float(self_time)
            # interval-union semantics: overlapping parallel children never
            # push busy past wall-clock or self-time below zero
            assert busy <= wall + 1e-6, f"{module}: busy {busy} > wall {wall}"
            assert self_time >= 0.0
            assert abs((busy + self_time) - wall) < 1e-3
        assert "caches: plan" in output
