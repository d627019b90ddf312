"""One front door for running an extraction (``core.pipeline.run_extraction``).

Every extraction command takes the same path for its common flags (trace,
metrics, ledger), and a full disk under the ledger never costs a healthy
extraction its SQL or its exit code.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.apps import SQLExecutable
from repro.cli import main
from repro.core import ExtractionConfig
from repro.core.pipeline import run_extraction
from repro.errors import EmptyInitialResult, StorageExhausted, UnwritableOutput
from repro.obs.ledger import RunLedger
from repro.obs.trace import read_jsonl
from repro.workloads import find_query

BASE = ["--workload", "tpch", "--query", "Q6", "--scale", "0.0005", "--seed", "7"]
Q6_SQL = find_query("tpch", "Q6").sql

COMMANDS = {
    "extract": ["extract", *BASE],
    "sql": ["sql", "--scale", "0.0005", "--seed", "7", Q6_SQL],
    "verify": ["verify", *BASE],
    "explain": ["explain", *BASE],
    "chaos": ["chaos", *BASE, "--profile", "transient"],
}


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_writes_its_trace_and_metrics(command, tmp_path):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code, output = run_cli(
        [*COMMANDS[command], "--no-checker",
         "--trace-out", str(trace), "--metrics-out", str(metrics)]
    )
    assert code == 0, output
    assert [s.kind for s in read_jsonl(trace)].count("pipeline") == 1
    assert "invocations_total" in json.loads(metrics.read_text())
    assert str(trace) in output and str(metrics) in output


@pytest.mark.parametrize("command", ["explain", "chaos"])
def test_report_flag_prints_the_clause_report(command):
    code, output = run_cli([*COMMANDS[command], "--no-checker", "--report"])
    assert code == 0, output
    assert "extraction report" in output


def test_chaos_refuses_unwritable_outputs_before_the_baseline(tmp_path):
    code, output = run_cli(
        [*COMMANDS["chaos"], "--no-checker",
         "--metrics-out", str(tmp_path / "missing" / "m.json")]
    )
    assert code == 2
    assert output.startswith("cannot write ")
    assert "baseline" not in output and "profile" not in output


class TestLedgerFailurePolicy:
    """A full disk drops the ledger, never the extraction."""

    def test_full_disk_at_finish_keeps_sql_and_exit_code(
        self, tmp_path, monkeypatch
    ):
        def full_disk(self, run_id, provenance, outcome):
            raise StorageExhausted("ledger", "database or disk is full")

        monkeypatch.setattr(RunLedger, "finish_extraction", full_disk)
        ledger = tmp_path / "runs.sqlite"
        code, output = run_cli(
            ["extract", *BASE, "--no-checker", "--ledger", str(ledger)]
        )
        assert code == 0, output
        assert "select sum(lineitem.l_extendedprice" in output
        assert "invocations : " in output
        assert (
            "warning     : ledger dropped, run not recorded: storage "
            "exhausted in ledger: database or disk is full"
        ) in output
        assert "ledger      : run" not in output

    def test_dropped_run_reads_aborted_in_the_same_process(
        self, tmp_path, monkeypatch, tiny_tpch_db
    ):
        def full_disk(self, run_id, provenance, outcome):
            raise StorageExhausted("ledger", "database or disk is full")

        monkeypatch.setattr(RunLedger, "finish_extraction", full_disk)
        ledger = str(tmp_path / "runs.sqlite")
        run = run_extraction(
            tiny_tpch_db,
            SQLExecutable(Q6_SQL, obfuscate_text=True),
            ExtractionConfig(run_checker=False),
            ledger=ledger,
        )
        assert run.outcome.sql and run.ledger_run is None
        with RunLedger(ledger) as book:
            (row,) = book.runs()
        assert (row["run_id"], row["status"]) == (1, "aborted")
        assert "database or disk is full" in row["extras_json"]

    def test_full_disk_at_begin_runs_without_a_ledger(
        self, tmp_path, monkeypatch
    ):
        def full_disk(self, **kwargs):
            raise StorageExhausted("ledger", "database or disk is full")

        monkeypatch.setattr(RunLedger, "begin_run", full_disk)
        code, output = run_cli(
            ["verify", *BASE, "--no-checker",
             "--ledger", str(tmp_path / "runs.sqlite")]
        )
        assert code == 0, output
        assert "verdict     : ok" in output
        assert "ledger dropped" in output

    def test_full_disk_mid_run_drops_the_evidence_stream(
        self, tmp_path, monkeypatch
    ):
        def full_disk(self, run_id, events):
            raise StorageExhausted("ledger", "database or disk is full")

        monkeypatch.setattr(RunLedger, "append_events", full_disk)
        code, output = run_cli(
            ["explain", *BASE, "--no-checker",
             "--ledger", str(tmp_path / "runs.sqlite")]
        )
        assert code == 0, output
        assert output.count("ledger dropped") == 1
        assert "clause provenance" in output


def test_extract_verify_explain_agree(tmp_path):
    """The three commands extract one query the same way: the same SQL, the
    same invocation count, and ledger runs with the same module and clause
    rows."""
    ledger = str(tmp_path / "runs.sqlite")
    outputs = {}
    for command in ("extract", "verify", "explain"):
        code, outputs[command] = run_cli([command, *BASE, "--ledger", ledger])
        assert code == 0, outputs[command]
    sql = outputs["extract"].split("\n\n")[0].splitlines()[-1]
    assert sql.startswith("select ")
    assert f"{sql}\n" in outputs["verify"]
    assert f"sql: {sql}" in outputs["explain"]
    for command in ("extract", "verify"):
        assert "invocations : 110\n" in outputs[command]
    with RunLedger(ledger) as book:
        runs = book.runs()
        assert [run["label"] for run in runs] == ["extract", "verify", "explain"]
        assert {run["sql"] for run in runs} == {sql}
        assert {run["invocations"] for run in runs} == {110}
        modules = [
            {name: row["invocations"]
             for name, row in book.modules(run["run_id"]).items()}
            for run in runs
        ]
        clauses = [
            [{k: v for k, v in row.items() if k != "run_id"}
             for row in book.clauses(run["run_id"])]
            for run in runs
        ]
    assert modules[0] == modules[1] == modules[2]
    assert clauses[0] and clauses[0] == clauses[1] == clauses[2]


class TestRunExtraction:
    def test_empty_result_is_refused_before_a_ledger_run(self, tmp_path):
        from repro.apps.executable import SQLExecutable
        from repro.core.pipeline import run_extraction
        from repro.workloads import build_instance

        db = build_instance("tpch", 0.0005, 7)
        app = SQLExecutable("select n_name from nation where n_nationkey > 1000")
        ledger = tmp_path / "runs.sqlite"
        with pytest.raises(EmptyInitialResult):
            run_extraction(db, app, ledger=str(ledger))
        assert app.invocation_count == 1
        assert not ledger.exists()

    def test_unwritable_output_is_refused_before_any_probe(self, tmp_path):
        from repro.apps.executable import SQLExecutable
        from repro.core.pipeline import run_extraction
        from repro.workloads import build_instance

        db = build_instance("tpch", 0.0005, 7)
        app = SQLExecutable(Q6_SQL)
        with pytest.raises(UnwritableOutput, match="cannot write"):
            run_extraction(
                db, app, refuse_empty=False,
                trace_out=str(tmp_path / "missing" / "trace.jsonl"),
            )
        assert app.invocation_count == 0
