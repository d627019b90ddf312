"""Out-of-class (non-EQC) detection: probes, verdict flow, CLI, checkpoints."""

from __future__ import annotations

import datetime
import io
import json

import pytest

from repro.apps.executable import CallableExecutable, SQLExecutable
from repro.cli import main
from repro.core import eqc_guard
from repro.core.config import ExtractionConfig
from repro.core.model import JoinClique
from repro.core.pipeline import UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.datagen import tpch
from repro.engine.result import Result
from repro.errors import CheckpointError, UnsupportedQueryError
from repro.sgraph.schema_graph import ColumnNode

NON_EQUI_SQL = (
    "select n_name from nation, region where n_regionkey < r_regionkey"
)


def session_for(db, fn, seed: int = 20210620) -> ExtractionSession:
    """A fresh session per call with an explicit probe seed: guard probes
    must behave identically whatever ran before (order independence under
    ``-p no:randomly`` and parallel suites)."""
    return ExtractionSession(db, CallableExecutable(fn), ExtractionConfig(seed=seed))


class TestReport:
    def test_confidence_is_product_of_complements(self):
        signals = [
            eqc_guard.EqcSignal("p1", 0.5, ("joins",), "d1"),
            eqc_guard.EqcSignal("p2", 0.5, ("joins", "filters"), "d2"),
        ]
        report = eqc_guard.build_report(signals)
        assert report.verdict == "in_class"  # both below threshold
        assert report.clause_confidence["joins"] == pytest.approx(0.25)
        assert report.clause_confidence["filters"] == pytest.approx(0.5)
        assert report.clause_confidence["limit"] == 1.0

    def test_verdict_flips_at_threshold(self):
        low = eqc_guard.EqcSignal("p", 0.79, ("joins",), "d")
        high = eqc_guard.EqcSignal(
            "p", eqc_guard.OUT_OF_CLASS_THRESHOLD, ("joins",), "d"
        )
        assert eqc_guard.build_report([low]).verdict == "in_class"
        assert eqc_guard.build_report([high]).verdict == "out_of_class"
        assert eqc_guard.build_report([]).verdict == "in_class"

    def test_extra_signal_is_folded_in(self):
        extra = eqc_guard.EqcSignal("forced", 1.0, ("from",), "d")
        report = eqc_guard.build_report([], extra=extra)
        assert report.out_of_class
        assert report.clause_confidence["from"] == 0.0
        assert "forced" in report.describe()

    def test_to_dict_round_trips_shape(self):
        signal = eqc_guard.EqcSignal("p", 0.9, ("joins",), "d")
        data = eqc_guard.build_report([signal]).to_dict()
        assert data["verdict"] == "out_of_class"
        assert data["signals"][0]["probe"] == "p"
        assert set(data["clause_confidence"]) == set(eqc_guard.CLAUSES)
        json.dumps(data)  # JSON-serialisable for to_dict()/trace tags


class TestSuccessor:
    def test_typed_successors_differ_from_base(self):
        assert eqc_guard._successor(7) == 8
        assert eqc_guard._successor(1.5) == 2.5
        assert eqc_guard._successor(datetime.date(2020, 1, 1)) == datetime.date(
            2020, 1, 2
        )
        assert eqc_guard._successor("abc") == "aba"
        assert eqc_guard._successor("aba") == "abb"
        assert eqc_guard._successor("") == "a"

    def test_unprobeable_types_yield_none(self):
        assert eqc_guard._successor(None) is None
        assert eqc_guard._successor(True) is None


class TestPreflight:
    def test_honest_query_raises_no_signal(self, two_table_db):
        def honest(db):
            rows = [
                (x,)
                for (x,) in db.rows("a")
                if any(x == y for (y,) in db.rows("b"))
            ]
            return Result(["x"], rows)

        session = session_for(two_table_db, honest)
        session.initial_result = session.run()
        assert eqc_guard.preflight(session) == []

    def test_empty_db_sentinel_catches_manufactured_rows(self, two_table_db):
        def constant(db):
            return Result(["c"], [(1,), (2,)])

        session = session_for(two_table_db, constant)
        session.initial_result = session.run()
        signals = eqc_guard.preflight(session)
        probes = [s.probe for s in signals]
        assert "empty_db_sentinel" in probes
        signal = signals[probes.index("empty_db_sentinel")]
        assert signal.severity >= eqc_guard.OUT_OF_CLASS_THRESHOLD

    def test_empty_db_sentinel_tolerates_degenerate_aggregate_row(self, two_table_db):
        def count_star(db):
            return Result(["n"], [(db.row_count("a"),)])

        session = session_for(two_table_db, count_star)
        session.initial_result = session.run()
        assert eqc_guard.preflight(session) == []

    def test_monotonicity_sentinel_catches_anti_join(self, two_table_db):
        # a \ b (anti-join): D_I yields {10}; the halved instance
        # (a=[40,50], b=[20,30]) yields {40, 50} — the result *grew*.
        def anti_join(db):
            b_values = {y for (y,) in db.rows("b")}
            rows = [(x,) for (x,) in db.rows("a") if x not in b_values]
            return Result(["x"], rows)

        session = session_for(two_table_db, anti_join)
        session.initial_result = session.run()
        assert len(session.initial_result.rows) == 1
        signals = eqc_guard.preflight(session)
        assert [s.probe for s in signals] == ["monotonicity_sentinel"]
        assert signals[0].severity >= eqc_guard.OUT_OF_CLASS_THRESHOLD
        assert "joins" in signals[0].clauses


class TestPostflight:
    def _join_session(self, db, predicate):
        def app(inner):
            rows = [
                (x,)
                for (x,) in inner.rows("a")
                for (y,) in inner.rows("b")
                if predicate(x, y)
            ]
            return Result(["x"], rows)

        session = session_for(db, app)
        session.query.join_cliques = [
            JoinClique(frozenset({ColumnNode("a", "x"), ColumnNode("b", "y")}))
        ]
        session.set_d1({"a": (40,), "b": (40,)})
        return session

    def test_non_equi_join_probe_fires_on_lt_join(self, two_table_db):
        session = self._join_session(two_table_db, lambda x, y: x <= y)
        signals = eqc_guard.postflight(session)
        assert [s.probe for s in signals] == ["non_equi_join"]
        assert signals[0].clauses == ("joins",)
        assert signals[0].severity >= eqc_guard.OUT_OF_CLASS_THRESHOLD

    def test_equi_join_passes_probe(self, two_table_db):
        session = self._join_session(two_table_db, lambda x, y: x == y)
        assert eqc_guard.postflight(session) == []

    def test_checker_mismatch_is_folded_in(self, two_table_db):
        class FakeReport:
            passed = False
            mismatches = [object()]
            databases_checked = 3

        session = self._join_session(two_table_db, lambda x, y: x == y)
        signals = eqc_guard.postflight(session, checker_report=FakeReport())
        assert [s.probe for s in signals] == ["checker_mismatch"]
        assert signals[0].clauses == eqc_guard.CLAUSES


class TestPipelineVerdict:
    def _constant_app(self):
        return CallableExecutable(lambda db: Result(["c"], [(1,), (2,)]))

    def test_raise_mode_raises_unsupported(self, two_table_db):
        db = two_table_db
        config = ExtractionConfig(out_of_class_action="raise")
        with pytest.raises(UnsupportedQueryError):
            UnmasqueExtractor(db, self._constant_app(), config).extract()

    def test_verdict_mode_returns_structured_outcome(self, two_table_db):
        db = two_table_db
        config = ExtractionConfig(out_of_class_action="verdict")
        extractor = UnmasqueExtractor(db, self._constant_app(), config)
        outcome = extractor.extract()
        assert outcome.verdict == "out_of_class"
        assert outcome.sql == ""
        assert outcome.eqc is not None and outcome.eqc.out_of_class
        assert outcome.to_dict()["verdict"] == "out_of_class"
        assert "out_of_class" in outcome.describe()
        # the silo is still restored to D_I on the verdict path
        assert extractor.session.silo_matches_di()

    def test_non_equi_join_yields_verdict_not_wrong_sql(self, tiny_tpch_db):
        app = SQLExecutable(NON_EQUI_SQL, obfuscate_text=True)
        config = ExtractionConfig(
            out_of_class_action="verdict", checker_strict=False
        )
        outcome = UnmasqueExtractor(tiny_tpch_db, app, config).extract()
        assert outcome.verdict == "out_of_class"
        assert outcome.sql == ""

    def test_non_equi_join_verdict_is_jobs_invariant(self, tiny_tpch_db):
        """The seeded guard must reach the same verdict via the same signals
        whatever the probe scheduler's parallelism — parallel batches
        reorder physical probe execution, and the guard may not depend on
        that order."""
        app = SQLExecutable(NON_EQUI_SQL, obfuscate_text=True)
        seen = {}
        for jobs in (1, 4):
            config = ExtractionConfig(
                out_of_class_action="verdict", checker_strict=False, jobs=jobs
            )
            outcome = UnmasqueExtractor(tiny_tpch_db, app, config).extract()
            assert outcome.verdict == "out_of_class", f"jobs={jobs}"
            assert outcome.eqc is not None
            seen[jobs] = sorted(s.probe for s in outcome.eqc.signals)
        assert seen[1] == seen[4], "guard signals depend on probe scheduling"

    def test_in_class_query_reports_full_confidence(self, tiny_tpch_db):
        from repro.workloads import tpch_queries

        app = SQLExecutable(
            tpch_queries.QUERIES["Q6"].sql, obfuscate_text=True
        )
        outcome = UnmasqueExtractor(
            tiny_tpch_db, app, ExtractionConfig()
        ).extract()
        assert outcome.verdict == "ok"
        assert outcome.eqc is not None
        assert not outcome.eqc.out_of_class
        assert all(
            conf == 1.0 for conf in outcome.eqc.clause_confidence.values()
        )

    def test_guard_can_be_disabled(self, two_table_db):
        db = two_table_db
        config = ExtractionConfig(eqc_guard=False, fail_fast=True)
        # Without the guard the constant app fails deeper in the pipeline —
        # but never via the preflight sentinel, and no EQC report is built.
        with pytest.raises(Exception) as exc:
            UnmasqueExtractor(db, self._constant_app(), config).extract()
        assert "EQC" not in str(exc.value)


class TestVerifyCli:
    def test_out_of_class_exits_4(self):
        out = io.StringIO()
        code = main(
            [
                "verify",
                "--sql",
                NON_EQUI_SQL,
                "--scale",
                "0.0005",
                "--budget-seconds",
                "90",
            ],
            out=out,
        )
        assert code == 4
        assert "out_of_class" in out.getvalue()
        assert "no SQL emitted" in out.getvalue()

    def test_in_class_exits_0_with_sql(self):
        out = io.StringIO()
        code = main(
            ["verify", "--workload", "tpch", "--query", "Q6", "--scale", "0.0005"],
            out=out,
        )
        assert code == 0
        assert "in_class" in out.getvalue()
        assert "select" in out.getvalue()

    def test_requires_exactly_one_input(self):
        assert main(["verify"], out=io.StringIO()) == 2
        assert (
            main(["verify", "--query", "Q6", "--sql", "select 1"], out=io.StringIO())
            == 2
        )


class TestCheckpointStaleness:
    """Satellite: stale checkpoint + re-seeded instance must fail cleanly."""

    def _plant_checkpoint(self, db, checkpoint_dir):
        from repro.resilience.faults import (
            FaultPlan,
            FaultyExecutable,
            InjectedCrashError,
        )
        from repro.workloads import tpch_queries

        app = FaultyExecutable(
            SQLExecutable(tpch_queries.QUERIES["Q6"].sql, obfuscate_text=True),
            FaultPlan(crash_at=30),
        )
        with pytest.raises(InjectedCrashError):
            UnmasqueExtractor(
                db, app, ExtractionConfig(), checkpoint_dir=checkpoint_dir
            ).extract()

    def test_reseeded_instance_raises_clean_checkpoint_error(self, tmp_path):
        self._plant_checkpoint(tpch.build_database(scale=0.0005, seed=11), tmp_path)
        reseeded = tpch.build_database(scale=0.0005, seed=12)
        app = SQLExecutable(
            "select sum(l_extendedprice) from lineitem", obfuscate_text=True
        )
        with pytest.raises(CheckpointError) as exc:
            UnmasqueExtractor(
                reseeded, app, ExtractionConfig(), checkpoint_dir=tmp_path
            ).extract()
        assert "fingerprint mismatch" in str(exc.value)
        assert "--fresh" in str(exc.value)

    def test_version_2_checkpoint_refused_by_version_not_fingerprint(
        self, tmp_path
    ):
        from repro.resilience.checkpoint import CHECKPOINT_VERSION, CheckpointStore

        db = tpch.build_database(scale=0.0005, seed=11)
        self._plant_checkpoint(db, tmp_path)
        store = CheckpointStore(tmp_path)
        state = store.load()
        assert state["version"] == CHECKPOINT_VERSION == 4
        # a version-2 checkpoint of the same instance: its di_fingerprint was
        # a sha256 over every row, so it differs from today's digest
        state["version"] = 2
        state["fingerprint"]["di_fingerprint"] = "0" * 64
        store.save(state)
        app = SQLExecutable(
            "select sum(l_extendedprice) from lineitem", obfuscate_text=True
        )
        with pytest.raises(CheckpointError) as exc:
            UnmasqueExtractor(
                db, app, ExtractionConfig(), checkpoint_dir=tmp_path
            ).extract()
        assert "has version 2; this build reads version 4" in str(exc.value)
        assert "fingerprint mismatch" not in str(exc.value)

    def test_cli_fresh_discards_stale_checkpoint(self, tmp_path):
        from repro.resilience.checkpoint import CHECKPOINT_VERSION, CheckpointStore

        # a well-formed (checksummed) checkpoint from a *different* instance;
        # a checksum-less file would be quarantined as corruption instead
        CheckpointStore(tmp_path).save(
            {"version": CHECKPOINT_VERSION, "fingerprint": {"bogus": True}}
        )
        argv = [
            "extract",
            "--workload",
            "tpch",
            "--query",
            "Q6",
            "--scale",
            "0.0005",
            "--checkpoint-dir",
            str(tmp_path),
        ]
        out = io.StringIO()
        assert main(argv, out=out) == 1  # stale checkpoint: structured failure
        assert "fingerprint mismatch" in out.getvalue()
        assert "--fresh" in out.getvalue()

        out = io.StringIO()
        assert main(argv + ["--fresh"], out=out) == 0  # discards and re-runs
        assert "discarded checkpoint" in out.getvalue()
