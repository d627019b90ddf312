"""Unit tests for From-clause identification (paper §4.1 + schema scaling)."""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.apps.imperative import ImperativeExecutable
from repro.core.config import ExtractionConfig
from repro.core.from_clause import extract_tables
from repro.core.session import ExtractionSession
from repro.datagen import wide_schema
from repro.engine import Result
from repro.errors import (
    ExecutableTimeoutError,
    ExecutionError,
    ExtractionError,
    UndefinedTableError,
)
from repro.workloads import random_queries, tpch_queries

from tests.test_golden_corpus import CORPUS, _queries, corpus_dbs  # noqa: F401


def session_for(db, executable, **config_kwargs):
    return ExtractionSession(db, executable, ExtractionConfig(**config_kwargs))


def reference_tables(session):
    """Paper §4.1's schedule: one renamed table per probe."""
    tables = []
    for name in list(session.silo.table_names):
        with session.silo.sandbox():
            session.silo.rename_table(name, "reference_probe")
            try:
                session.run(timeout=session.config.from_clause_timeout)
            except UndefinedTableError:
                tables.append(name.lower())
            except ExecutableTimeoutError:
                pass
    return sorted(tables)


def from_clause_invocations(session):
    return session.stats.module("from_clause").invocations


class TestRenameStrategy:
    def test_identifies_exact_tables(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q3"].sql)
        session = session_for(tiny_tpch_db, app)
        assert extract_tables(session) == ["customer", "lineitem", "orders"]

    def test_single_table_query(self, tiny_tpch_db):
        app = SQLExecutable("select count(*) as n, max(r_name) as m from region")
        session = session_for(tiny_tpch_db, app)
        assert extract_tables(session) == ["region"]

    def test_silo_restored_after_probing(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q3"].sql)
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        assert sorted(session.silo.table_names) == sorted(tiny_tpch_db.table_names)

    def test_ignores_unreferenced_tables(self, tiny_tpch_db):
        wide = wide_schema.widen_database(tiny_tpch_db, extra=10)
        app = SQLExecutable("select count(*) as n, max(n_name) as m from nation")
        session = session_for(wide, app)
        assert extract_tables(session) == ["nation"]

    def test_probe_count_is_referenced_tables_plus_one(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q3"].sql)
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        assert from_clause_invocations(session) == 4

    def test_one_table_query_costs_two_probes(self, tiny_tpch_db):
        app = SQLExecutable("select count(*) as n, max(r_name) as m from region")
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        assert from_clause_invocations(session) == 2

    def test_unreferenced_tables_cost_nothing(self, tiny_tpch_db):
        wide = wide_schema.widen_database(tiny_tpch_db, extra=10)
        app = SQLExecutable("select count(*) as n, max(n_name) as m from nation")
        session = session_for(wide, app)
        extract_tables(session)
        assert from_clause_invocations(session) == 2

    def test_foreign_relation_name_falls_back_to_one_table_per_probe(
        self, tiny_tpch_db
    ):
        sql = tpch_queries.QUERIES["Q3"].sql

        def logic(db):
            try:
                return db.execute(sql)
            except UndefinedTableError:
                raise UndefinedTableError("app_catalog") from None

        session = session_for(tiny_tpch_db, ImperativeExecutable(logic))
        assert extract_tables(session) == ["customer", "lineitem", "orders"]
        # the joint probe, then one probe per table
        assert from_clause_invocations(session) == 1 + len(tiny_tpch_db.table_names)

    def test_catalog_restored_after_a_failing_joint_probe(self, tiny_tpch_db):
        def logic(db):
            if "orders" not in db.table_names:
                raise ExecutionError("application failed")
            return Result(["x"], [(1,)])

        session = session_for(tiny_tpch_db, ImperativeExecutable(logic))
        names = list(session.silo.table_names)
        fingerprint = session.silo.fingerprint()
        with pytest.raises(ExtractionError, match="application failed"):
            extract_tables(session)
        assert session.silo.table_names == names
        assert session.silo.fingerprint() == fingerprint

    def test_application_that_queries_nothing_rejected(self, tiny_tpch_db):
        app = ImperativeExecutable(lambda db: Result(["x"], [(1,)]))
        session = session_for(tiny_tpch_db, app)
        with pytest.raises(ExtractionError):
            extract_tables(session)


@pytest.fixture(scope="module")
def star_db():
    return random_queries.build_database(facts=400, seed=1)


class TestAgainstOneTablePerProbe:
    @pytest.mark.parametrize(
        "workload,name", CORPUS, ids=[f"{w}-{n}" for w, n in CORPUS]
    )
    def test_goldens(self, workload, name, corpus_dbs):
        app = SQLExecutable(_queries(workload)[name].sql)
        expected = reference_tables(session_for(corpus_dbs[workload], app))
        session = session_for(corpus_dbs[workload], app)
        assert extract_tables(session) == expected
        assert from_clause_invocations(session) == len(expected) + 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_queries(self, seed, star_db):
        app = SQLExecutable(random_queries.generate_query(seed).sql)
        expected = reference_tables(session_for(star_db, app))
        assert extract_tables(session_for(star_db, app)) == expected


class TestImperativeApplication:
    def test_rename_identifies_imperative_tables(self, tiny_tpch_db):
        def logic(db):
            nations = {row["n_nationkey"]: row["n_name"] for row in db.scan("nation")}
            count = sum(1 for row in db.scan("supplier") if row["s_nationkey"] in nations)
            return Result(["n"], [(count,)])

        session = session_for(tiny_tpch_db, ImperativeExecutable(logic))
        assert extract_tables(session) == ["nation", "supplier"]
        assert from_clause_invocations(session) == 3


class TestSessionBookkeeping:
    def test_invocations_attributed_to_module(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q4"].sql)
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        assert session.stats.module("from_clause").invocations >= 1
        assert session.stats.module("from_clause").seconds > 0

    def test_run_on_restores_rows(self, tiny_tpch_db):
        app = SQLExecutable("select count(*) from region")
        session = session_for(tiny_tpch_db, app)
        before = session.silo.rows("region")
        session.run_on({"region": [before[0]]})
        assert session.silo.rows("region") == before

    def test_original_database_is_never_mutated(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q4"].sql)
        snapshot = tiny_tpch_db.snapshot()
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        session.silo.clear_table("orders")
        assert tiny_tpch_db.snapshot() == snapshot

    def test_di_samples_capture_original_values(self, tiny_tpch_db):
        from repro.sgraph import ColumnNode

        app = SQLExecutable("select count(*) from region")
        session = session_for(tiny_tpch_db, app)
        segments = session.di_samples[ColumnNode("customer", "c_mktsegment")]
        assert "BUILDING" in segments
