"""Tests for the QRE baselines (REGAL-like and TALOS-lite)."""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.datagen import tpch, uci
from repro.qre.regal import RegalBaseline
from repro.qre.talos import TalosBaseline


@pytest.fixture(scope="module")
def db():
    return tpch.build_database(scale=0.0008, seed=7)


@pytest.fixture(scope="module")
def census():
    return uci.build_database(records=600, seed=7)


def run_regal(db, sql, **kwargs):
    result = db.execute(sql)
    kwargs.setdefault("time_budget", 30.0)
    return result, RegalBaseline(db, result, **kwargs).reverse_engineer()


class TestRegalBaseline:
    def test_simple_group_count(self, db):
        sql = "select c_mktsegment, count(*) as n from customer group by c_mktsegment"
        target, outcome = run_regal(db, sql)
        assert outcome.completed
        assert db.execute(outcome.sql).same_multiset(target, float_precision=4)

    def test_single_join_aggregate(self, db):
        sql = (
            "select n_name, count(*) as n from nation, customer "
            "where n_nationkey = c_nationkey group by n_name"
        )
        # The join + group lattice outgrows a small candidate cap long before
        # any wall-clock budget: REGAL deterministically does not converge.
        _, outcome = run_regal(db, sql, time_budget=60.0, candidate_cap=500)
        assert outcome.status == "dnc_candidates"
        assert outcome.candidates_validated == 501
        assert not outcome.completed

    def test_timeout_yields_dnc(self, db):
        sql = (
            "select l_returnflag, l_linestatus, sum(l_quantity) as q "
            "from lineitem group by l_returnflag, l_linestatus"
        )
        _, outcome = run_regal(db, sql, time_budget=0.05)
        assert outcome.status == "dnc_timeout"
        assert not outcome.completed

    def test_candidate_cap_yields_dnc(self, db):
        sql = "select o_orderstatus, avg(o_totalprice) as a from orders group by o_orderstatus"
        _, outcome = run_regal(db, sql, time_budget=60.0, candidate_cap=1)
        assert outcome.status in ("dnc_candidates", "ok")  # cap may hit before luck does

    def test_output_is_instance_equivalent_only(self, db):
        """REGAL's filters are induced from the instance, not the true query."""
        sql = (
            "select o_orderpriority, max(o_totalprice) as biggest from orders "
            "where o_totalprice <= 250000 group by o_orderpriority"
        )
        # Instance-induced filters multiply the candidate space: the search
        # hits the cap without ever recovering the true predicate.
        _, outcome = run_regal(db, sql, time_budget=60.0, candidate_cap=500)
        assert outcome.status == "dnc_candidates"
        assert outcome.candidates_validated == 501
        assert outcome.sql is None


class TestTalosBaseline:
    def test_range_selection(self, census):
        sql = (
            "select census.age, census.education from census "
            "where census.age between 30 and 45"
        )
        target = census.execute(sql)
        outcome = TalosBaseline(census, "census", target).reverse_engineer()
        assert outcome.completed
        produced = census.execute(outcome.sql)
        assert produced.same_multiset(target, float_precision=4)

    def test_categorical_selection(self, census):
        sql = (
            "select census.occupation, census.age from census "
            "where census.occupation = 'Tech'"
        )
        target = census.execute(sql)
        outcome = TalosBaseline(census, "census", target).reverse_engineer()
        assert outcome.completed
        produced = census.execute(outcome.sql)
        assert produced.same_multiset(target, float_precision=4)

    def test_unmatchable_projection_fails(self, census):
        from repro.engine import Result

        bogus = Result(["x"], [("value-not-in-table",)])
        outcome = TalosBaseline(census, "census", bogus).reverse_engineer()
        assert not outcome.completed

    def test_tree_nodes_reported(self, census):
        sql = "select census.age from census where census.age <= 30"
        target = census.execute(sql)
        outcome = TalosBaseline(census, "census", target).reverse_engineer()
        assert outcome.completed
        assert outcome.tree_nodes >= 1
