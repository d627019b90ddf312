"""Unit tests for s-value sourcing."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.model import NumericFilter, TextFilter
from repro.core.session import ExtractionSession
from repro.core.svalues import (
    SValueError,
    SValueSource,
    _count_strings,
    _enumerate_strings,
    _expand_pattern,
)
from repro.datagen import tpch
from repro.sgraph import ColumnNode


@pytest.fixture()
def session(tiny_tpch_db):
    session = ExtractionSession(
        tiny_tpch_db, SQLExecutable("select count(*) from region"), ExtractionConfig()
    )
    session.query.tables = ["customer", "orders", "lineitem"]
    return session


@pytest.fixture()
def source(session):
    return SValueSource(session)


class TestUnfilteredColumns:
    def test_value_satisfies_domain(self, session, source):
        column = ColumnNode("lineitem", "l_discount")
        value = source.value(column)
        domain = session.column_domain(column)
        assert domain.lo <= value <= domain.hi

    def test_distinct_are_distinct_and_sorted(self, source):
        column = ColumnNode("orders", "o_totalprice")
        values = source.distinct(column, 10)
        assert len(set(values)) == 10
        assert values == sorted(values)

    def test_date_values(self, source):
        values = source.distinct(ColumnNode("orders", "o_orderdate"), 3)
        assert all(isinstance(v, datetime.date) for v in values)

    def test_text_values_respect_length(self, source):
        values = source.distinct(ColumnNode("orders", "o_orderstatus"), 26)
        assert all(len(v) == 1 for v in values)  # char(1)

    def test_char1_capacity(self, source):
        assert source.capacity(ColumnNode("orders", "o_orderstatus")) == 26


class TestTextCapacity:
    @settings(max_examples=60, deadline=None)
    @given(
        cap=st.integers(min_value=1, max_value=SValueSource.TEXT_CAPACITY_CAP),
        max_length=st.integers(min_value=0, max_value=3),
    )
    def test_closed_form_counts_enumeration(self, cap, max_length):
        assert _count_strings(cap, max_length) == len(
            _enumerate_strings(cap, max_length)
        )

    def test_unfiltered_text_capacity_matches_generation(self, session, source):
        cap = SValueSource.TEXT_CAPACITY_CAP
        for table in session.query.tables:
            for column in session.table_columns(table):
                if session.column_type(column).is_textual:
                    assert source.capacity(column) == len(
                        source._text_values(column, None, cap)
                    )


class TestFilteredColumns:
    def test_range_filter_restricts(self, session, source):
        column = ColumnNode("lineitem", "l_discount")
        session.query.filters.append(
            NumericFilter(column=column, lo=0.05, hi=0.07, domain_lo=0.0, domain_hi=1.0)
        )
        values = source.distinct(column, 3)
        assert values == pytest.approx([0.05, 0.06, 0.07])
        assert source.capacity(column) == 3

    def test_equality_is_pinned(self, session, source):
        column = ColumnNode("customer", "c_mktsegment")
        session.query.filters.append(TextFilter(column=column, pattern="BUILDING"))
        assert source.is_equality_constrained(column)
        assert source.value(column) == "BUILDING"
        with pytest.raises(SValueError):
            source.distinct(column, 2)

    def test_like_pattern_values_match(self, session, source):
        column = ColumnNode("customer", "c_mktsegment")
        session.query.filters.append(TextFilter(column=column, pattern="BU%"))
        from repro.engine.expressions import like_matches

        values = source.distinct(column, 5)
        assert len(values) == 5
        assert all(like_matches(v, "BU%") for v in values)

    def test_guard_intersects_range(self, session, source):
        column = ColumnNode("orders", "o_totalprice")
        session.svalue_guards[column] = (1000.0, 2000.0)
        values = source.distinct(column, 4)
        assert all(1000.0 <= v <= 2000.0 for v in values)


class TestPatternExpansion:
    def test_plain_literal(self):
        assert _expand_pattern("abc", 3, 10) == ["abc"]

    def test_underscores_vary(self):
        values = _expand_pattern("a_c", 5, 10)
        assert len(values) == 5
        assert all(len(v) == 3 and v[0] == "a" and v[2] == "c" for v in values)

    def test_percent_varies_length_and_char(self):
        values = _expand_pattern("x%", 30, 10)
        assert len(values) == 30
        assert len(set(values)) == 30
        assert all(v.startswith("x") for v in values)

    def test_length_cap_respected(self):
        values = _expand_pattern("abc%", 100, 5)
        assert all(len(v) <= 5 for v in values)

    def test_impossible_literal(self):
        assert _expand_pattern("toolong", 1, 3) == []


class TestCaching:
    def test_capacity_cached(self, source):
        column = ColumnNode("customer", "c_comment")
        first = source.capacity(column)
        assert source.capacity(column) == first
        assert column in source._capacity_cache

    def test_distinct_prefix_served_from_cache(self, source):
        column = ColumnNode("orders", "o_totalprice")
        ten = source.distinct(column, 10)
        three = source.distinct(column, 3)
        assert three == ten[:3]
