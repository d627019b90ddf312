"""§6.2 schema-scaling experiment — From-clause cost with +1000 tables.

Paper shape: with 1000 extra tables and a 100 ms execution timeout, table
identification for a multi-table query completes within ten seconds — each
irrelevant table costs one rename plus at most the timeout.  The joint rename
probe goes further: a query over ``k`` tables costs ``k + 1`` probes whatever
the schema width, so only the per-probe rename and catalog work grow with it.
"""

from __future__ import annotations

import time

import pytest

from conftest import EXTRA_TABLES, run_once, write_result_table
from repro.apps import SQLExecutable
from repro.bench.harness import render_series, series_payload
from repro.core import ExtractionConfig
from repro.core.from_clause import extract_tables
from repro.core.session import ExtractionSession
from repro.datagen import wide_schema
from repro.workloads import tpch_queries

_ROWS = []


#: Per-probe execution timeout.  The paper used 100 ms against PostgreSQL on
#: a 100 GB instance; scaled to this in-memory engine at laptop size, the
#: equivalent "kill an irrelevant execution quickly" constant is a few
#: milliseconds.
PROBE_TIMEOUT = 0.005


@pytest.mark.parametrize("extra", [0, EXTRA_TABLES // 10, EXTRA_TABLES])
def test_schema_scaling_from_clause(benchmark, tpch_bench_db, extra):
    wide = wide_schema.widen_database(tpch_bench_db, extra=extra)
    query = tpch_queries.QUERIES["Q5"]  # six-table query
    app = SQLExecutable(query.sql)
    config = ExtractionConfig(from_clause_timeout=PROBE_TIMEOUT)

    def probe():
        session = ExtractionSession(wide, app, config)
        started = time.perf_counter()
        tables = extract_tables(session)
        probes = session.stats.module("from_clause").invocations
        return time.perf_counter() - started, tables, probes

    seconds, tables, probes = run_once(benchmark, probe)
    assert sorted(tables) == sorted(query.tables)
    assert probes == len(tables) + 1
    _ROWS.append((len(wide.table_names), probes, round(seconds, 3)))
    benchmark.extra_info["total_tables"] = len(wide.table_names)


def test_schema_scaling_report(benchmark):
    header = ["total_tables", "probes", "from_clause(s)"]

    def render():
        return render_series(
            "Schema scaling — From-clause identification vs table count "
            "(paper: +1000 tables under 10 s)",
            header,
            _ROWS,
        )

    table = run_once(benchmark, render)
    write_result_table("schema_scaling", table, data=series_payload(header, _ROWS))
    # Paper shape: +1000 tables completes in about ten seconds.
    assert all(seconds < 15.0 for _, _, seconds in _ROWS)
