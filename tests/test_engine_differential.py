"""Property-based differential test: repro.engine vs sqlite3.

The engine is the substrate every extraction module trusts — a wrong scan,
join, aggregate, or ordering silently corrupts every probe built on it.
This suite runs a few hundred random EQC queries (the same generator the
round-trip property uses) through both the in-memory engine and sqlite3 on
identical data and asserts identical result multisets.

LIMIT is stripped before comparison (tie-breaking among equal ORDER BY keys
is legitimately engine-specific, so LIMIT may keep different ties), and rows
are compared as multisets for the same reason.
"""

from __future__ import annotations

import datetime
import re
import sqlite3

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.workloads import random_queries

pytestmark = pytest.mark.slow

N_QUERIES = 200
DB_SEED = 20260806


def _encode(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _normalize(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, float):
        return round(value, 6)
    return value


def _canonical(rows):
    normalized = [tuple(_normalize(v) for v in row) for row in rows]
    return sorted(normalized, key=repr)


def _to_sqlite_sql(sql: str) -> str:
    sql = re.sub(r"date '([^']*)'", r"'\1'", sql)
    sql = re.sub(r"\s+limit\s+\d+\s*$", "", sql)
    return sql


def _strip_limit(sql: str) -> str:
    return re.sub(r"\s+limit\s+\d+\s*$", "", sql)


def _traced(db, tracing: str):
    """``db`` itself, with a metrics-collecting tracer on the traced leg —
    tracing must never change a result."""
    if tracing == "traced":
        db.tracer = Tracer(metrics=MetricsRegistry())
    return db


@pytest.fixture(scope="module", params=["untraced", "traced"])
def engine_db(request):
    return _traced(
        random_queries.build_database(facts=400, seed=DB_SEED), request.param
    )


@pytest.fixture(scope="module")
def sqlite_db(engine_db):
    conn = sqlite3.connect(":memory:")
    for name in engine_db.table_names:
        schema = engine_db.schema(name)
        columns = ", ".join(f'"{column.name}"' for column in schema.columns)
        conn.execute(f"create table {name} ({columns})")
        rows = [
            tuple(_encode(value) for value in row) for row in engine_db.rows(name)
        ]
        placeholders = ", ".join("?" for _ in schema.columns)
        conn.executemany(f"insert into {name} values ({placeholders})", rows)
    conn.commit()
    yield conn
    conn.close()


@pytest.mark.parametrize("seed", range(N_QUERIES))
def test_engine_matches_sqlite(seed, engine_db, sqlite_db):
    query = random_queries.generate_query(seed)
    engine_rows = engine_db.execute(_strip_limit(query.sql)).rows
    sqlite_rows = sqlite_db.execute(_to_sqlite_sql(query.sql)).fetchall()
    assert _canonical(engine_rows) == _canonical(sqlite_rows), query.sql


# --- plan-cache differential --------------------------------------------------
#
# The parse/plan LRU must be semantically invisible: a query executed twice —
# with arbitrary DML in between, or DDL that reshapes the catalog — must
# return exactly what sqlite3 returns on the same data, and the hit/miss
# counters must show the cache doing what the invalidation rules promise
# (DML leaves plans valid; DDL makes every prior entry unreachable).


N_CACHED_QUERIES = 60


@pytest.fixture(params=["untraced", "traced"])
def cached_engine_db(request):
    from repro.engine.database import PlanCache

    db = random_queries.build_database(facts=200, seed=DB_SEED + 1)
    db.plan_cache = PlanCache(capacity=128)
    return _traced(db, request.param)


@pytest.fixture()
def sqlite_mirror(cached_engine_db):
    conn = sqlite3.connect(":memory:")
    for name in cached_engine_db.table_names:
        schema = cached_engine_db.schema(name)
        columns = ", ".join(f'"{column.name}"' for column in schema.columns)
        conn.execute(f"create table {name} ({columns})")
        rows = [
            tuple(_encode(value) for value in row)
            for row in cached_engine_db.rows(name)
        ]
        placeholders = ", ".join("?" for _ in schema.columns)
        conn.executemany(f"insert into {name} values ({placeholders})", rows)
    conn.commit()
    yield conn
    conn.close()


@pytest.mark.parametrize("seed", range(N_CACHED_QUERIES))
def test_plan_cache_second_execution_matches_sqlite(
    seed, cached_engine_db, sqlite_mirror
):
    """Run every query twice: the second, cache-served run must equal both
    the first run and sqlite3, and must be a recorded cache hit."""
    db = cached_engine_db
    query = random_queries.generate_query(seed)
    sql = _strip_limit(query.sql)

    first = db.execute(sql).rows
    hits_before = db.plan_cache.hits
    second = db.execute(sql).rows
    assert db.plan_cache.hits == hits_before + 1, "second run missed the cache"

    sqlite_rows = sqlite_mirror.execute(_to_sqlite_sql(query.sql)).fetchall()
    assert _canonical(first) == _canonical(sqlite_rows), query.sql
    assert _canonical(second) == _canonical(sqlite_rows), query.sql


def test_plan_cache_survives_interleaved_dml(cached_engine_db, sqlite_mirror):
    """DML changes rows, not the catalog: cached plans stay valid and the
    re-executed query must track sqlite3 through every mutation."""
    db = cached_engine_db
    query = random_queries.generate_query(11)
    sql = _strip_limit(query.sql)
    table = query.tables[0]
    key_column = db.schema(table).columns[0].name

    db.execute(sql)  # prime the cache
    version = db.catalog_version
    statements = [
        f"delete from {table} where {key_column} = 1",
        f"update {table} set {key_column} = 9001 where {key_column} = 2",
        f"delete from {table} where {key_column} = 9001",
    ]
    for statement in statements:
        db.execute(statement)
        sqlite_mirror.execute(statement)
        hits_before = db.plan_cache.hits
        engine_rows = db.execute(sql).rows
        sqlite_rows = sqlite_mirror.execute(_to_sqlite_sql(sql)).fetchall()
        assert _canonical(engine_rows) == _canonical(sqlite_rows), statement
        assert db.plan_cache.hits == hits_before + 1, (
            f"DML {statement!r} must not invalidate the cached plan"
        )
    assert db.catalog_version == version, "DML must not bump the catalog version"


def test_plan_cache_invalidated_by_ddl(cached_engine_db, sqlite_mirror):
    """DDL bumps the catalog version: the next execution must re-plan (a
    recorded miss) and still match sqlite3."""
    db = cached_engine_db
    query = random_queries.generate_query(23)
    sql = _strip_limit(query.sql)
    untouched = "bystander"

    db.execute(sql)
    db.execute(sql)
    assert db.plan_cache.hits >= 1

    version = db.catalog_version
    db.execute(f"create table {untouched} (x integer, y integer)")
    assert db.catalog_version > version, "DDL must bump the catalog version"

    misses_before = db.plan_cache.misses
    hits_before = db.plan_cache.hits
    engine_rows = db.execute(sql).rows
    assert db.plan_cache.misses == misses_before + 1, (
        "post-DDL execution must miss (old plan unreachable)"
    )
    assert db.plan_cache.hits == hits_before

    sqlite_rows = sqlite_mirror.execute(_to_sqlite_sql(sql)).fetchall()
    assert _canonical(engine_rows) == _canonical(sqlite_rows)

    # The re-planned entry is cached under the new version.
    hits_before = db.plan_cache.hits
    db.execute(sql)
    assert db.plan_cache.hits == hits_before + 1


def test_plan_cache_rename_roundtrip_still_correct(cached_engine_db, sqlite_mirror):
    """Rename a queried table away and back between executions: both
    versions' entries are distinct keys, and results keep matching."""
    db = cached_engine_db
    query = random_queries.generate_query(3)
    sql = _strip_limit(query.sql)
    table = query.tables[0]

    baseline = db.execute(sql).rows
    db.execute(f"alter table {table} rename to {table}_tmp")
    db.execute(f"alter table {table}_tmp rename to {table}")
    misses_before = db.plan_cache.misses
    roundtrip = db.execute(sql).rows
    assert db.plan_cache.misses == misses_before + 1
    sqlite_rows = sqlite_mirror.execute(_to_sqlite_sql(sql)).fetchall()
    assert _canonical(baseline) == _canonical(sqlite_rows)
    assert _canonical(roundtrip) == _canonical(sqlite_rows)


# --- counterexample-corpus replay ---------------------------------------------
#
# tests/counterexamples/*.json pins distinguishing databases found by the
# bounded verifier (repro.veriq) for known-wrong candidate queries (flipped
# predicate, dropped join, wrong aggregate, ...).  Each file carries the
# mutant candidate SQL, the true oracle SQL, and the database on which they
# diverge.  Replaying them here checks three things at once: the JSON wire
# format round-trips through a real Database, the engine agrees with sqlite3
# on both queries over the pinned rows, and the pinned divergence is real
# (the mutant's multiset genuinely differs from the oracle's).
#
# Regenerate with: PYTHONPATH=src python tools/gen_counterexamples.py

import json
import pathlib

CORPUS_DIR = pathlib.Path(__file__).parent / "counterexamples"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def _load_corpus_entry(path):
    from repro.veriq import database_from_json

    payload = json.loads(path.read_text())
    return payload, database_from_json(payload)


def _sqlite_from_engine(db):
    conn = sqlite3.connect(":memory:")
    for name in db.table_names:
        schema = db.schema(name)
        columns = ", ".join(f'"{column.name}"' for column in schema.columns)
        conn.execute(f"create table {name} ({columns})")
        rows = [tuple(_encode(value) for value in row) for row in db.rows(name)]
        placeholders = ", ".join("?" for _ in schema.columns)
        conn.executemany(f"insert into {name} values ({placeholders})", rows)
    conn.commit()
    return conn


def test_corpus_is_present():
    """The pinned corpus must never silently vanish (glob returning [] would
    skip every replay below without failing anything)."""
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_counterexample_replays_against_sqlite(path):
    """Engine and sqlite3 agree on both queries over the pinned rows."""
    payload, db = _load_corpus_entry(path)
    conn = _sqlite_from_engine(db)
    try:
        for key in ("candidate_sql", "oracle_sql"):
            sql = payload[key]
            engine_rows = db.execute(_strip_limit(sql)).rows
            sqlite_rows = conn.execute(_to_sqlite_sql(sql)).fetchall()
            assert _canonical(engine_rows) == _canonical(sqlite_rows), (
                f"{path.stem}/{key}: {sql}"
            )
    finally:
        conn.close()


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_counterexample_divergence_is_real(path):
    """The pinned database genuinely distinguishes mutant from oracle."""
    payload, db = _load_corpus_entry(path)
    kind = payload["divergence"]["kind"]
    candidate = db.execute(payload["candidate_sql"]).rows
    oracle = db.execute(payload["oracle_sql"]).rows
    if kind in ("multiset", "cardinality"):
        assert _canonical(candidate) != _canonical(oracle), path.stem
    else:
        # ordering divergences have identical multisets by construction;
        # the distinguishing signal is insertion-order sensitivity, which
        # the verifier (not a single replay) establishes
        assert kind == "ordering"
        assert _canonical(candidate) == _canonical(oracle), path.stem


def test_generator_exercises_all_shapes():
    """Sanity: the sampled seed range covers joins, grouping, and ordering."""
    shapes = {
        (len(q.tables), "group by" in q.sql, "order by" in q.sql)
        for q in (random_queries.generate_query(seed) for seed in range(N_QUERIES))
    }
    assert {n for n, _, _ in shapes} == {1, 2, 3}
    assert any(grouped for _, grouped, _ in shapes)
    assert any(ordered for _, _, ordered in shapes)
