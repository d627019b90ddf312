"""Bounded symbolic databases: enumeration under integrity constraints.

A *symbolic database* here is a concrete tiny instance (≤ ``max_rows`` rows
per candidate table) drawn from the finite per-column domains of
:mod:`repro.veriq.domains`.  Enumeration respects the catalog's integrity
constraints:

* **PK uniqueness** — no two rows of a table may share a primary-key tuple
  (a PK column outside the candidate's varying set is auto-assigned a
  row-unique value);
* **FK referential integrity** — every non-NULL child key tuple must appear
  among the referenced parent keys (checked only across tables the candidate
  reads — other tables are empty during a probe);
* **NOT NULL** — domains never offer NULL to non-nullable columns.

The generator is deterministic and *boundary-dense first*: single-table
sweeps around predicate boundaries (everything else pinned to a satisfying
template), then pairwise join-alignment interactions, then seeded random
completions up to the database budget.  Databases, not probes, are the unit
here — conflict-driven pruning happens in :mod:`repro.veriq.search`.

The same module owns the counterexample wire format: a found database is
serialized to JSON (schema + typed rows) and can be re-materialized into a
real :class:`~repro.engine.database.Database`, which is how counterexamples
are replayed as sandbox probes and archived as regression fixtures.
"""

from __future__ import annotations

import datetime
import itertools
import random
from typing import Iterator

from repro.engine import (
    BigIntType,
    Catalog,
    CharType,
    Column,
    Database,
    DateType,
    ForeignKey,
    IntegerType,
    NumericType,
    TableSchema,
    TextType,
    VarcharType,
)
from repro.veriq import symbolic
from repro.veriq.analyze import ColKey, QueryProfile
from repro.veriq.domains import VerifyBounds


def enumerate_databases(
    profile: QueryProfile,
    catalog: Catalog,
    domains: dict[ColKey, list],
    fillers: dict[ColKey, object],
    bounds: VerifyBounds,
    seed: int = 0,
) -> Iterator[dict[str, list[tuple]]]:
    """Yield candidate databases, deterministic, boundary-dense first."""
    tables = list(dict.fromkeys(profile.tables))
    row_pools = {
        table: _row_candidates(table, catalog, domains, fillers, bounds)
        for table in tables
    }
    template = {
        table: [_template_row(table, catalog, fillers)] for table in tables
    }
    seen: set = set()

    def emit(db: dict[str, list[tuple]]):
        frozen = tuple(
            (table, tuple(db.get(table, ()))) for table in tables
        )
        if frozen in seen:
            return None
        seen.add(frozen)
        if not _fk_consistent(db, catalog, tables):
            return None
        return {table: list(rows) for table, rows in db.items()}

    # Phase A — per-table sweeps: one table varies, the others hold a
    # satisfying template row.
    for table in tables:
        for multiset in _table_multisets(
            table, row_pools[table], catalog, bounds
        ):
            db = dict(template)
            db[table] = list(multiset)
            produced = emit(db)
            if produced is not None:
                yield produced
        # the empty-table variant: catches rows manufactured out of nothing
        db = dict(template)
        db[table] = []
        produced = emit(db)
        if produced is not None:
            yield produced

    # Phase B — pairwise interactions across joined tables.
    joined_pairs = _joined_table_pairs(profile)
    for table_a, table_b in joined_pairs:
        sets_a = list(
            itertools.islice(
                _table_multisets(table_a, row_pools[table_a], catalog, bounds), 6
            )
        )
        sets_b = list(
            itertools.islice(
                _table_multisets(table_b, row_pools[table_b], catalog, bounds), 6
            )
        )
        for rows_a, rows_b in itertools.product(sets_a, sets_b):
            db = dict(template)
            db[table_a] = list(rows_a)
            db[table_b] = list(rows_b)
            produced = emit(db)
            if produced is not None:
                yield produced

    # Phase C — seeded random completions over the full domain space.
    rng = random.Random(seed)
    for _ in range(bounds.max_databases * 2):
        db = {}
        for table in tables:
            pool = row_pools[table]
            count = rng.randint(1, bounds.max_rows)
            rows = [pool[rng.randrange(len(pool))] for _ in range(count)]
            if not _pk_unique(table, catalog, rows):
                rows = rows[:1]
            db[table] = rows
        produced = emit(db)
        if produced is not None:
            yield produced


def reversed_variant(db: dict[str, list[tuple]]) -> dict[str, list[tuple]]:
    """The same database with every table's insertion order reversed.

    Used as an ordering witness: a candidate whose ORDER BY under-determines
    the result changes its output sequence between the two variants, while an
    application that fully determines its order does not.
    """
    return {table: list(reversed(rows)) for table, rows in db.items()}


# --- row construction -------------------------------------------------------


def _row_candidates(
    table: str,
    catalog: Catalog,
    domains: dict[ColKey, list],
    fillers: dict[ColKey, object],
    bounds: VerifyBounds,
) -> list[tuple]:
    schema = catalog.get(table)
    columns = list(schema.columns)
    varying = [
        (index, domains[ColKey(table, col.name)])
        for index, col in enumerate(columns)
        if len(domains.get(ColKey(table, col.name), ())) > 1
    ]
    base = _template_row(table, catalog, fillers)
    if not varying:
        return [base]
    rows: list[tuple] = []
    for combo in itertools.product(*(values for _, values in varying)):
        row = list(base)
        for (index, _), value in zip(varying, combo):
            row[index] = value
        rows.append(tuple(row))
        if len(rows) >= bounds.max_row_candidates:
            break
    return rows


def _template_row(table: str, catalog: Catalog, fillers: dict[ColKey, object]) -> tuple:
    schema = catalog.get(table)
    return tuple(fillers.get(ColKey(table, col.name)) for col in schema.columns)


def _table_multisets(
    table: str,
    pool: list[tuple],
    catalog: Catalog,
    bounds: VerifyBounds,
) -> Iterator[tuple]:
    """Row multisets of size 1..max_rows over the pool, PK-valid only."""
    for size in range(1, bounds.max_rows + 1):
        for combo in itertools.combinations_with_replacement(range(len(pool)), size):
            rows = [pool[i] for i in combo]
            if _pk_unique(table, catalog, rows):
                yield tuple(rows)


def _pk_unique(table: str, catalog: Catalog, rows: list[tuple]) -> bool:
    schema = catalog.get(table)
    if not schema.primary_key:
        return True
    indices = [schema.column_index(name) for name in schema.primary_key]
    keys = [tuple(row[i] for i in indices) for row in rows]
    return len(keys) == len(set(keys))


def _fk_consistent(
    db: dict[str, list[tuple]], catalog: Catalog, tables: list[str]
) -> bool:
    present = {t.lower() for t in tables}
    for table in tables:
        schema = catalog.get(table)
        for fk in schema.foreign_keys:
            if fk.ref_table.lower() not in present:
                continue
            parent = catalog.get(fk.ref_table)
            child_idx = [schema.column_index(c) for c in fk.columns]
            parent_idx = [parent.column_index(c) for c in fk.ref_columns]
            parent_keys = {
                tuple(row[i] for i in parent_idx)
                for row in db.get(parent.name, db.get(fk.ref_table, []))
            }
            for row in db.get(table, []):
                child_key = tuple(row[i] for i in child_idx)
                if any(v is None for v in child_key):
                    continue
                if child_key not in parent_keys:
                    return False
    return True


def _joined_table_pairs(profile: QueryProfile) -> list[tuple[str, str]]:
    pairs = []
    seen = set()
    for left, right in profile.join_pairs:
        if left.table == right.table:
            continue
        key = tuple(sorted((left.table, right.table)))
        if key not in seen:
            seen.add(key)
            pairs.append((left.table, right.table))
    return pairs


# --- counterexample wire format --------------------------------------------

FORMAT = "repro-counterexample-v1"

_TYPE_NAMES = {
    IntegerType: "integer",
    BigIntType: "bigint",
    NumericType: "numeric",
    DateType: "date",
    VarcharType: "varchar",
    CharType: "char",
    TextType: "text",
}


def _type_to_json(col_type) -> dict:
    name = _TYPE_NAMES.get(type(col_type))
    if name is None:  # pragma: no cover - future types
        name = getattr(col_type, "name", "text")
    payload: dict = {"name": name}
    if isinstance(col_type, NumericType):
        payload["scale"] = col_type.scale
    if isinstance(col_type, VarcharType) and not isinstance(col_type, TextType):
        payload["max_length"] = col_type.max_length
    return payload


def _type_from_json(payload: dict):
    name = payload["name"]
    if name == "integer":
        return IntegerType()
    if name == "bigint":
        return BigIntType()
    if name == "numeric":
        return NumericType(payload.get("scale", 2))
    if name == "date":
        return DateType()
    if name == "char":
        return CharType(payload.get("max_length", 255))
    if name == "varchar":
        return VarcharType(payload.get("max_length", 255))
    return TextType()


def _value_to_json(value):
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def _value_from_json(value):
    if isinstance(value, dict) and "$date" in value:
        return datetime.date.fromisoformat(value["$date"])
    return value


def database_to_json(
    db_rows: dict[str, list[tuple]],
    catalog: Catalog,
    candidate_sql: str = "",
    oracle_sql: str = "",
    detail: str = "",
) -> dict:
    """Serialize a counterexample database (plus context) to plain JSON."""
    tables = {}
    for table, rows in db_rows.items():
        schema = catalog.get(table)
        tables[schema.name] = {
            "columns": [
                {
                    "name": col.name,
                    "type": _type_to_json(col.type),
                    "nullable": col.nullable,
                }
                for col in schema.columns
            ],
            "primary_key": list(schema.primary_key),
            "foreign_keys": [
                {
                    "columns": list(fk.columns),
                    "ref_table": fk.ref_table,
                    "ref_columns": list(fk.ref_columns),
                }
                for fk in schema.foreign_keys
                if fk.ref_table.lower() in {t.lower() for t in db_rows}
            ],
            "rows": [[_value_to_json(v) for v in row] for row in rows],
        }
    return {
        "format": FORMAT,
        "candidate_sql": candidate_sql,
        "oracle_sql": oracle_sql,
        "detail": detail,
        "database": {"tables": tables},
    }


def database_from_json(payload: dict) -> Database:
    """Re-materialize a serialized counterexample into a real Database."""
    if payload.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} payload")
    schemas = []
    rows_by_table = {}
    for name, spec in payload["database"]["tables"].items():
        columns = tuple(
            Column(
                col["name"],
                _type_from_json(col["type"]),
                nullable=col.get("nullable", True),
            )
            for col in spec["columns"]
        )
        schemas.append(
            TableSchema(
                name=name,
                columns=columns,
                primary_key=tuple(spec.get("primary_key", ())),
                foreign_keys=tuple(
                    ForeignKey(
                        tuple(fk["columns"]),
                        fk["ref_table"],
                        tuple(fk["ref_columns"]),
                    )
                    for fk in spec.get("foreign_keys", ())
                ),
            )
        )
    db = Database(schemas)
    for name, spec in payload["database"]["tables"].items():
        rows_by_table[name] = [
            tuple(_value_from_json(v) for v in row) for row in spec["rows"]
        ]
        db.insert(name, rows_by_table[name])
    return db
