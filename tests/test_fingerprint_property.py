"""Property test (hypothesis): memoized per-table digests never go stale.

``Database.fingerprint`` builds on row digests memoized on frozen
(copy-on-write) row lists.  Random sequences of DML, bulk mutation,
snapshot/restore/replica, DDL and pickle round-trips check, after every
step, that the fingerprint equals a from-scratch reference that caches
nothing, and that two visited states share a fingerprint exactly when
their snapshots compare equal.
"""

from __future__ import annotations

import hashlib
import pickle

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.catalog import Column, TableSchema
from repro.engine.database import Database, DatabaseSnapshot
from repro.engine.types import IntegerType, VarcharType

NAMES = ("t0", "t1", "t2", "t3")
values = st.integers(min_value=-3, max_value=3)


def reference_fingerprint(db: Database) -> str:
    """The fingerprint recomputed from every row, with no memoization."""
    digest = hashlib.sha256()
    for name, schema, rows in sorted(db.table_states(), key=lambda s: s[0]):
        digest.update(name.encode())
        for column in schema.columns:
            digest.update(f"|{column.name}:{column.type!r}".encode())
        digest.update(b"#")
        table = hashlib.sha256()
        for row in rows:
            table.update(repr(row).encode() + b"\n")
        digest.update(table.digest())
        digest.update(b"@")
    return digest.hexdigest()


def make_schema(name: str, text: bool) -> TableSchema:
    second = VarcharType(8) if text else IntegerType()
    return TableSchema(
        name=name, columns=(Column("a", IntegerType()), Column("b", second))
    )


def make_row(schema: TableSchema, value: int) -> tuple:
    text = isinstance(schema.columns[1].type, VarcharType)
    return (value, f"v{value}" if text else value)


def literal(schema: TableSchema, value: int) -> str:
    second = make_row(schema, value)[1]
    return f"'{second}'" if isinstance(second, str) else str(second)


class FingerprintMachine(RuleBasedStateMachine):
    @initialize(text=st.booleans(), rows=st.lists(values, max_size=4))
    def start(self, text, rows):
        schema = make_schema("t0", text)
        self.db = Database([schema])
        self.db.insert("t0", [make_row(schema, v) for v in rows])
        self.tokens: list[DatabaseSnapshot] = []
        #: (fingerprint, snapshot) of every visited state
        self.visited: list[tuple[str, DatabaseSnapshot]] = []

    def _table(self, index: int):
        names = self.db.table_names
        return names[index % len(names)].lower()

    def _has_tables(self):
        return bool(self.db.table_names)

    # -- DML ---------------------------------------------------------------

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3), value=values)
    def sql_insert(self, index, value):
        name = self._table(index)
        second = literal(self.db.schema(name), value)
        self.db.execute(f"insert into {name} values ({value}, {second})")

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3), bound=values)
    def sql_update(self, index, bound):
        name = self._table(index)
        self.db.execute(f"update {name} set a = a + 1 where a > {bound}")

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3), bound=values)
    def sql_delete(self, index, bound):
        self.db.execute(f"delete from {self._table(index)} where a < {bound}")

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3), rows=st.lists(values, max_size=4))
    def replace_rows(self, index, rows):
        name = self._table(index)
        schema = self.db.schema(name)
        self.db.replace_rows(name, [make_row(schema, v) for v in rows])

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3), value=values)
    def set_column(self, index, value):
        self.db.table(self._table(index)).set_column("a", value)

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3))
    def map_column(self, index):
        self.db.table(self._table(index)).map_column(
            "a", lambda v: None if v is None else -v
        )

    # -- sandbox -------------------------------------------------------------

    @rule()
    def snapshot(self):
        self.tokens.append(self.db.snapshot())

    @precondition(lambda self: self.tokens)
    @rule(index=st.integers(0, 50))
    def restore(self, index):
        self.db.restore(self.tokens[index % len(self.tokens)])

    @precondition(lambda self: self.tokens)
    @rule(index=st.integers(0, 50))
    def replica(self, index):
        self.db = self.db.replica(self.tokens[index % len(self.tokens)])

    # -- DDL -----------------------------------------------------------------

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3), new_name=st.sampled_from(NAMES))
    def rename(self, index, new_name):
        if new_name not in self.db.table_names:
            self.db.rename_table(self._table(index), new_name)

    @rule(name=st.sampled_from(NAMES), text=st.booleans())
    def create(self, name, text):
        if name not in self.db.table_names:
            self.db.create_table(make_schema(name, text))

    @precondition(_has_tables)
    @rule(index=st.integers(0, 3))
    def drop(self, index):
        self.db.drop_table(self._table(index))

    @rule()
    def pickle_round_trip(self):
        """Restore a state rebuilt from pickled ``table_states()``: its row
        lists arrive as plain lists, which are hashed uncached."""
        states = pickle.loads(
            pickle.dumps(self.db.table_states(), protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert all(type(rows) is list for _, _, rows in states)
        token = DatabaseSnapshot(
            schemas={name: schema for name, schema, _ in states},
            rows={name: rows for name, _, rows in states},
            version=self.db.catalog_version,
        )
        assert token == self.db.snapshot()
        assert token.fingerprint() == self.db.fingerprint()
        self.db.restore(token)

    # -- checks --------------------------------------------------------------

    @invariant()
    def fingerprint_matches_reference(self):
        fingerprint = self.db.fingerprint()
        assert fingerprint == reference_fingerprint(self.db)
        snapshot = self.db.snapshot()
        assert snapshot.fingerprint() == fingerprint
        for seen, token in self.visited:
            assert (seen == fingerprint) == (token == snapshot)
        self.visited.append((fingerprint, snapshot))


FingerprintMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
test_fingerprint_matches_reference = FingerprintMachine.TestCase


def test_cached_schema_signatures_keep_every_digest(tpch_db):
    """Schemas compute their column signature once; the digests built from
    it stay byte-identical to the per-column formula (checkpoints store
    ``di_fingerprint``), and a schema's equality and pickled form do not
    change once its signature is cached."""
    assert tpch_db.fingerprint() == reference_fingerprint(tpch_db)
    assert tpch_db.snapshot().fingerprint() == reference_fingerprint(tpch_db)

    catalog = hashlib.sha256()
    for name in sorted(tpch_db.table_names, key=str.lower):
        schema = tpch_db.schema(name)
        catalog.update(name.lower().encode())
        for column in schema.columns:
            catalog.update(f"|{column.name}:{column.type!r}".encode())
        catalog.update(f"#pk:{schema.primary_key}".encode())
        catalog.update(f"#fk:{schema.foreign_keys}".encode())
        catalog.update(b"@")
    assert tpch_db.clone().catalog_digest() == catalog.hexdigest()[:16]

    schema = pickle.loads(pickle.dumps(tpch_db.schema("lineitem")))
    before = pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL)
    schema.signature()
    assert pickle.dumps(schema, protocol=pickle.HIGHEST_PROTOCOL) == before
    assert schema == tpch_db.schema("lineitem")
    assert hash(schema) == hash(tpch_db.schema("lineitem"))
    assert schema.renamed("l2").signature() == schema.signature()
