"""Property test (hypothesis): a copy-on-write clone is an independent copy.

``Database.clone`` shares every table's row list with its source instead of
copying it.  Random mutations of either side, through every storage path,
check after every step that the *other* side still holds exactly the rows
it held before, and that every digest memoized on a row list ever seen
still equals a fresh hash of that list.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.engine.database import Database
from repro.engine.storage import FrozenRows, _hash_rows

from tests.test_fingerprint_property import NAMES, literal, make_row, make_schema

SIDES = ("source", "clone")
sides = st.sampled_from(SIDES)
values = st.integers(min_value=-3, max_value=3)


def state_of(db: Database) -> dict:
    """Schemas and rows of ``db``, copied out of its storage.

    Reads through ``Database.rows``, not ``table_states``: the latter shares
    every row list, which would mask a clone that forgot to.
    """
    return {name: (db.schema(name), db.rows(name)) for name in db.table_names}


class CloneMachine(RuleBasedStateMachine):
    @initialize(
        text=st.booleans(),
        first=st.lists(values, max_size=4),
        second=st.lists(values, max_size=4),
    )
    def start(self, text, first, second):
        source = Database([make_schema("t0", text), make_schema("t1", not text)])
        for name, rows in (("t0", first), ("t1", second)):
            schema = source.schema(name)
            source.insert(name, [make_row(schema, v) for v in rows])
        self.dbs = {"source": source, "clone": source.clone()}
        #: each side's state as of its own last mutation
        self.expected = {side: state_of(db) for side, db in self.dbs.items()}
        #: every frozen row list either side has held, to re-check digests
        self.seen: list[FrozenRows] = []

    def _mutated(self, side: str) -> None:
        self.expected[side] = state_of(self.dbs[side])

    def _table(self, side: str, index: int) -> str:
        names = self.dbs[side].table_names
        return names[index % len(names)].lower()

    def _has_tables(self, side: str) -> bool:
        return bool(self.dbs[side].table_names)

    # -- DML ---------------------------------------------------------------

    @rule(side=sides, index=st.integers(0, 3), value=values)
    def insert(self, side, index, value):
        db = self.dbs[side]
        if self._has_tables(side):
            name = self._table(side, index)
            db.insert(name, [make_row(db.schema(name), value)])
            self._mutated(side)

    @rule(side=sides, index=st.integers(0, 3), value=values)
    def sql_insert(self, side, index, value):
        db = self.dbs[side]
        if self._has_tables(side):
            name = self._table(side, index)
            second = literal(db.schema(name), value)
            db.execute(f"insert into {name} values ({value}, {second})")
            self._mutated(side)

    @rule(side=sides, index=st.integers(0, 3), bound=values)
    def sql_delete(self, side, index, bound):
        if self._has_tables(side):
            name = self._table(side, index)
            self.dbs[side].execute(f"delete from {name} where a < {bound}")
            self._mutated(side)

    @rule(side=sides, index=st.integers(0, 3), bound=values)
    def sql_update(self, side, index, bound):
        if self._has_tables(side):
            name = self._table(side, index)
            self.dbs[side].execute(f"update {name} set a = a + 1 where a > {bound}")
            self._mutated(side)

    @rule(side=sides, index=st.integers(0, 3), rows=st.lists(values, max_size=4))
    def replace_rows(self, side, index, rows):
        db = self.dbs[side]
        if self._has_tables(side):
            name = self._table(side, index)
            db.replace_rows(name, [make_row(db.schema(name), v) for v in rows])
            self._mutated(side)

    @rule(side=sides, index=st.integers(0, 3))
    def clear(self, side, index):
        if self._has_tables(side):
            self.dbs[side].clear_table(self._table(side, index))
            self._mutated(side)

    # -- column-wide mutation ------------------------------------------------

    @rule(side=sides, index=st.integers(0, 3), value=values)
    def set_column(self, side, index, value):
        if self._has_tables(side):
            self.dbs[side].table(self._table(side, index)).set_column("a", value)
            self._mutated(side)

    @rule(side=sides, index=st.integers(0, 3))
    def map_column(self, side, index):
        if self._has_tables(side):
            self.dbs[side].table(self._table(side, index)).map_column(
                "a", lambda v: None if v is None else -v
            )
            self._mutated(side)

    # -- DDL -----------------------------------------------------------------

    @rule(side=sides, index=st.integers(0, 3), new_name=st.sampled_from(NAMES))
    def rename(self, side, index, new_name):
        db = self.dbs[side]
        if self._has_tables(side) and new_name not in db.table_names:
            db.rename_table(self._table(side, index), new_name)
            self._mutated(side)

    @rule(side=sides, name=st.sampled_from(NAMES), text=st.booleans())
    def create(self, side, name, text):
        db = self.dbs[side]
        if name not in db.table_names:
            db.create_table(make_schema(name, text))
            self._mutated(side)

    @rule(side=sides, index=st.integers(0, 3))
    def drop(self, side, index):
        if self._has_tables(side):
            self.dbs[side].drop_table(self._table(side, index))
            self._mutated(side)

    @rule(side=sides)
    def drop_constraints(self, side):
        self.dbs[side].drop_constraints()
        self._mutated(side)

    # -- cloning and snapshots ------------------------------------------------

    @rule(side=sides)
    def reclone(self, side):
        """Replace the other side with a fresh clone of ``side``."""
        other = SIDES[1 - SIDES.index(side)]
        self.dbs[other] = self.dbs[side].clone()
        self._mutated(other)

    @rule(side=sides)
    def fingerprint(self, side):
        """Memoize the digest of every row list the side holds now."""
        self.dbs[side].fingerprint()

    # -- checks --------------------------------------------------------------

    @invariant()
    def sides_are_independent(self):
        for side, db in self.dbs.items():
            assert state_of(db) == self.expected[side], side

    @invariant()
    def memoized_digests_are_fresh(self):
        for db in self.dbs.values():
            self.seen.extend(db.table(name).rows for name in db.table_names)
        for rows in self.seen:
            digest = getattr(rows, "digest", None)
            if digest is not None:
                assert digest == _hash_rows(rows)


CloneMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
test_clone_stays_independent = CloneMachine.TestCase


def test_clone_shares_row_lists_until_a_side_mutates():
    source = Database([make_schema("t0", False), make_schema("t1", True)])
    source.insert("t0", [(1, 1), (2, 2)])
    clone = source.clone()
    assert clone.table("t0").rows is source.table("t0").rows
    clone.insert("t0", [(3, 3)])
    assert clone.table("t0").rows is not source.table("t0").rows
    assert source.rows("t0") == [(1, 1), (2, 2)]
    assert clone.table("t1").rows is source.table("t1").rows
