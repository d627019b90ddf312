"""Property test (hypothesis): every stored row is already in storage form.

Rows read out of a table and moved to a table of the same schema — the
minimizer's samples and halves, the isolation worker's shipped replica —
are installed with :meth:`TableData.install`, which coerces nothing.  That
is sound only if no mutator ever stores a row that coercion would still
change.  Random sequences of the ``TableData`` mutators check, after every
step, that each stored row is a fixpoint of ``coerce_row`` compared by
``repr`` (so an ``int`` kept in a ``numeric`` column, or an ISO string kept
in a ``date`` column, fails), and that installing rows read from a table
leaves the same fingerprint as replacing them through coercion.
"""

from __future__ import annotations

import datetime
import math
import pickle

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.engine.catalog import Column, TableSchema
from repro.engine.database import Database
from repro.engine.types import DateType, IntegerType, NumericType, VarcharType

COLUMNS = (
    Column("i", IntegerType()),
    Column("n", NumericType(scale=2)),
    Column("d", DateType()),
    Column("s", VarcharType(6)),
)
#: two tables of one schema, so rows can move between them
NAMES = ("t", "u")

#: raw values each column type accepts, in every form it coerces from
RAW = {
    "i": st.one_of(
        st.none(),
        st.integers(-(10**6), 10**6),
        st.integers(-50, 50).map(float),
    ),
    "n": st.one_of(st.none(), st.integers(-1000, 1000), st.floats()),
    "d": st.one_of(
        st.none(),
        st.dates(),
        st.dates().map(datetime.date.isoformat),
        st.datetimes(),
    ),
    "s": st.one_of(st.none(), st.text(max_size=6)),
}
raw_rows = st.tuples(*(RAW[column.name] for column in COLUMNS))
tables = st.sampled_from(NAMES)
columns = st.sampled_from([column.name for column in COLUMNS])

#: ``map_column`` functions per column; each may return a value that still
#: needs coercion (an ``int`` for the numeric column, a string for the date)
MAPPERS = {
    "i": lambda v: None if v is None else -v,
    "n": lambda v: int(v) if v is not None and math.isfinite(v) else None,
    "d": lambda v: None if v is None else v.isoformat(),
    "s": lambda v: None if v is None else v[::-1],
}


class StorageFormMachine(RuleBasedStateMachine):
    @initialize(rows=st.lists(raw_rows, max_size=4))
    def start(self, rows):
        self.db = Database(
            [TableSchema(name=name, columns=COLUMNS) for name in NAMES]
        )
        self.db.insert("t", rows)

    def _data(self, name):
        return self.db.table(name)

    # -- coercing mutators --------------------------------------------------

    @rule(name=tables, row=raw_rows)
    def insert(self, name, row):
        self._data(name).insert(row)

    @rule(name=tables, rows=st.lists(raw_rows, max_size=4))
    def replace_all(self, name, rows):
        self._data(name).replace_all(rows)

    @rule(name=tables, bound=st.integers(-10, 10), value=RAW["n"])
    def update_where(self, name, bound, value):
        self._data(name).update_where(
            lambda row: row[0] is not None and row[0] > bound,
            lambda row: (row[0], value, row[2], row[3]),
        )

    @rule(name=tables, data=st.data())
    def set_column(self, name, data):
        column = data.draw(columns)
        self._data(name).set_column(column, data.draw(RAW[column]))

    @rule(name=tables, column=columns)
    def map_column(self, name, column):
        self._data(name).map_column(column, MAPPERS[column])

    @rule(name=tables, bound=st.integers(-10, 10))
    def delete_where(self, name, bound):
        self._data(name).delete_where(
            lambda row: row[0] is not None and row[0] < bound
        )

    # -- the trusted path ---------------------------------------------------

    @rule(
        source=tables,
        dest=tables,
        picks=st.lists(st.integers(0, 50), max_size=6),
        shipped=st.booleans(),
    )
    def install(self, source, dest, picks, shipped):
        """Install rows read from a same-schema table — optionally through
        a pickle round trip, as the isolation worker receives them — and
        check it leaves the fingerprint a coercing replace would."""
        stored = self.db.rows(source)
        rows = [stored[pick % len(stored)] for pick in picks] if stored else []
        if shipped:
            rows = pickle.loads(pickle.dumps(rows))
        coerced = self.db.clone()
        coerced.replace_rows(dest, rows)
        self.db.install_rows(dest, rows)
        assert self.db.fingerprint() == coerced.fingerprint()

    # -- checks ---------------------------------------------------------------

    @invariant()
    def rows_are_coercion_fixpoints(self):
        for name in NAMES:
            data = self._data(name)
            for row in data.rows:
                assert repr(data.coerce_row(row)) == repr(row)


StorageFormMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=25, deadline=None
)
test_stored_rows_are_coercion_fixpoints = StorageFormMachine.TestCase
