"""The isolation worker's replica follows the silo frame by frame.

The supervisor's :class:`~repro.isolation.supervisor.ShipLedger` names what
the worker already holds: a rename or a restore points a table at a held
row list, a halving ships the bounds of a held list, and only new rows
travel by value.  These tests feed the ledger's frames, through a pickle
round trip, to the worker's :class:`~repro.isolation.worker.Replica` over
real silo states — those of a Q6 extraction, hand-driven sampler, halving
and joint-rename transitions, a wide silo, and random sequences of a
hypothesis state machine — and check after every frame that the replica
fingerprints exactly like the silo.  Values that arrive from outside a
table must still be coerced.
"""

from __future__ import annotations

import datetime
import itertools
import pickle

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.apps.executable import SQLExecutable
from repro.core.pipeline import UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.datagen.wide_schema import widen_database
from repro.engine.catalog import Column, TableSchema
from repro.engine.database import Database
from repro.engine.types import DateType, IntegerType, NumericType, VarcharType
from repro.isolation import supervisor, worker
from repro.workloads import tpch_queries


class Link:
    """A supervisor-side ledger and the worker replica its frames feed."""

    def __init__(self):
        self.ledger = supervisor.ShipLedger()
        self.replica = worker.Replica()
        #: pickled size of every frame applied
        self.sizes: list[int] = []

    def frame(self, silo: Database) -> tuple[dict, supervisor.ShipLedger]:
        """The next frame as the worker unpickles it, and the ledger that
        holds once the worker replies."""
        shipping, after = self.ledger.frame(silo)
        payload = pickle.dumps(shipping, protocol=pickle.HIGHEST_PROTOCOL)
        self.sizes.append(len(payload))
        return pickle.loads(payload), after

    def ship(self, silo: Database) -> dict:
        """One acknowledged frame; checks the replica against the silo."""
        shipping, after = self.frame(silo)
        self.replica.reconcile(shipping)
        self.ledger = after
        self.check(silo)
        return shipping

    def check(self, silo: Database) -> None:
        replica = self.replica
        assert replica.db.fingerprint() == silo.fingerprint()
        assert set(replica.held) == self.ledger.references
        lists = [held for held in replica.held.values() if isinstance(held, list)]
        assert sum(map(len, lists)) <= 2 * self.ledger.peak_rows
        assert len(replica.held) <= 6 * self.ledger.peak_tables


def by_value(shipping: dict) -> list:
    """The row lists a frame ships by value."""
    return [rows for rows in shipping["rows"].values() if isinstance(rows, list)]


def test_replica_matches_silo_through_a_q6_extraction(tpch_db, monkeypatch):
    link = Link()
    modules = []
    invoke = ExtractionSession._invoke

    def shipping_invoke(self, timeout):
        link.ship(self.silo)
        modules.append(self._current_module)
        return invoke(self, timeout)

    monkeypatch.setattr(ExtractionSession, "_invoke", shipping_invoke)
    outcome = UnmasqueExtractor(
        tpch_db, SQLExecutable(tpch_queries.QUERIES["Q6"].sql)
    ).extract()
    assert outcome.sql
    assert {"from_clause", "sampler", "minimizer"} <= set(modules)
    assert len(link.sizes) == len(modules)
    # only the first frame carries D_I; everything after names held rows
    # or ships small states
    assert sum(link.sizes[1:]) < link.sizes[0]


def test_replica_matches_silo_through_hand_driven_transitions(tpch_db):
    silo = tpch_db.clone()
    link = Link()
    first = link.ship(silo)  # the whole silo, as after an init frame
    assert first["reset"] and len(by_value(first)) == len(silo.table_names)
    assert not link.ship(silo)["tables"]  # nothing changed, nothing ships

    # the sampler's sample ships by value; its restore (a fresh copy of
    # the held list) ships as a run of it
    original = silo.rows("lineitem")
    silo.install_rows("lineitem", silo.sample_rows("lineitem", 12, seed=3))
    assert len(by_value(link.ship(silo))) == 1
    silo.install_rows("lineitem", original)
    restore = link.ship(silo)
    assert not by_value(restore) and list(restore["rows"].values())[0][1:] == (
        0,
        len(original),
    )

    # halving links down to one row: each half is a run of a held list
    while silo.row_count("lineitem") > 1:
        first_half, second_half = silo.table("lineitem").halves()
        silo.install_rows("lineitem", first_half)
        assert not by_value(link.ship(silo))
        silo.install_rows("lineitem", second_half)
        assert not by_value(link.ship(silo))

    # the from clause's joint rename, and its restore one table at a time:
    # no rows travel, only the renamed schemas
    names = [name.lower() for name in silo.table_names]
    for name in names:
        silo.rename_table(name, f"{name}_probe")
    rename = link.ship(silo)
    assert not rename["rows"] and len(rename["schemas"]) == len(names)
    for name in names:
        silo.rename_table(f"{name}_probe", name)
        assert not link.ship(silo)["rows"]
    assert sorted(n.lower() for n in link.replica.db.table_names) == sorted(names)


def test_a_wide_silo_ships_in_one_pass_over_its_tables(tiny_tpch_db, monkeypatch):
    silo = widen_database(tiny_tpch_db, extra=1000)
    assert len(silo.table_names) > 1000
    scans = []
    table_names = Database.table_names

    def counted(db):
        scans.append(db)
        return table_names.fget(db)

    # reconciling finds each table with one catalog lookup, never a scan of
    # every table name per shipped table
    monkeypatch.setattr(Database, "table_names", property(counted))
    link = Link()
    link.ship(silo)
    assert not [db for db in scans if db is link.replica.db]
    silo.rename_table("lineitem", "lineitem_probe")
    link.ship(silo)
    silo.rename_table("lineitem_probe", "lineitem")
    link.ship(silo)


def test_a_frame_naming_an_unheld_reference_is_a_desync(tpch_db):
    silo = tpch_db.clone()
    link = Link()
    link.ship(silo)
    silo.install_rows("nation", silo.rows("nation")[:3])
    shipping, _ = link.frame(silo)
    [(name, (schema_ref, _))] = shipping["tables"].items()
    shipping["rows"] = {}
    shipping["tables"] = {name: (schema_ref, 10**9)}
    with pytest.raises(worker.Desync):
        link.replica.reconcile(shipping)


# -- random shipping sequences ------------------------------------------------

COLUMNS = (Column("k", IntegerType()), Column("v", VarcharType(8)))


def _rows(start: int, count: int) -> list[tuple]:
    return [(key, f"r{key}") for key in range(start, start + count)]


class ShippingMachine(RuleBasedStateMachine):
    """A silo mutated at random, shipped to a replica between mutations.

    Each rule is one kind of silo move the extraction makes (a contiguous
    slice, a sample, new values, a restore, a rename, a create or a drop)
    or one supervisor/worker event (a re-init, a request or a reply lost on
    the wire, a desynchronised frame).  After every acknowledged frame the
    replica must fingerprint like the silo and hold within the bound.
    """

    @initialize(counts=st.lists(st.integers(1, 12), min_size=1, max_size=3))
    def start(self, counts):
        self.silo = Database()
        self.keys = itertools.count()
        self.fresh_names = itertools.count()
        for count in counts:
            self._create(count)
        self.snapshots = [self.silo.snapshot()]
        self.link = Link()
        self.link.ship(self.silo)

    def _create(self, count: int) -> None:
        name = f"t{next(self.fresh_names)}"
        self.silo.create_table(TableSchema(name=name, columns=COLUMNS))
        self.silo.insert(name, _rows(next(self.keys) * 100, count))

    def _table(self, data) -> str:
        return data.draw(st.sampled_from(sorted(self.silo.table_names)))

    def _has_tables(self) -> bool:
        return bool(self.silo.table_names)

    def _moved(self, then_ship: bool) -> None:
        """Ship right after a move, or let several moves share a frame."""
        if then_ship:
            self.link.ship(self.silo)

    # -- silo moves -----------------------------------------------------------

    @precondition(_has_tables)
    @rule(data=st.data(), then_ship=st.booleans())
    def contiguous_slice(self, data, then_ship):
        name = self._table(data)
        rows = self.silo.rows(name)
        start = data.draw(st.integers(0, len(rows)))
        stop = data.draw(st.integers(start, len(rows)))
        self.silo.install_rows(name, rows[start:stop])
        self._moved(then_ship)

    @precondition(_has_tables)
    @rule(data=st.data(), then_ship=st.booleans())
    def sample(self, data, then_ship):
        name = self._table(data)
        rows = self.silo.rows(name)
        self.silo.install_rows(name, data.draw(st.permutations(rows)))
        self._moved(then_ship)

    @precondition(_has_tables)
    @rule(data=st.data(), count=st.integers(1, 30), then_ship=st.booleans())
    def new_values(self, data, count, then_ship):
        self.silo.replace_rows(self._table(data), _rows(next(self.keys) * 100, count))
        self._moved(then_ship)

    @rule()
    def snapshot(self):
        self.snapshots.append(self.silo.snapshot())

    @rule(data=st.data(), then_ship=st.booleans())
    def restore(self, data, then_ship):
        self.silo.restore(data.draw(st.sampled_from(self.snapshots)))
        self._moved(then_ship)

    @precondition(_has_tables)
    @rule(data=st.data(), then_ship=st.booleans())
    def rename(self, data, then_ship):
        self.silo.rename_table(self._table(data), f"t{next(self.fresh_names)}")
        self._moved(then_ship)

    @rule(count=st.integers(0, 12), then_ship=st.booleans())
    def create(self, count, then_ship):
        self._create(count)
        self._moved(then_ship)

    @precondition(_has_tables)
    @rule(data=st.data(), then_ship=st.booleans())
    def drop(self, data, then_ship):
        self.silo.drop_table(self._table(data))
        self._moved(then_ship)

    # -- supervisor and worker events ---------------------------------------

    @rule()
    def ship(self):
        self.link.ship(self.silo)

    @rule()
    def reinit(self):
        """A re-init: the worker starts an empty replica, the ledger over."""
        self.link = Link()

    @rule()
    def lost_request(self):
        """The frame never reached the worker: nothing is committed."""
        self.link.frame(self.silo)

    @rule()
    def lost_reply(self):
        """The worker applied the frame but its reply was lost: a remote
        abandon resets the ledger, and the next frame resets the worker."""
        shipping, _ = self.link.frame(self.silo)
        self.link.replica.reconcile(shipping)
        self.link.ledger = supervisor.ShipLedger()

    @rule(data=st.data())
    def desync(self, data):
        """A frame naming an unheld reference: the worker exits, and its
        replacement starts over."""
        shipping, _ = self.link.frame(self.silo)
        unheld = max(self.link.ledger.references, default=0) + 10**6
        kind = data.draw(st.sampled_from(["tables", "rows", "release"]))
        if kind == "tables":
            shipping["tables"] = {"ghost": (unheld, unheld)}
        elif kind == "rows":
            shipping["rows"] = {unheld + 1: (unheld, 0, 1)}
        else:
            shipping["release"] = [unheld]
        with pytest.raises(worker.Desync):
            self.link.replica.reconcile(shipping)
        self.link = Link()


ShippingMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
test_random_shipping_sequences = ShippingMachine.TestCase


def test_eviction_keeps_the_worker_within_twice_its_largest_replica():
    silo = Database([TableSchema(name="t", columns=COLUMNS)])
    silo.insert("t", _rows(0, 64))
    link = Link()
    link.ship(silo)
    released = []
    for step in range(1, 40):
        silo.replace_rows("t", _rows(step * 100, 64))
        released += link.ship(silo)["release"]
    assert released  # the cap forced the worker to let go
    assert link.ledger.peak_rows == 64


@pytest.fixture()
def typed_db():
    return Database(
        [
            TableSchema(
                name="t",
                columns=(Column("d", DateType()), Column("n", NumericType())),
            )
        ]
    )


def _assert_coerced(db: Database) -> None:
    [(day, amount)] = db.rows("t")
    assert day == datetime.date(1998, 9, 2)
    assert type(amount) is float and amount == 7.0


def test_replace_rows_coerces_values_from_outside(typed_db):
    typed_db.replace_rows("t", [("1998-09-02", 7)])
    _assert_coerced(typed_db)


def test_sql_insert_coerces_values_from_outside(typed_db):
    typed_db.execute("insert into t values ('1998-09-02', 7)")
    _assert_coerced(typed_db)
