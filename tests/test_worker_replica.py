"""The isolation worker's replica follows the silo through trusted installs.

The worker installs shipped rows without coercing them again (they were
read out of the supervisor's own tables).  These tests drive the
supervisor's delta source (``_deltas``/``_dropped``) and the worker's
``_reconcile`` over real silo states — those of a Q6 extraction, and the
sampler, halving and joint-rename transitions driven by hand — and check
after every frame that the replica fingerprints exactly like the silo.
Values that arrive from outside a table must still be coerced.
"""

from __future__ import annotations

import datetime
import pickle

import pytest

from repro.apps.executable import SQLExecutable
from repro.core.pipeline import UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.engine.catalog import Column, TableSchema
from repro.engine.database import Database
from repro.engine.types import DateType, NumericType
from repro.isolation import supervisor, worker
from repro.workloads import tpch_queries


class Replica:
    """A worker-side replica fed the frames a supervisor would send."""

    def __init__(self):
        self.db = Database()
        self.shipped: dict = {}
        self.frames = 0

    def ship(self, silo: Database) -> None:
        frame = {
            "deltas": supervisor._deltas(self.shipped, silo),
            "dropped": supervisor._dropped(self.shipped, silo),
        }
        frame = pickle.loads(pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL))
        worker._reconcile(self.db, frame["deltas"], frame["dropped"])
        self.frames += 1
        assert self.db.fingerprint() == silo.fingerprint()


def test_replica_matches_silo_through_a_q6_extraction(tpch_db, monkeypatch):
    replica = Replica()
    modules = []
    invoke = ExtractionSession._invoke

    def shipping_invoke(self, timeout):
        replica.ship(self.silo)
        modules.append(self._current_module)
        return invoke(self, timeout)

    monkeypatch.setattr(ExtractionSession, "_invoke", shipping_invoke)
    outcome = UnmasqueExtractor(
        tpch_db, SQLExecutable(tpch_queries.QUERIES["Q6"].sql)
    ).extract()
    assert outcome.sql
    assert {"from_clause", "sampler", "minimizer"} <= set(modules)
    assert replica.frames == len(modules)


def test_replica_matches_silo_through_hand_driven_transitions(tpch_db):
    silo = tpch_db.clone()
    replica = Replica()
    replica.ship(silo)  # the whole silo, as after an init frame

    # the sampler's sample, then its restore
    original = silo.rows("lineitem")
    silo.install_rows("lineitem", silo.sample_rows("lineitem", 12, seed=3))
    replica.ship(silo)
    silo.install_rows("lineitem", original)
    replica.ship(silo)

    # halving links down to one row
    while silo.row_count("lineitem") > 1:
        first, second = silo.table("lineitem").halves()
        silo.install_rows("lineitem", first)
        replica.ship(silo)
        silo.install_rows("lineitem", second)
        replica.ship(silo)

    # the from clause's joint rename, and its restore one table at a time
    names = [name.lower() for name in silo.table_names]
    for name in names:
        silo.rename_table(name, f"{name}_probe")
    replica.ship(silo)
    for name in names:
        silo.rename_table(f"{name}_probe", name)
        replica.ship(silo)
    assert sorted(n.lower() for n in replica.db.table_names) == sorted(names)


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
