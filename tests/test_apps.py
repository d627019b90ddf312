"""Unit tests for the black-box application layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import CallableExecutable, SQLExecutable
from repro.apps.imperative import (
    ImperativeExecutable,
    group_rows,
    hash_join_rows,
    index_rows,
    sorted_rows,
)
from repro.apps.obfuscation import (
    deobfuscate,
    hex_decode_sql,
    hex_encode_sql,
    obfuscate,
)
from repro.apps.registry import CommandRegistry
from repro.datagen import tpch
from repro.engine import Result
from repro.errors import UndefinedTableError


@pytest.fixture(scope="module")
def db(tiny_tpch_db):
    return tiny_tpch_db


class TestObfuscation:
    def test_round_trip(self):
        text = "select * from passwords where user = 'admin'"
        assert deobfuscate(obfuscate(text)) == text

    def test_blob_hides_plaintext(self):
        text = "select secret_column from credentials"
        blob = obfuscate(text)
        assert "select" not in blob
        assert "credentials" not in blob

    def test_key_sensitivity(self):
        blob = obfuscate("select 1", key=b"k1")
        with pytest.raises(Exception):
            deobfuscate(blob, key=b"k2").encode().decode("ascii")

    def test_hex_round_trip(self):
        assert hex_decode_sql(hex_encode_sql("select 1")) == "select 1"

    def test_unicode_safe(self):
        text = "select 'naïve — ünïcode'"
        assert deobfuscate(obfuscate(text)) == text

    def test_blobs_are_pinned(self):
        # the keystream is sha256(key), then the digest of each block
        text = (
            "select l_orderkey from lineitem where l_quantity > 30"
            " -- naïve ünïcode ✓"
        )
        assert obfuscate(text) == (
            "48eb205b7f5084981bd038fb821a5170f421f3b7f20cd5315cbe736edb80015f"
            "7c819a0add25f7d9cad279f234b401946954416000325e9b261ab13b35cc22f1"
            "9f5e3a7ca59f7346d13f712a24"
        )
        assert obfuscate("", key=b"k") == ""
        assert obfuscate("x" * 100, key=b"other-key") == (
            "20703ba8455a6e87625f2571e9c2ae16356280096f65eae6e59e7ccfede7e3b2"
            "98b2c0658b4620bc81d14f481934bb793b5f8f10d30eaff199a85a1ea7ec9149"
            "ef9dd326b249cd1cf6e1ebaedc3d9859c7f0343c8123ec95b8433aaa0354d07a"
            "c368d731"
        )

    @given(text=st.text(), key=st.binary(min_size=1, max_size=40))
    def test_round_trip_over_random_text(self, text, key):
        blob = obfuscate(text, key=key)
        assert len(blob) == 2 * len(text.encode("utf-8"))
        assert deobfuscate(blob, key=key) == text


class TestSQLExecutable:
    def test_runs_hidden_query(self, db):
        app = SQLExecutable("select count(*) as n from region")
        assert app.run(db).first_row() == (5,)

    def test_obfuscated_blob_is_opaque(self):
        app = SQLExecutable("select c_name from customer", obfuscate_text=True)
        assert "customer" not in app._blob

    def test_invocation_counting(self, db):
        app = SQLExecutable("select count(*) from region")
        app.run(db)
        app.run(db)
        assert app.invocation_count == 2
        app.reset_counters()
        assert app.invocation_count == 0

    def test_raises_on_renamed_table(self, db):
        silo = db.clone()
        app = SQLExecutable("select count(*) from region")
        silo.rename_table("region", "hidden_region")
        with pytest.raises(UndefinedTableError):
            app.run(silo)
        silo.rename_table("hidden_region", "region")


class TestImperativeExecutable:
    def test_wraps_function(self, db):
        def logic(database):
            total = sum(1 for _ in database.scan("nation"))
            return Result(["n"], [(total,)])

        app = ImperativeExecutable(logic, name="nation-count")
        assert app.run(db).first_row() == (25,)
        assert app.invocation_count == 1

    def test_scan_raises_on_missing_table(self, db):
        def logic(database):
            return Result(["n"], [(len(list(database.scan("ghost"))),)])

        with pytest.raises(UndefinedTableError):
            ImperativeExecutable(logic).run(db)

    def test_callable_executable(self, db):
        app = CallableExecutable(lambda d: d.execute("select count(*) from region"))
        assert app.run(db).first_row() == (5,)


class TestImperativeHelpers:
    def test_index_rows_keeps_duplicates(self):
        rows = [{"id": 1, "v": "a"}, {"id": 1, "v": "b"}, {"id": 2, "v": "c"}]
        index = index_rows(rows, "id")
        assert len(index[1]) == 2  # NOT collapsed: SQL join semantics

    def test_index_rows_skips_null_keys(self):
        index = index_rows([{"id": None, "v": "a"}], "id")
        assert index == {}

    def test_hash_join_multiplicity(self):
        left = [{"k": 1, "l": "x"}]
        right = [{"k": 1, "r": "a"}, {"k": 1, "r": "b"}]
        joined = hash_join_rows(left, right, "k", "k")
        assert len(joined) == 2

    def test_group_rows(self):
        rows = [{"g": 1, "v": 2}, {"g": 1, "v": 3}, {"g": 2, "v": 4}]
        groups = group_rows(rows, ["g"])
        assert len(groups[(1,)]) == 2

    def test_sorted_rows_multi_key(self):
        rows = [(1, "b"), (2, "a"), (1, "a")]
        ordered = sorted_rows(rows, [(0, False), (1, True)])
        assert ordered == [(1, "b"), (1, "a"), (2, "a")]


class TestCommandRegistry:
    def test_scope_partition(self):
        registry = CommandRegistry("demo")

        @registry.add("cmd_in", tables=("t",), clauses=("Project",))
        def cmd_in(db):
            return Result([], [])

        @registry.add("cmd_out", tables=("t",), clauses=(), in_scope=False, note="x")
        def cmd_out(db):
            return Result([], [])

        assert [c.name for c in registry.in_scope()] == ["cmd_in"]
        assert [c.name for c in registry.out_of_scope()] == ["cmd_out"]
        assert registry.get("cmd_out").note == "x"

    def test_paper_partitions(self):
        from repro.apps import enki, rubis, wilos

        assert len(enki.registry.in_scope()) == 14  # paper: 14 of 17
        assert len(enki.registry.commands) == 17
        assert len(wilos.registry.in_scope()) == 22  # paper: 22 of 33
        assert len(rubis.registry.in_scope()) == 8

    def test_wilos_full_inventory(self):
        from repro.apps import wilos

        assert len(wilos.registry.commands) == 33  # paper: 33 functions
        assert len(wilos.registry.out_of_scope()) == 11
