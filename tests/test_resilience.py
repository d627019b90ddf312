"""Unit tests for the fault-tolerance subsystem (repro.resilience)."""

from __future__ import annotations

import datetime
import random

import pytest

from repro.apps.executable import CallableExecutable
from repro.core.model import (
    ExtractedQuery,
    HavingPredicate,
    InListFilter,
    JoinClique,
    MultiRangeFilter,
    NullFilter,
    NumericFilter,
    OrderSpec,
    OutputColumn,
    ScalarFunction,
    TextFilter,
)
from repro.engine.result import Result
from repro.errors import (
    CheckpointError,
    DatabaseError,
    ExecutableTimeoutError,
    TransientExecutableError,
    UndefinedTableError,
)
from repro.resilience import serde
from repro.resilience.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.resilience.faults import (
    FAULT_PROFILES,
    FaultPlan,
    FaultyExecutable,
    InjectedCrashError,
)
from repro.resilience.retry import RetryPolicy
from repro.sgraph.schema_graph import ColumnNode


class _StubDatabase:
    """Minimal stand-in accepted by Executable.run (null tracer)."""

    from repro.obs.trace import NULL_TRACER as tracer

    def total_rows(self):
        return 0


def make_app(rows=((1,),)):
    return CallableExecutable(lambda db: Result(["x"], list(rows)), name="stub")


class TestFaultPlan:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan(transient_rate=0.7, timeout_rate=0.4)

    def test_profiles_are_well_formed(self):
        assert "transient" in FAULT_PROFILES
        assert FAULT_PROFILES["transient"].transient_rate >= 0.10
        for plan in FAULT_PROFILES.values():
            assert plan.crash_at is None  # profiles never hard-crash

    def test_draw_is_deterministic_per_seed(self):
        plan = FaultPlan(transient_rate=0.2, timeout_rate=0.1, latency_rate=0.1)
        rng1, rng2 = random.Random(7), random.Random(7)
        seq1 = [plan.draw(rng1) for _ in range(200)]
        seq2 = [plan.draw(rng2) for _ in range(200)]
        assert seq1 == seq2
        assert {"transient", "timeout", "latency"} <= set(d for d in seq1 if d)


class TestFaultyExecutable:
    def test_same_seed_injects_same_faults(self):
        def run_once():
            app = FaultyExecutable(make_app(), FaultPlan(transient_rate=0.3, seed=99))
            kinds = []
            for _ in range(100):
                try:
                    app.run(_StubDatabase())
                    kinds.append("ok")
                except TransientExecutableError:
                    kinds.append("transient")
            return kinds, app.injected

        kinds1, injected1 = run_once()
        kinds2, injected2 = run_once()
        assert kinds1 == kinds2
        assert injected1 == injected2
        assert injected1["transient"] > 0

    def test_timeout_injection_raises_timeout(self):
        app = FaultyExecutable(make_app(), FaultPlan(timeout_rate=1.0))
        with pytest.raises(ExecutableTimeoutError):
            app.run(_StubDatabase())
        assert app.injected["timeout"] == 1

    def test_empty_injection_keeps_columns_drops_rows(self):
        app = FaultyExecutable(make_app(rows=((1,), (2,))), FaultPlan(empty_result_rate=1.0))
        result = app.run(_StubDatabase())
        assert result.columns == ["x"]
        assert result.rows == []
        assert app.injected["empty"] == 1

    def test_activate_after_suppresses_early_faults(self):
        app = FaultyExecutable(
            make_app(), FaultPlan(transient_rate=1.0, activate_after=3)
        )
        for _ in range(3):
            app.run(_StubDatabase())  # no faults yet
        with pytest.raises(TransientExecutableError):
            app.run(_StubDatabase())

    def test_crash_at_fires_exactly_once_and_is_not_repro_error(self):
        app = FaultyExecutable(make_app(), FaultPlan(crash_at=2))
        app.run(_StubDatabase())
        with pytest.raises(InjectedCrashError) as exc:
            app.run(_StubDatabase())
        from repro.errors import ReproError

        assert not isinstance(exc.value, ReproError)
        app.run(_StubDatabase())  # invocation 3: no further crash


class TestRetryPolicy:
    def test_classification_over_error_hierarchy(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientExecutableError("x"))
        assert not policy.is_retryable(ExecutableTimeoutError("x"))
        assert not policy.is_retryable(UndefinedTableError("t"))
        assert not policy.is_retryable(DatabaseError("x"))
        assert not policy.is_retryable(RuntimeError("x"))

    def test_timeouts_retryable_only_when_opted_in(self):
        policy = RetryPolicy(retry_timeouts=True)
        assert policy.is_retryable(ExecutableTimeoutError("x"))
        assert not policy.is_retryable(UndefinedTableError("t"))

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(10) == pytest.approx(0.5)

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=3)
        for attempt in range(1, 6):
            delay = policy.backoff(attempt)
            nominal = min(0.1 * 2.0 ** (attempt - 1), policy.max_delay)
            assert nominal * 0.5 <= delay <= nominal * 1.5

    def test_jitter_is_seeded(self):
        a = [RetryPolicy(seed=5).backoff(1) for _ in range(1)]
        b = [RetryPolicy(seed=5).backoff(1) for _ in range(1)]
        assert a == b

    def test_call_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientExecutableError("boom")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3

    def test_call_exhausts_attempts(self):
        def always_fails():
            raise TransientExecutableError("boom")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(TransientExecutableError):
            policy.call(always_fails)

    def test_call_does_not_retry_fatal(self):
        attempts = []

        def fatal():
            attempts.append(1)
            raise UndefinedTableError("t")

        with pytest.raises(UndefinedTableError):
            RetryPolicy(max_attempts=5, base_delay=0.0).call(fatal)
        assert len(attempts) == 1

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


def _sample_query() -> ExtractedQuery:
    orders_date = ColumnNode("orders", "o_orderdate")
    orders_key = ColumnNode("orders", "o_orderkey")
    line_key = ColumnNode("lineitem", "l_orderkey")
    price = ColumnNode("lineitem", "l_extendedprice")
    flag = ColumnNode("lineitem", "l_returnflag")
    return ExtractedQuery(
        tables=["lineitem", "orders"],
        join_cliques=[JoinClique(columns=frozenset((orders_key, line_key)))],
        filters=[
            NumericFilter(
                column=orders_date,
                lo=datetime.date(1995, 1, 1),
                hi=datetime.date(1995, 12, 31),
                domain_lo=datetime.date(1970, 1, 1),
                domain_hi=datetime.date(2050, 12, 31),
            ),
            TextFilter(column=flag, pattern="A%"),
            InListFilter(column=ColumnNode("orders", "o_orderstatus"), values=("F", "O")),
            MultiRangeFilter(
                column=price,
                intervals=((1.0, 10.0), (20.0, 30.0)),
                domain_lo=0.0,
                domain_hi=100.0,
            ),
            NullFilter(column=ColumnNode("orders", "o_comment"), negated=True),
        ],
        outputs=[
            OutputColumn(
                name="total",
                position=0,
                function=ScalarFunction(
                    deps=(price,), coefficients=(((), 1), ((0,), 2.5))
                ),
                aggregate="sum",
            ),
            OutputColumn(name="n", position=1, function=None, count_star=True),
            OutputColumn(
                name="o_orderdate",
                position=2,
                function=ScalarFunction.identity(orders_date),
            ),
        ],
        group_by=[orders_date],
        order_by=[OrderSpec(output_name="total", descending=True)],
        limit=10,
        having=[
            HavingPredicate(
                aggregate="count",
                column=None,
                lo=3,
                hi=None,
                domain_lo=0,
                domain_hi=10**9,
            )
        ],
        ungrouped_aggregation=False,
    )


class TestSerde:
    def test_query_round_trip(self):
        query = _sample_query()
        payload = serde.encode_query(query)
        import json

        restored = serde.decode_query(json.loads(json.dumps(payload)))
        assert restored == query
        assert restored.sql == query.sql

    def test_value_round_trip(self):
        import json

        values = [1, 2.5, "text", None, True, datetime.date(1998, 9, 2), float("inf")]
        encoded = json.loads(json.dumps([serde.encode_value(v) for v in values]))
        assert [serde.decode_value(v) for v in encoded] == values

    def test_result_round_trip(self):
        result = Result(["a", "b"], [(1, datetime.date(2001, 2, 3)), (None, "x")])
        restored = serde.decode_result(serde.encode_result(result))
        assert restored.columns == result.columns
        assert restored.rows == result.rows
        assert serde.encode_result(None) is None
        assert serde.decode_result(None) is None

    def test_rng_state_round_trip(self):
        import json

        rng = random.Random(1234)
        rng.random()
        state = serde.encode_rng_state(rng.getstate())
        twin = random.Random()
        twin.setstate(serde.decode_rng_state(json.loads(json.dumps(state))))
        assert [rng.random() for _ in range(5)] == [twin.random() for _ in range(5)]

    def test_unknown_tagged_value_rejected(self):
        with pytest.raises(CheckpointError):
            serde.decode_value({"$mystery": 1})

    def test_unserialisable_value_rejected(self):
        with pytest.raises(CheckpointError):
            serde.encode_value(object())


class TestCheckpointStore:
    def test_missing_checkpoint_loads_none(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load() is None
        assert not store.exists()

    def test_save_load_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = {
            "version": CHECKPOINT_VERSION,
            "completed": ["setup"],
            "fingerprint": {"seed": 1},
        }
        store.save(state)
        assert store.exists()
        # the on-disk envelope carries a checksum; load() verifies + strips it
        assert store.load() == state
        assert not list(tmp_path.glob("*.tmp"))  # atomic write left no temp file
        store.clear()
        assert store.load() is None
        store.clear()  # idempotent

    def test_corrupt_checkpoint_quarantined_and_restarts_fresh(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path.write_text("{not json", encoding="utf-8")
        assert store.load() is None  # corrupt -> start over, never resume junk
        assert not store.path.exists()
        assert store.quarantined is not None and store.quarantined.exists()

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"version": CHECKPOINT_VERSION, "completed": []})
        raw = store.path.read_text(encoding="utf-8")
        store.path.write_text(raw.replace('"completed": []', '"completed": ["x"]'),
                              encoding="utf-8")
        assert store.load() is None
        assert store.quarantined is not None and store.quarantined.exists()

    def test_version_mismatch_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save({"version": 999})
        with pytest.raises(CheckpointError):
            store.load()
