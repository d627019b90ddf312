"""Black-box application executables.

An :class:`Executable` is the ``E`` of the paper: something that can be *run*
against a database and yields a result (or an error, or a timeout).  The
extraction pipeline never looks inside — it only invokes :meth:`run` and
inspects the returned :class:`~repro.engine.result.Result`.

Two concrete flavours are provided here:

* :class:`SQLExecutable` — a hidden SQL query, optionally stored obfuscated
  (the "encrypted stored procedure" scenario);
* :class:`repro.apps.imperative.ImperativeExecutable` — opaque imperative
  code (the Enki/Wilos/RUBiS scenario).

Both honour an execution *timeout budget*: the From-clause extractor runs the
application against a mutated schema and terminates the execution after a
short period if no error surfaces (paper §4.1).  Our in-process stand-in for
wall-clock termination is a deterministic work-unit budget — the engine either
raises :class:`UndefinedTableError` immediately (table referenced) or the run
completes/times out (table not referenced), which is the exact observable
dichotomy the algorithm needs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Optional

from repro.apps.obfuscation import deobfuscate, obfuscate
from repro.engine.database import Database
from repro.engine.result import Result
from repro.obs.trace import NULL_TRACER


class InvocationMemo:
    """Memoizes invocation results keyed by database state.

    The key is ``(content fingerprint, timeout)``: a *pure* executable (see
    :attr:`Executable.cacheable`) run twice against byte-identical database
    states must produce the same result, so the second run can skip execution
    entirely — the big wins are repeated baseline probes against the resident
    D¹ state, sentinel re-probes, retry replays after transient faults, and
    checkpoint resume.  Only **successful** results are stored: errors and
    timeouts are semantic signals (a From-clause timeout means "table not
    referenced") whose replay must stay live.

    Memoization elides the *physical* execution only.  Logical accounting —
    invocation counts, budget charges, spans, metrics — still happens on a
    hit, so ``stats.invocations`` is independent of cache temperature.

    A key costs O(rows of the tables whose row list is new since it was
    last fingerprinted): per-table row digests are memoized on the frozen
    (copy-on-write) row lists, so tables a probe left alone are not hashed
    again.  ``max_rows`` still bounds the memo to small states — larger ones
    bypass it (probe states are tiny; the original instance is not).
    ``key_seconds`` is the keying time summed over all threads, the memo's
    cost next to its ``hits``.  Thread-safe for the probe scheduler.
    """

    __slots__ = (
        "capacity",
        "max_rows",
        "_entries",
        "_lock",
        "hits",
        "misses",
        "bypasses",
        "key_seconds",
    )

    #: default ``max_rows``; the scheduler's evidence fingerprints share it
    MAX_ROWS = 4096

    def __init__(self, capacity: int = 512, max_rows: int = MAX_ROWS):
        self.capacity = capacity
        self.max_rows = max_rows
        self._entries: OrderedDict[tuple, Result] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.key_seconds = 0.0

    def key_for(self, db: Database, timeout: Optional[float]):
        """The memo key for ``db``'s current state, or None to bypass."""
        started = time.perf_counter()
        bypass = db.total_rows() > self.max_rows
        key = None if bypass else (db.fingerprint(), timeout)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.key_seconds += elapsed
            if bypass:
                self.bypasses += 1
        return key

    def run(self, db: Database, timeout: Optional[float], execute, span=None):
        """``execute()`` unless ``db``'s state has a memoized result.

        ``execute`` returns the result to memoize, or None for a failure the
        caller reports another way (which is then returned as is).  The run's cache/fingerprint facts are left on
        ``db.last_invocation`` (private to the invoking thread: the silo
        sequentially, a replica per scheduler task), where the session's
        evidence recorder reads them without recomputing the fingerprint.
        """
        key = self.key_for(db, timeout)
        db.last_invocation = {
            "cached": False,
            "fingerprint": key[0] if key is not None else "",
        }
        if key is None:
            return execute()
        cached = self.lookup(key)
        if span is not None:
            span.set_tag("invocation_cache", "miss" if cached is None else "hit")
        if cached is not None:
            db.last_invocation["cached"] = True
            return cached
        result = execute()
        if result is not None:
            self.store(key, result)
        return result

    def lookup(self, key) -> Optional[Result]:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def store(self, key, result: Result) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "bypasses": self.bypasses,
                "entries": len(self._entries),
                "hit_rate": (self.hits / total) if total else 0.0,
                "key_seconds": self.key_seconds,
            }


class Executable:
    """Base class for opaque applications."""

    #: human-readable label for reports
    name: str = "app"

    #: True when :meth:`run` is a pure function of the database state —
    #: deterministic, read-only, no out-of-band effects — making its results
    #: safe to memoize by content fingerprint.  Conservative default: only
    #: :class:`SQLExecutable` (a single SELECT) opts in; imperative and
    #: fault-injecting flavours stay uncached.
    cacheable: bool = False

    def __init__(self):
        self.invocation_count = 0
        self.total_runtime = 0.0
        #: optional :class:`InvocationMemo`, attached by the session when
        #: invocation caching is configured and the flavour is cacheable.
        self.memo: Optional[InvocationMemo] = None
        #: guards the counters above: scheduler worker threads run the
        #: executable concurrently.
        self._counter_lock = threading.Lock()

    def run(self, db: Database, timeout: Optional[float] = None) -> Result:
        """Execute the hidden logic against ``db`` and return its result.

        When ``timeout`` is given and nobody has armed the engine's
        cooperative deadline yet, this arms it — so a bare
        ``executable.run(db, timeout=...)`` call honours the timeout for
        *every* executable flavour, not just callers that pre-set
        ``db.deadline`` themselves.

        The run is one logical invocation, accounted by :meth:`_invocation`
        (counted even when the application raises); engine queries issued by
        the hidden logic nest beneath its ``invocation`` span.

        When an :class:`InvocationMemo` is attached, the physical execution
        is skipped on a state match — everything else about the invocation
        (counting, span, metrics) happens as usual.
        """
        owns_deadline = (
            timeout is not None and getattr(db, "deadline", None) is None
        )

        def execute():
            return self._execute(db, timeout)

        if owns_deadline:
            db.deadline = time.perf_counter() + timeout
        try:
            with self._invocation(db) as span:
                return self.run_memoized(db, timeout, execute, span)
        finally:
            if owns_deadline:
                db.deadline = None

    @contextmanager
    def _invocation(self, db: Database, kind: str = "invocation"):
        """One live logical invocation against ``db``: yields its span.

        The span (``kind`` is ``worker`` for an isolated invocation) is
        opened on ``db``'s tracer and tagged with the executable and the
        state size; a failure tags it with the error.  The counters are
        charged by :meth:`_tally` when the block exits, whether or not it
        raised.  :meth:`run` and the isolation backend's ``invoke`` come
        through here; a consumed speculative probe is charged after the fact
        by :meth:`charge_logical`.
        """
        tracer = getattr(db, "tracer", NULL_TRACER)
        started = time.perf_counter()
        try:
            with tracer.span(self.name, kind=kind) as span:
                if tracer.enabled:
                    span.set_tags(executable=self.name, db_rows=db.total_rows())
                yield span
        finally:
            self._tally(tracer.metrics, time.perf_counter() - started)

    def charge_logical(
        self,
        tracer,
        started: float,
        ended: float,
        tags: Optional[dict] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Account one logical invocation whose physical execution happened
        elsewhere (a consumed speculative probe, run from ``started`` to
        ``ended``): the same counters as :meth:`_invocation` and a recorded
        ``invocation`` span carrying ``tags``, tagged with ``error`` when
        the probe failed.  Keeps every invocation counter equal to the
        serial schedule's."""
        if tracer.enabled:
            tags = {"executable": self.name, **(tags or {})}
            if error is not None:
                tags["error"] = type(error).__name__
            tracer.record(
                self.name, kind="invocation", start=started, end=ended, tags=tags
            )
        self._tally(tracer.metrics, ended - started)

    def _tally(self, metrics, elapsed: float) -> None:
        """The counters of one logical invocation; nothing else moves them."""
        with self._counter_lock:
            self.invocation_count += 1
            self.total_runtime += elapsed
        if metrics is not None:
            metrics.counter("invocations_total").inc()
            metrics.histogram("invocation_latency_seconds").observe(elapsed)

    def run_memoized(self, db, timeout, execute, span=None):
        """``execute()`` through the attached memo (see
        :meth:`InvocationMemo.run`); the in-process and the isolated
        invocation paths both come through here.  Without a memo, or for a
        flavour that is not :attr:`cacheable`, it just records an uncached
        ``db.last_invocation``."""
        memo = self.memo if self.cacheable else None
        if memo is not None:
            return memo.run(db, timeout, execute, span)
        db.last_invocation = {"cached": False, "fingerprint": ""}
        return execute()

    def probe(self, db: Database) -> Result:
        """Execute with **no accounting whatsoever** — no invocation count,
        span, metric, or memo traffic.

        This is the probe scheduler's speculation primitive: speculative
        executions may be discarded, so they must be invisible to every
        logical counter; the scheduler charges consumed probes through
        :meth:`charge_logical`.
        """
        return self._execute(db, None)

    def _execute(self, db: Database, timeout: Optional[float]) -> Result:
        raise NotImplementedError

    def __getstate__(self):
        # Locks are unpicklable and the memo is supervisor-side state — both
        # are rebuilt/cleared on an isolation worker.
        state = self.__dict__.copy()
        state["memo"] = None
        state.pop("_counter_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._counter_lock = threading.Lock()

    def reset_counters(self) -> None:
        self.invocation_count = 0
        self.total_runtime = 0.0


class SQLExecutable(Executable):
    """An application concealing a single SQL query.

    With ``obfuscate=True`` the query text is stored only as an opaque blob
    (see :mod:`repro.apps.obfuscation`); the plaintext is reconstructed
    transiently inside :meth:`run`, mirroring encrypted stored procedures
    whose plans and logs are blocked from inspection.
    """

    #: a single SELECT: deterministic and read-only, so memoizable by state
    cacheable = True

    def __init__(self, sql: str, obfuscate_text: bool = True, name: str = "hidden-sql"):
        super().__init__()
        self.name = name
        self._obfuscated = obfuscate_text
        if obfuscate_text:
            self._blob = obfuscate(sql)
        else:
            self._blob = sql

    def _execute(self, db: Database, timeout: Optional[float]) -> Result:
        sql = deobfuscate(self._blob) if self._obfuscated else self._blob
        return db.execute(sql)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SQLExecutable {self.name} (obfuscated={self._obfuscated})>"


class CallableExecutable(Executable):
    """Wraps an arbitrary ``fn(db) -> Result`` callable as an executable.

    The ``timeout`` handed to :meth:`run` is honoured through the engine's
    cooperative deadline (armed by the base class): a callable that scans or
    queries through ``db`` is cut short mid-iteration exactly like a hidden
    SQL query, instead of the timeout being silently dropped.
    """

    def __init__(self, fn: Callable[[Database], Result], name: str = "callable-app"):
        super().__init__()
        self._fn = fn
        self.name = name

    def _execute(self, db: Database, timeout: Optional[float]) -> Result:
        return self._fn(db)

