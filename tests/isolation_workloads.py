"""Hostile executables for the isolation test suite.

These live in an importable module (not a test file) because isolation
workers reconstruct executables by reference: pickle records
``module.QualName``, and the worker process must be able to import it.
Every class here is a black box that misbehaves in a specific,
classifiable way.  :func:`invoke_on_both_slots` drives a two-slot pool
from two concurrent callers, for the pool tests of both handle kinds.
"""

from __future__ import annotations

import os
import threading
import time

from repro.apps.executable import Executable
from repro.engine.result import Result


class EchoNation(Executable):
    """A well-behaved baseline: selects everything from ``nation``."""

    name = "echo-nation"

    def _execute(self, db, timeout):
        return db.execute("select n_nationkey, n_name from nation")


class BusyLooper(Executable):
    """Ignores the cooperative deadline entirely — a true hang."""

    name = "busy-looper"

    def __init__(self, seconds: float = 60.0):
        super().__init__()
        self.seconds = seconds

    def _execute(self, db, timeout):
        end = time.perf_counter() + self.seconds
        while time.perf_counter() < end:
            pass
        return Result.empty()


class Aborter(Executable):
    """Takes its hosting process down with SIGABRT on every run."""

    name = "aborter"

    def _execute(self, db, timeout):
        os.abort()


class AbortOnce(Executable):
    """Aborts on the first invocation only; clean afterwards.

    Keyed on the supervisor's shipped ordinal, not the local
    ``invocation_count`` — a respawned worker unpickles a fresh copy whose
    count restarts, and would otherwise re-abort forever.
    """

    name = "abort-once"

    def _execute(self, db, timeout):
        if getattr(self, "invocation_ordinal", self.invocation_count) <= 1:
            os.abort()
        return db.execute("select n_nationkey from nation")


class MemoryHog(Executable):
    """Allocates without bound until the worker's RLIMIT_AS stops it."""

    name = "memory-hog"

    def _execute(self, db, timeout):
        hoard = []
        while True:
            hoard.append(bytearray(16 * 1024 * 1024))


class TablePrinter(Executable):
    """Writes garbage to stdout before answering — a frame-corruption probe."""

    name = "table-printer"

    def _execute(self, db, timeout):
        print("application chatter" * 100)
        return db.execute("select n_nationkey from nation")


class RowCounter(Executable):
    """Returns the live row count of ``nation`` — state-sync oracle."""

    name = "row-counter"

    def _execute(self, db, timeout):
        return Result(["count"], [(db.row_count("nation"),)])


class ThreadLeaver(Executable):
    """Answers like :class:`RowCounter` but leaves a thread running behind."""

    name = "thread-leaver"

    def _execute(self, db, timeout):
        threading.Thread(target=time.sleep, args=(3600,), daemon=True).start()
        return Result(["count"], [(db.row_count("nation"),)])


class PaddedCounter(RowCounter):
    """A :class:`RowCounter` whose pickle outgrows a pipe buffer."""

    name = "padded-counter"

    def __init__(self, padding_bytes: int = 1 << 20):
        super().__init__()
        self.padding = b"x" * padding_bytes


def _refuse_rebuild(name: str):
    raise RuntimeError(f"{name} cannot be rebuilt in a worker")


class UnpickleFails(Executable):
    """Pickles in the supervisor, refuses to unpickle in the worker.

    Its ``init`` handshake always fails — a probe for how the pool reports
    a worker that never becomes ready.
    """

    name = "unpickle-fails"

    def __reduce__(self):
        return (_refuse_rebuild, (self.name,))

    def _execute(self, db, timeout):
        return Result.empty()


def invoke_on_both_slots(pool, db, timeout=None) -> list:
    """Two concurrent invocations on a two-slot pool, one on each slot.

    Slots are leased last in, first out, so serial invocations all take the
    same slot; two callers reach both only while each holds its own.  Each
    caller waits for the other as its handle is made ready, so both leases
    are held at once.  Returns each caller's reply or raised error.
    """
    rendezvous = threading.Barrier(2, timeout=30)
    ready = pool.factory.ready

    def ready_together(handle):
        rendezvous.wait()
        return ready(handle)

    outcomes = []

    def caller():
        try:
            outcomes.append(pool.invoke(db, timeout))
        except Exception as error:  # noqa: BLE001 - returned to the test
            outcomes.append(error)

    pool.factory.ready = ready_together
    try:
        callers = [threading.Thread(target=caller) for _ in range(2)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        del pool.factory.ready
    assert not any(thread.is_alive() for thread in callers)
    return outcomes
