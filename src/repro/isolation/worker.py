"""Worker process entry point: ``python -m repro.isolation.worker``.

One worker owns one resident :class:`~repro.engine.database.Database` replica
and one reconstructed executable.  With each run request the supervisor
ships the tables whose state changed since its last acknowledged frame; the
worker reconciles its replica (:class:`Replica`), runs the executable inside
a ``db.sandbox()`` (so application DML rolls back and the replica stays
exactly "the shipped state"), and replies with the result or the raised
exception.

Row lists and schemas are held under the references the supervisor's
:class:`~repro.isolation.supervisor.ShipLedger` assigns, so a frame names
what the worker already holds: a rename or a restore points a table at a
held list, and a halving ships the ``[start:stop]`` bounds of a held list.
A held list becomes a table's rows as is, shared copy-on-write, so nothing
is copied or coerced: the rows were read out of the supervisor's own tables,
whose schema travels with them, so they are already in storage form.  The
worker trusts them exactly as far as it trusts the frame that carries them —
it unpickles that frame anyway, and over TCP only after its HMAC checks out.
A frame naming a reference the worker does not hold means the two sides
disagree about the replica: the worker exits with
:data:`~repro.isolation.protocol.EXIT_PROTOCOL` instead of replying, and the
supervisor's crash path respawns it and ships the replica in full.

Hostile-application containment is split between the two processes:

* the *worker* applies ``RLIMIT_AS`` before touching any request, so a
  memory-hogging application hits ``MemoryError`` — at which point the
  interpreter's own allocations can no longer be trusted, and the worker
  exits immediately with :data:`~repro.isolation.protocol.EXIT_MEMORY`
  rather than risking a half-written reply frame;
* the *supervisor* owns the wall clock: a busy-looping application never
  reaches this module's reply path, and is SIGKILLed from outside.

Anything the application prints must not corrupt the frame stream, so the
protocol runs on a private dup of stdout and fd 1 is pointed at stderr
before the first request is read.

A worker imports only what it needs to serve frames — the engine and the
protocol — and whatever its ``init`` frame's executable pulls in as it is
unpickled (``repro.apps.*``, ``repro.resilience.faults`` for a chaos
wrapper).  It never loads the extraction pipeline (``repro.core``), so its
interpreter boots in a fraction of the supervisor's import time; the package
inits it passes through (``repro.isolation``, ``repro.obs``,
``repro.resilience``) resolve their exports lazily to keep it that way.
``tests/test_isolation.py`` pins this import closure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from typing import Optional

from repro.engine.database import Database
from repro.engine.storage import FrozenRows
from repro.isolation.protocol import (
    EXIT_MEMORY,
    EXIT_PROTOCOL,
    read_frame,
    write_frame,
)


class _RowsTally:
    """Budget-shaped accumulator for the engine's rows-scanned charges.

    The worker's replica has no :class:`~repro.resilience.budgets.ResourceBudget`
    — limits are enforced supervisor-side where usage is counted once — but
    attaching this tally lets the engine's existing charge hook report how
    many rows each invocation scanned, so the supervisor can charge its own
    budget after the fact.
    """

    __slots__ = ("rows_scanned",)

    def __init__(self):
        self.rows_scanned = 0

    def charge_rows_scanned(self, count: int) -> None:
        self.rows_scanned += count

    def check_wall_clock(self) -> None:  # polled by Database.check_deadline
        pass


def _apply_memory_limit(limit_bytes: int) -> None:
    """Cap the worker's address space (the portable RSS-cap stand-in).

    ``RLIMIT_RSS`` is a no-op on modern Linux, so the enforceable knob is
    ``RLIMIT_AS``: allocations past the cap fail, which Python surfaces as
    :class:`MemoryError`.
    """
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))


def _maxrss_bytes() -> int:
    """Peak RSS of this worker so far (``ru_maxrss`` is KiB on Linux)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


class Desync(Exception):
    """A frame named a reference this worker does not hold."""


class Replica:
    """The resident database and the objects held under the supervisor's
    references."""

    def __init__(self):
        self.db = Database()
        #: reference → held row list (a FrozenRows) or TableSchema
        self.held: dict = {}

    def reconcile(self, message: dict) -> None:
        """Apply a ``run`` frame's shipping fields to the replica.

        A table existing already is found with one catalog lookup, so a
        full ship costs O(tables).  Releases come last: a frame may slice a
        list it also releases.
        """
        if message["reset"]:
            self.db = Database()
            self.held = {}
        db, held = self.db, self.held
        held.update(message["schemas"])
        for ref, rows in message["rows"].items():
            if type(rows) is tuple:
                source, start, stop = rows
                rows = itertools.islice(self._held(source), start, stop)
            held[ref] = FrozenRows(rows)
        for name in message["dropped"]:
            db.drop_table(name)
        for name, (schema_ref, rows_ref) in message["tables"].items():
            schema = self._held(schema_ref)
            if name in db.catalog:
                if db.schema(name) != schema:
                    db.drop_table(name)
                    db.create_table(schema)
            else:
                db.create_table(schema)
            db.table(name).adopt_rows(self._held(rows_ref))
        for ref in message["release"]:
            if held.pop(ref, None) is None:
                raise Desync(f"release of reference {ref}, which is not held")

    def _held(self, ref: int):
        try:
            return self.held[ref]
        except KeyError:
            raise Desync(f"frame names reference {ref}, which is not held") from None


def _run_once(replica: Replica, executable, message: dict) -> dict:
    replica.reconcile(message)
    db = replica.db
    timeout: Optional[float] = message["timeout"]
    tally = _RowsTally()
    db.budget = tally
    # The supervisor's global invocation ordinal: fault injectors key their
    # per-invocation draws on it so a respawned worker does not replay the
    # fault sequence from scratch (see FaultPlan.draw_hard).
    executable.invocation_ordinal = message["ordinal"]
    started = time.perf_counter()
    if timeout is not None:
        db.deadline = started + timeout
    result = None
    error: Optional[BaseException] = None
    try:
        with db.sandbox():
            result = executable.run(db, timeout=timeout)
    except MemoryError:
        # The cap was hit: the replica (and even this frame's buffers) may be
        # partially constructed.  Die loudly; the supervisor classifies the
        # exit status and respawns.
        os._exit(EXIT_MEMORY)
    except BaseException as raised:  # noqa: BLE001 - errors are payload here
        error = raised
    finally:
        db.deadline = None
        db.budget = None
    stats = {
        "duration": time.perf_counter() - started,
        "maxrss_bytes": _maxrss_bytes(),
        "rows_scanned": tally.rows_scanned,
        "invocation_count": executable.invocation_count,
    }
    injected = getattr(executable, "injected", None)
    if isinstance(injected, dict):
        stats["injected"] = dict(injected)
    if error is not None:
        return {"ok": False, "error": _portable_error(error), "stats": stats}
    return {"ok": True, "result": result, "stats": stats}


def _portable_error(error: BaseException) -> BaseException:
    """The error itself when picklable, else a same-severity stand-in."""
    import pickle

    try:
        pickle.dumps(error)
        return error
    except Exception:
        return RuntimeError(
            f"worker-side error (unpicklable): {type(error).__name__}: {error}"
        )


def _serve(inp, out) -> int:
    replica = Replica()
    executable = None
    while True:
        try:
            message = read_frame(inp)
        except EOFError:
            return 0  # supervisor went away; pipes are our lifeline
        cmd = message.get("cmd")
        if cmd == "init":
            import pickle

            replica = Replica()  # the supervisor ships the next silo in full
            try:
                executable = pickle.loads(message["executable"])
                write_frame(out, {"ok": True, "pid": os.getpid()})
            except Exception as error:  # unpicklable spec → structured reply
                write_frame(out, {"ok": False, "error": _portable_error(error)})
        elif cmd == "run":
            if executable is None:
                write_frame(
                    out,
                    {"ok": False, "error": RuntimeError("run before init")},
                )
                continue
            write_frame(out, _run_once(replica, executable, message))
        elif cmd == "park":
            # idle until the next init: keep no extraction's state meanwhile
            replica = Replica()
            executable = None
        elif cmd == "shutdown":
            write_frame(out, {"ok": True})
            return 0
        else:
            write_frame(
                out, {"ok": False, "error": RuntimeError(f"unknown cmd {cmd!r}")}
            )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-worker")
    parser.add_argument("--memory-limit-bytes", type=int, default=None)
    args = parser.parse_args(argv)
    if args.memory_limit_bytes:
        _apply_memory_limit(args.memory_limit_bytes)
    # Reserve the real stdout for frames; reroute fd 1 to stderr so an
    # application's print() cannot corrupt the protocol stream.
    protocol_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    inp = sys.stdin.buffer
    out = os.fdopen(protocol_fd, "wb")
    try:
        return _serve(inp, out)
    except MemoryError:
        os._exit(EXIT_MEMORY)
    except (BrokenPipeError, KeyboardInterrupt):
        return 0
    except Desync as error:
        # exit at once: a slow interpreter shutdown would race the
        # supervisor's kill and be classified as a SIGKILL
        sys.stderr.write(f"worker: {error}; exiting for a respawn\n")
        sys.stderr.flush()
        os._exit(EXIT_PROTOCOL)
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_PROTOCOL


if __name__ == "__main__":
    raise SystemExit(main())
