"""Exception hierarchy shared across the repro package.

The engine raises :class:`DatabaseError` subclasses; the extraction pipeline
relies on a few of them as *signals* (most importantly
:class:`UndefinedTableError`, which drives From-clause identification), so they
live in a dependency-free module importable from anywhere.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DatabaseError(ReproError):
    """Base class for errors raised by the SQL engine."""


class ParseError(DatabaseError):
    """The SQL text could not be tokenized or parsed."""


class CatalogError(DatabaseError):
    """A DDL operation conflicts with the current catalog state."""


class UndefinedTableError(CatalogError):
    """A statement referenced a table that does not exist.

    This is the error the From-clause extractor provokes by renaming tables:
    if the hidden query references the renamed table, the engine raises this
    immediately, exposing the table's membership in the query.
    """

    def __init__(self, table_name: str):
        super().__init__(f'relation "{table_name}" does not exist')
        self.table_name = table_name

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``args`` (the
        # formatted message), which would corrupt ``table_name`` — and the
        # pipeline reads these errors *semantically* when they cross the
        # worker IPC boundary.
        return (type(self), (self.table_name,))


class UndefinedColumnError(DatabaseError):
    """A statement referenced a column that does not exist."""

    def __init__(self, column_name: str, context: str = ""):
        suffix = f" in {context}" if context else ""
        super().__init__(f'column "{column_name}" does not exist{suffix}')
        self.column_name = column_name
        self.context = context

    def __reduce__(self):
        return (type(self), (self.column_name, self.context))


class AmbiguousColumnError(DatabaseError):
    """An unqualified column reference matched more than one table."""

    def __init__(self, column_name: str):
        super().__init__(f'column reference "{column_name}" is ambiguous')
        self.column_name = column_name

    def __reduce__(self):
        return (type(self), (self.column_name,))


class TypeMismatchError(DatabaseError):
    """A value or expression is incompatible with the expected SQL type."""


class ExecutionError(DatabaseError):
    """A runtime failure while executing a query (e.g. division by zero)."""


class ExecutableTimeoutError(ReproError):
    """The black-box application exceeded its execution timeout."""


class TransientExecutableError(ReproError):
    """A transient infrastructure failure while invoking the application.

    Connection resets, worker restarts, injected chaos faults — anything
    where re-running the identical invocation is expected to succeed.  The
    retry layer treats this class (and, optionally, timeouts) as retryable;
    every :class:`DatabaseError` stays fatal because the pipeline reads those
    as *signals* (e.g. :class:`UndefinedTableError` during From-clause
    identification).
    """


class WorkerCrashedError(TransientExecutableError):
    """An isolated worker process died abnormally during an invocation.

    ``kind`` classifies the exit: ``"segfault"`` (SIGSEGV/SIGBUS),
    ``"abort"`` (SIGABRT, e.g. ``os.abort()``), ``"oom"`` (the worker hit its
    ``RLIMIT_AS`` memory cap, or the kernel OOM-killer SIGKILLed it),
    ``"killed"`` (SIGKILL from outside), or ``"exit-N"`` (died with exit
    status N before replying).  As a :class:`TransientExecutableError` it is
    always retryable — the supervisor respawns the worker and the retry layer
    re-runs the invocation on a clean process.
    """

    def __init__(self, kind: str, detail: str, ordinal: int | None = None):
        where = f" (invocation {ordinal})" if ordinal is not None else ""
        super().__init__(f"worker crashed [{kind}]{where}: {detail}")
        self.kind = kind
        self.detail = detail
        self.ordinal = ordinal

    def __reduce__(self):
        return (type(self), (self.kind, self.detail, self.ordinal))


class WorkerQuarantined(ReproError):
    """The supervisor refuses to keep running an executable.

    Raised after K consecutive abnormal worker exits (the executable crashes
    the worker deterministically) or when the respawn budget is spent.  It is
    deliberately *not* transient: retrying would respawn-crash in a loop.
    The pipeline converts it into a structured ``quarantined`` verdict under
    best-effort, mirroring :class:`BudgetExhausted`.
    """

    def __init__(self, reason: str, crashes: int, respawns: int):
        super().__init__(
            f"executable quarantined: {reason} "
            f"({crashes} consecutive abnormal exits, {respawns} respawns)"
        )
        self.reason = reason
        self.crashes = crashes
        self.respawns = respawns

    def __reduce__(self):
        return (type(self), (self.reason, self.crashes, self.respawns))


class PeerUnavailable(TransientExecutableError):
    """A remote worker peer could not serve an invocation right now.

    Read deadlines expiring on a run reply (partition / straggler), a torn
    or corrupt frame, or a refused reconnect all land here.  Transient by
    design: the supervisor has already fenced the outstanding lease (late
    replies from this attempt can never fold side effects), so the retry
    layer may requeue the identical invocation — on a reconnected transport
    or a different peer — without risking double accounting.
    """

    def __init__(self, address: str, detail: str, ordinal: int | None = None):
        where = f" (invocation {ordinal})" if ordinal is not None else ""
        super().__init__(f"peer {address} unavailable{where}: {detail}")
        self.address = address
        self.detail = detail
        self.ordinal = ordinal

    def __reduce__(self):
        return (type(self), (self.address, self.detail, self.ordinal))


class PeerQuarantined(WorkerQuarantined):
    """Every configured remote peer is quarantined or unreachable.

    The transport-level analogue of :class:`WorkerQuarantined`: reconnect
    budgets are spent on all peers (or each peer crashed workers past its
    threshold), so retrying cannot help.  Subclassing keeps the pipeline's
    best-effort contract intact — the run degrades to a structured
    ``quarantined`` verdict instead of dying mid-extraction.
    """

    def __init__(self, reason: str, crashes: int, respawns: int,
                 peers: tuple = ()):
        super().__init__(reason, crashes, respawns)
        self.peers = tuple(peers)

    def __reduce__(self):
        return (type(self), (self.reason, self.crashes, self.respawns,
                             self.peers))


class CheckpointError(ReproError):
    """A pipeline checkpoint could not be read, or does not match this run."""


class EmptyInitialResult(ReproError):
    """The hidden query returns no rows on the initial instance ``D_I``.

    Extraction minimizes a populated result (paper §3), so the run is
    refused before it spends a probe; a larger scale or another seed
    usually populates it.
    """


class UnwritableOutput(OSError):
    """A requested trace or metrics file cannot be written.

    Raised before the extraction runs, not after it has spent its probes.
    """


class StorageExhausted(ReproError):
    """A durable store ran out of disk (ENOSPC/EDQUOT) or hit an I/O error.

    Raised by the journal, ledger, and checkpoint stores when the filesystem
    refuses a write.  It is a *structured degradation signal*, not a crash:
    the pipeline disables checkpointing and continues, and the service sheds
    the write with a ``storage_exhausted`` rejection instead of a stack
    trace.  Never retried — the disk does not un-fill itself mid-run.
    """

    def __init__(self, store: str, detail: str):
        super().__init__(f"storage exhausted in {store}: {detail}")
        self.store = store
        self.detail = detail

    def __reduce__(self):
        return (type(self), (self.store, self.detail))


class ExtractionPaused(ReproError):
    """The pipeline stopped cooperatively at a module boundary.

    Raised by the orchestrator's ``pause_check`` hook *after* the completed
    module's checkpoint has been saved, so the run on disk is immediately
    resumable.  This is the graceful-drain primitive of ``repro serve``: a
    draining service asks every in-flight job to pause at its next boundary,
    journals it as ``checkpointed``, and a later run (same checkpoint dir,
    same instance) picks up exactly where it stopped.
    """

    def __init__(self, module: str):
        super().__init__(
            f"extraction paused after module {module!r}; the checkpoint on "
            "disk resumes it"
        )
        self.module = module

    def __reduce__(self):
        return (type(self), (self.module,))


class BudgetExhausted(ReproError):
    """A resource budget was exhausted during extraction.

    Raised by the :class:`repro.resilience.budgets.ResourceBudget` watchdog
    when a per-module or per-run limit (invocations, rows scanned, cells
    materialized, wall-clock) is hit.  As a :class:`ReproError` that is *not*
    :class:`TransientExecutableError`, it is never retried; the pipeline
    converts it into a best-effort degradation (or fails fast when
    configured to).
    """

    def __init__(self, resource: str, limit, used, module: str | None = None):
        scope = f" in module {module!r}" if module else ""
        super().__init__(
            f"budget exhausted{scope}: {resource} used {used} of limit {limit}"
        )
        self.resource = resource
        self.limit = limit
        self.used = used
        self.module = module

    def __reduce__(self):
        return (type(self), (self.resource, self.limit, self.used, self.module))


class ExtractionError(ReproError):
    """The extraction pipeline could not complete or verify an extraction.

    ``module`` names the pipeline module that failed, when known (attached by
    the session when an unexpected engine error escapes a module boundary).
    """

    def __init__(self, message: str, module: str | None = None):
        super().__init__(message)
        self.module = module

    def __reduce__(self):
        return (type(self), (self.args[0], self.module))


class UnsupportedQueryError(ExtractionError):
    """The hidden query fell outside the Extractable Query Class (EQC)."""
