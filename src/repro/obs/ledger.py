"""Durable run ledger: extraction provenance persisted to SQLite.

One ledger file (``--ledger PATH``) accumulates every extraction run made
against it — runs, per-module self-time, clause decisions with their
evidence chains, the raw evidence stream, and metrics snapshots — in plain
SQLite (stdlib ``sqlite3``, no dependency), so ``repro explain`` and
``repro trace-diff`` can inspect finished runs, CI can archive them as
artifacts, and future consumers (the ``repro serve`` status API, the
symbolic-verifier counterexample loop) get a queryable substrate.

Writes are incremental: the run row is committed at :meth:`RunLedger.begin_run`
with ``status='running'``, evidence batches are committed as the session
flushes them at module boundaries, and :meth:`RunLedger.finish_run` flips the
status — so a crashed or killed run keeps its partial history (its last
committed module tells you where it died), mirroring the checkpoint story.

Crash hardening: ``begin_run`` records the writer's pid, and opening a
ledger sweeps ``status='running'`` rows whose writer is no longer alive to
``status='aborted'`` — so a SIGKILLed run (or a torn final write) reads as a
structured abort instead of crashing ``repro explain --from-ledger`` or
masquerading as live work, while concurrent live writers (the ``repro
serve`` ledger is shared across worker threads and processes) are left
untouched.  Readers tolerate torn ``extras_json`` by degrading to ``{}``.

Storage hardening (DESIGN.md §5.17): a ledger file that fails ``PRAGMA
quick_check`` on open is quarantined aside (``<name>.corrupt-<k>``) and a
fresh ledger replaces it — provenance is an *audit trail*, so keeping the
damaged evidence beats refusing to serve; commits go through the
:mod:`~repro.resilience.diskfaults` seam and a full disk surfaces as
:class:`~repro.errors.StorageExhausted` after a rollback (the service
degrades to no-ledger operation rather than failing jobs).

Schema (``PRAGMA user_version = 2``; v1 ledgers are migrated in place by
adding the ``pid`` column)::

    runs     (run_id, started, finished, label, workload, query_name, jobs,
              status, verdict, sql, invocations, seconds, extras_json, pid)
    modules  (run_id, module, seconds, invocations)
    clauses  (run_id, clause, target, module, action, probes, first_seq,
              last_seq, cached, speculative, isolated, confidence)
    evidence (run_id, seq, ts, module, kind, clause, target, detail, rows,
              error, cached, speculative, isolated, db_fingerprint,
              evidence_json)
    metrics  (run_id, name, payload_json)
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import time
from pathlib import Path
from typing import Iterable, Optional

from repro.errors import ExtractionPaused, StorageExhausted
from repro.obs.provenance import (
    EvidenceEvent,
    clause_evidence,
    eqc_clause_confidence,
)
from repro.resilience.diskfaults import (
    REAL_FS,
    is_sqlite_storage_error,
    quarantine_path,
    sqlite_is_healthy,
)

logger = logging.getLogger("repro.obs.ledger")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    started     REAL NOT NULL,
    finished    REAL,
    label       TEXT NOT NULL DEFAULT '',
    workload    TEXT NOT NULL DEFAULT '',
    query_name  TEXT NOT NULL DEFAULT '',
    jobs        INTEGER NOT NULL DEFAULT 1,
    status      TEXT NOT NULL DEFAULT 'running',
    verdict     TEXT NOT NULL DEFAULT '',
    sql         TEXT NOT NULL DEFAULT '',
    invocations INTEGER NOT NULL DEFAULT 0,
    seconds     REAL NOT NULL DEFAULT 0.0,
    extras_json TEXT NOT NULL DEFAULT '{}',
    pid         INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS modules (
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    module      TEXT NOT NULL,
    seconds     REAL NOT NULL,
    invocations INTEGER NOT NULL,
    PRIMARY KEY (run_id, module)
);
CREATE TABLE IF NOT EXISTS clauses (
    run_id      INTEGER NOT NULL REFERENCES runs(run_id),
    clause      TEXT NOT NULL,
    target      TEXT NOT NULL,
    module      TEXT NOT NULL DEFAULT '',
    action      TEXT NOT NULL DEFAULT '',
    probes      INTEGER NOT NULL DEFAULT 0,
    first_seq   INTEGER,
    last_seq    INTEGER,
    cached      INTEGER NOT NULL DEFAULT 0,
    speculative INTEGER NOT NULL DEFAULT 0,
    isolated    INTEGER NOT NULL DEFAULT 0,
    confidence  REAL
);
CREATE TABLE IF NOT EXISTS evidence (
    run_id         INTEGER NOT NULL REFERENCES runs(run_id),
    seq            INTEGER NOT NULL,
    ts             REAL NOT NULL,
    module         TEXT NOT NULL,
    kind           TEXT NOT NULL,
    clause         TEXT NOT NULL DEFAULT '',
    target         TEXT NOT NULL DEFAULT '',
    detail         TEXT NOT NULL DEFAULT '',
    rows           INTEGER,
    error          TEXT NOT NULL DEFAULT '',
    cached         INTEGER NOT NULL DEFAULT 0,
    speculative    INTEGER NOT NULL DEFAULT 0,
    isolated       INTEGER NOT NULL DEFAULT 0,
    db_fingerprint TEXT NOT NULL DEFAULT '',
    evidence_json  TEXT NOT NULL DEFAULT '[]',
    PRIMARY KEY (run_id, seq)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id       INTEGER NOT NULL REFERENCES runs(run_id),
    name         TEXT NOT NULL,
    payload_json TEXT NOT NULL,
    PRIMARY KEY (run_id, name)
);
"""


class RunLedger:
    """Append-oriented SQLite store for extraction provenance."""

    def __init__(self, path: str, fs=None):
        self.path = str(path)
        self.fs = fs if fs is not None else REAL_FS
        #: where a corrupt ledger was moved, if quarantine ran on open
        self.quarantined: Optional[Path] = None
        if Path(self.path).exists() and not sqlite_is_healthy(self.path):
            self.quarantined = quarantine_path(self.path)
            logger.warning(
                "ledger %s failed quick_check; quarantined to %s and starting"
                " a fresh ledger", self.path, self.quarantined,
            )
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        # WAL + synchronous=NORMAL: committed batches survive a process
        # crash (the failure mode the chaos harness models) without paying
        # a full fsync per commit; both pragmas degrade gracefully on
        # filesystems that reject them.  busy_timeout covers concurrent
        # writers — `repro serve` opens one connection per job thread
        # against a shared ledger file.
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.execute("PRAGMA busy_timeout = 5000")
        self._conn.executescript(_SCHEMA)
        self._migrate()
        self._conn.execute("PRAGMA user_version = 2")
        self._conn.commit()  # schema setup commits outside the fault seam
        self.recover_stale_runs()

    def _migrate(self) -> None:
        """In-place v1 → v2: add the writer-pid column."""
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(runs)")
        }
        if "pid" not in columns:
            self._conn.execute(
                "ALTER TABLE runs ADD COLUMN pid INTEGER NOT NULL DEFAULT 0"
            )

    def recover_stale_runs(self) -> list[int]:
        """Mark ``running`` rows whose writer died as ``aborted``.

        A run row is stale when its recorded pid is gone (or predates the
        pid column, recorded as 0): the process that opened it can no longer
        finish it, so whatever it last committed is all there will ever be.
        Live pids — concurrent writers against a shared ledger — are left
        alone.  Returns the aborted run ids.
        """
        rows = self._conn.execute(
            "SELECT run_id, pid FROM runs WHERE status = 'running'"
        ).fetchall()
        stale = [
            row["run_id"]
            for row in rows
            if row["pid"] != os.getpid() and not _pid_alive(row["pid"])
        ]
        if stale:
            marks = ",".join("?" for _ in stale)
            self._conn.execute(
                f"UPDATE runs SET status = 'aborted', finished = ?"
                f" WHERE run_id IN ({marks})",
                (time.time(), *stale),
            )
            self._commit()
        return stale

    def _commit(self) -> None:
        """Commit through the fault seam; full-disk → StorageExhausted.

        Rolls back first so the ledger stays consistent at the previous
        commit — the caller's batch is the thing shed, never the file.
        """
        try:
            self.fs.before_commit("ledger")
            self._conn.commit()
        except sqlite3.OperationalError as error:
            try:
                self._conn.rollback()
            except sqlite3.Error:
                pass
            if is_sqlite_storage_error(error):
                raise StorageExhausted("ledger", str(error)) from error
            raise
        self.fs.after_commit("ledger")

    # -- writing -------------------------------------------------------------

    def begin_run(
        self,
        label: str = "",
        workload: str = "",
        query_name: str = "",
        jobs: int = 1,
        extras: Optional[dict] = None,
    ) -> int:
        """Open a run row (``status='running'``) and commit it immediately."""
        cursor = self._conn.execute(
            "INSERT INTO runs (started, label, workload, query_name, jobs,"
            " extras_json, pid) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                time.time(),
                label,
                workload,
                query_name,
                jobs,
                json.dumps(extras or {}, sort_keys=True),
                os.getpid(),
            ),
        )
        self._commit()
        return int(cursor.lastrowid)

    def sink(self, run_id: int):
        """A flush callback for :class:`~repro.obs.provenance.ProvenanceRecorder`."""

        def _append(events):
            self.append_events(run_id, events)

        return _append

    def append_events(self, run_id: int, events: Iterable[EvidenceEvent]) -> None:
        self._conn.executemany(
            "INSERT OR REPLACE INTO evidence (run_id, seq, ts, module, kind,"
            " clause, target, detail, rows, error, cached, speculative,"
            " isolated, db_fingerprint, evidence_json)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    run_id,
                    e.seq,
                    e.ts,
                    e.module,
                    e.kind,
                    e.clause,
                    e.target,
                    e.detail,
                    e.rows,
                    e.error,
                    int(e.cached),
                    int(e.speculative),
                    int(e.isolated),
                    e.db_fingerprint,
                    json.dumps(list(e.evidence)),
                )
                for e in events
            ],
        )
        self._commit()

    def record_modules(self, run_id: int, modules: dict) -> None:
        """Persist per-module self-time/invocations (``ExtractionStats.modules``)."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO modules (run_id, module, seconds,"
            " invocations) VALUES (?, ?, ?, ?)",
            [
                (run_id, name, stats.seconds, stats.invocations)
                for name, stats in modules.items()
            ],
        )
        self._commit()

    def record_clauses(self, run_id: int, rows) -> None:
        """Persist the explain view (:func:`~repro.obs.provenance.clause_evidence`)."""
        self._conn.execute("DELETE FROM clauses WHERE run_id = ?", (run_id,))
        self._conn.executemany(
            "INSERT INTO clauses (run_id, clause, target, module, action,"
            " probes, first_seq, last_seq, cached, speculative, isolated,"
            " confidence) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    run_id,
                    row.clause,
                    row.target,
                    row.module,
                    row.action,
                    row.probes,
                    row.evidence[0] if row.evidence else None,
                    row.evidence[-1] if row.evidence else None,
                    row.cached,
                    row.speculative,
                    row.isolated,
                    row.confidence,
                )
                for row in rows
            ],
        )
        self._commit()

    def record_metrics(self, run_id: int, name: str, payload: dict) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO metrics (run_id, name, payload_json)"
            " VALUES (?, ?, ?)",
            (run_id, name, json.dumps(payload, sort_keys=True, default=str)),
        )
        self._commit()

    def finish_run(
        self,
        run_id: int,
        status: str = "finished",
        verdict: str = "",
        sql: str = "",
        invocations: int = 0,
        seconds: float = 0.0,
        extras: Optional[dict] = None,
    ) -> None:
        if extras is not None:
            row = self._conn.execute(
                "SELECT extras_json FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
            merged = _tolerant_extras(row["extras_json"]) if row else {}
            merged.update(extras)
            self._conn.execute(
                "UPDATE runs SET extras_json = ? WHERE run_id = ?",
                (json.dumps(merged, sort_keys=True, default=str), run_id),
            )
        self._conn.execute(
            "UPDATE runs SET finished = ?, status = ?, verdict = ?, sql = ?,"
            " invocations = ?, seconds = ? WHERE run_id = ?",
            (time.time(), status, verdict, sql, invocations, seconds, run_id),
        )
        self._commit()

    def finish_extraction(self, run_id: int, provenance, outcome) -> None:
        """Record a completed extraction: per-module stats, the clause
        evidence view, and the run row with its ``caches`` and ``workers``
        extras (what ``repro trace-diff`` reads)."""
        provenance.flush()
        self.record_modules(run_id, outcome.stats.modules)
        if outcome.query is not None:
            self.record_clauses(
                run_id,
                clause_evidence(
                    outcome.query,
                    provenance.events,
                    clause_confidence=eqc_clause_confidence(outcome),
                ),
            )
        caches = dict(outcome.caches or {})
        workers = caches.pop("workers", None)
        extras = {"caches": caches}
        if workers:
            extras["workers"] = workers
        self.finish_run(
            run_id,
            status="completed",
            verdict=outcome.verdict,
            sql=outcome.sql if outcome.query is not None else "",
            invocations=outcome.stats.total_invocations,
            seconds=outcome.stats.total_seconds,
            extras=extras,
        )

    def fail_extraction(self, run_id: int, provenance, error) -> None:
        """Mark an aborted run ``paused`` (a checkpointed
        :class:`~repro.errors.ExtractionPaused`) or ``failed``; its
        incrementally flushed evidence stays put.  Never raises: the
        original error is the one worth surfacing."""
        try:
            provenance.flush()
            status = "paused" if isinstance(error, ExtractionPaused) else "failed"
            self.finish_run(run_id, status=status, extras={"error": str(error)})
        except Exception:
            pass

    # -- reading -------------------------------------------------------------

    def runs(self) -> list[dict]:
        return [
            dict(row)
            for row in self._conn.execute("SELECT * FROM runs ORDER BY run_id")
        ]

    def run(self, run_id: Optional[int] = None) -> Optional[dict]:
        """One run row; ``None`` selects the most recent run."""
        if run_id is None:
            row = self._conn.execute(
                "SELECT * FROM runs ORDER BY run_id DESC LIMIT 1"
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            return None
        payload = dict(row)
        payload["extras"] = _tolerant_extras(payload.pop("extras_json"))
        return payload

    def events(self, run_id: int) -> list[EvidenceEvent]:
        events = []
        for row in self._conn.execute(
            "SELECT * FROM evidence WHERE run_id = ? ORDER BY seq", (run_id,)
        ):
            events.append(
                EvidenceEvent(
                    seq=row["seq"],
                    module=row["module"],
                    kind=row["kind"],
                    clause=row["clause"],
                    target=row["target"],
                    detail=row["detail"],
                    rows=row["rows"],
                    error=row["error"],
                    cached=bool(row["cached"]),
                    speculative=bool(row["speculative"]),
                    isolated=bool(row["isolated"]),
                    db_fingerprint=row["db_fingerprint"],
                    evidence=tuple(json.loads(row["evidence_json"])),
                    ts=row["ts"],
                )
            )
        return events

    def modules(self, run_id: int) -> dict[str, dict]:
        return {
            row["module"]: {
                "seconds": row["seconds"],
                "invocations": row["invocations"],
            }
            for row in self._conn.execute(
                "SELECT * FROM modules WHERE run_id = ?", (run_id,)
            )
        }

    def clauses(self, run_id: int) -> list[dict]:
        return [
            dict(row)
            for row in self._conn.execute(
                "SELECT * FROM clauses WHERE run_id = ? ORDER BY rowid",
                (run_id,),
            )
        ]

    def metrics(self, run_id: int) -> dict[str, dict]:
        return {
            row["name"]: json.loads(row["payload_json"])
            for row in self._conn.execute(
                "SELECT * FROM metrics WHERE run_id = ?", (run_id,)
            )
        }

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe; 0/negative pids count as dead."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    except OSError:
        return False
    return True


def _tolerant_extras(text) -> dict:
    """Parse extras_json, degrading torn/invalid payloads to ``{}``."""
    try:
        payload = json.loads(text or "{}")
    except (ValueError, TypeError):
        return {}
    return payload if isinstance(payload, dict) else {}
