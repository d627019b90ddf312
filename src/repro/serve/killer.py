"""Process control and journal readers for the ``serve-kill`` chaos profile.

:class:`Server` runs one ``repro serve`` subprocess (SIGKILL = the crash
being modelled, SIGTERM = graceful drain); :func:`post_json` submits jobs
over its HTTP API; :func:`progress_count` and :func:`job_states` read the
job journal directly, so the profile can time its kills at module
boundaries and compare each job's journaled SQL with its baseline.  The
survival matrix itself is
:func:`repro.resilience.chaos.serve_kill_cells`.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

from repro.errors import ExtractionError

_LISTEN_RE = re.compile(r"listening on http://[\d.]+:(\d+)")


class Server:
    """One ``repro serve`` subprocess with its stdout continuously drained."""

    def __init__(self, journal: Path, checkpoint_root: Path, workers: int):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--journal", str(journal),
                "--checkpoint-root", str(checkpoint_root),
                "--workers", str(workers),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port: int | None = None
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:  # type: ignore[union-attr]
            self.lines.append(line)
            match = _LISTEN_RE.search(line)
            if match:
                self.port = int(match.group(1))
                self._ready.set()
        self._ready.set()  # EOF: unblock waiters even without a port

    def wait_ready(self, timeout: float = 60.0) -> int:
        if not self._ready.wait(timeout) or self.port is None:
            self.kill()
            raise ExtractionError(
                "serve subprocess never reported its port; output:\n"
                + "".join(self.lines[-20:])
            )
        return self.port

    def kill(self) -> None:
        """SIGKILL — the crash being modelled; no cleanup happens."""
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def terminate(self, timeout: float = 60.0) -> int:
        """SIGTERM — graceful drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ExtractionError("serve subprocess ignored SIGTERM") from None


def post_json(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return json.loads(error.read().decode("utf-8"))


def _journal_read(journal: Path, query: str, params: tuple = ()) -> list:
    import sqlite3

    conn = sqlite3.connect(str(journal))
    conn.row_factory = sqlite3.Row
    conn.execute("PRAGMA busy_timeout = 5000")
    try:
        return conn.execute(query, params).fetchall()
    finally:
        conn.close()


def progress_count(journal: Path) -> int:
    rows = _journal_read(
        journal,
        "SELECT COUNT(*) AS n FROM transitions WHERE detail LIKE 'module:%'",
    )
    return rows[0]["n"]


def job_states(journal: Path, job_ids: list[str]) -> dict[str, dict]:
    marks = ",".join("?" for _ in job_ids)
    rows = _journal_read(
        journal,
        f"SELECT job_id, state, sql, verdict, attempt FROM jobs"
        f" WHERE job_id IN ({marks})",
        tuple(job_ids),
    )
    return {row["job_id"]: dict(row) for row in rows}
