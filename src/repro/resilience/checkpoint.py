"""Per-module checkpoint/resume for the extraction pipeline.

After each pipeline module completes, the orchestrator serialises the
session's partial state — the :class:`~repro.core.model.ExtractedQuery` built
so far, the completed-module set, the minimal database ``D^1`` (and the §7
pipeline's multi-row ``D_min`` and s-value guards), captured results,
per-module statistics, and the RNG state — into
``<checkpoint-dir>/checkpoint.json``.  A later run pointed at the same
directory (and the same initial instance + configuration) restores that state
and re-executes only the unfinished modules.

Writes are atomic and durable (temp file + fsync + ``os.replace`` through
the :mod:`~repro.resilience.diskfaults` filesystem seam), and every file
carries a sha-256 checksum envelope.  A torn or truncated checkpoint is
*quarantined* aside and ``load()`` returns ``None`` — the run restarts from
scratch instead of resuming corrupt state, and the evidence survives for the
post-mortem.  A full disk raises :class:`~repro.errors.StorageExhausted`
(the pipeline degrades to un-checkpointed execution); a fingerprint of the
initial instance and the extraction configuration is embedded and verified
on load, so resuming against a different database or config raises
:class:`~repro.errors.CheckpointError` instead of silently mixing state.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Optional

# NOTE: this module must not import repro.core.session — the session imports
# repro.resilience.retry, and an eager import here would close the cycle.
# Sessions are duck-typed below.
from repro.errors import CheckpointError, StorageExhausted
from repro.resilience import serde
from repro.resilience.diskfaults import (
    REAL_FS,
    checksum_hex,
    is_storage_errno,
    quarantine_path,
)

logger = logging.getLogger("repro.resilience.checkpoint")

#: bumped whenever the snapshot layout changes incompatibly
#: (v2: sha-256 checksum envelope + quarantine-on-corruption;
#: v3: ``di_fingerprint`` hashes per-table row digests;
#: v4: the §7 pipeline's ``d_min`` and ``svalue_guards``)
CHECKPOINT_VERSION = 4


class CheckpointStore:
    """Owns one ``checkpoint.json`` inside a checkpoint directory."""

    FILENAME = "checkpoint.json"

    def __init__(self, directory, fs=None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fs = fs if fs is not None else REAL_FS
        #: where the last corrupt checkpoint was moved, if any
        self.quarantined: Optional[Path] = None

    @property
    def path(self) -> Path:
        return self.directory / self.FILENAME

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Optional[dict]:
        """The stored snapshot, or None when absent *or corrupt*.

        Corruption (unreadable bytes, invalid JSON, missing or mismatched
        checksum) is not an error: the file is quarantined aside and the
        caller starts fresh.  Only a *valid* checkpoint from an incompatible
        build raises :class:`CheckpointError` — that needs a human decision.
        """
        if not self.path.exists():
            return None
        try:
            raw = self.fs.read_bytes(self.path)
            state = json.loads(raw.decode("utf-8"))
            if not isinstance(state, dict):
                raise ValueError("checkpoint is not a JSON object")
        except (OSError, ValueError, UnicodeDecodeError) as error:
            self._quarantine(f"unreadable checkpoint: {error}")
            return None
        expected = state.pop("checksum", None)
        actual = checksum_hex(_canonical(state))
        if expected != actual:
            self._quarantine(
                f"checksum mismatch (stored {expected!r}, computed {actual!r})"
            )
            return None
        if state.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has version {state.get('version')!r}; "
                f"this build reads version {CHECKPOINT_VERSION}"
            )
        return state

    def save(self, state: dict) -> None:
        """Atomically replace the checkpoint with ``state`` (+ checksum)."""
        payload = dict(state)
        payload.pop("checksum", None)
        payload["checksum"] = checksum_hex(_canonical(payload))
        data = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        try:
            self.fs.write_atomic(self.path, data + b"\n")
        except OSError as error:
            if is_storage_errno(error):
                raise StorageExhausted("checkpoint", str(error)) from error
            raise

    def _quarantine(self, why: str) -> None:
        self.quarantined = quarantine_path(self.path)
        logger.warning(
            "quarantined corrupt checkpoint %s -> %s (%s); restarting fresh",
            self.path, self.quarantined, why,
        )

    def clear(self) -> None:
        """Remove the checkpoint (called after a successful extraction)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def _canonical(state: dict) -> bytes:
    """Canonical byte form the checksum is computed over (checksum excluded)."""
    body = {key: value for key, value in state.items() if key != "checksum"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- session snapshot / restore -------------------------------------------------


def snapshot_session(
    session,
    completed: list[str],
    degradations: list[dict],
) -> dict:
    """Everything a resumed run needs, as one JSON-serialisable dict."""
    stats = {
        name: {"seconds": module.seconds, "invocations": module.invocations}
        for name, module in session.stats.modules.items()
    }
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": session.checkpoint_fingerprint,
        "completed": sorted(completed),
        "degradations": list(degradations),
        "query": serde.encode_query(session.query),
        "d1": serde.encode_rows_by_table(session.d1),
        "d_min": serde.encode_tables(session.d_min),
        "svalue_guards": serde.encode_guards(session.svalue_guards),
        "initial_result": serde.encode_result(session.initial_result),
        "baseline_result": serde.encode_result(session.baseline_result),
        "probe_multiplier": session.probe_multiplier,
        "multiplier_table": session.multiplier_table,
        "rng_state": serde.encode_rng_state(session.rng.getstate()),
        "stats": {
            "modules": stats,
            "retries": session.stats.retries,
            "invocation_timeouts": session.stats.invocation_timeouts,
        },
    }


def restore_session(session, state: dict) -> set[str]:
    """Install a snapshot into a fresh session; returns the completed set.

    The session must have been constructed from the same initial instance and
    configuration that produced the checkpoint (verified via fingerprint).
    """
    fingerprint = state.get("fingerprint")
    if fingerprint != session.checkpoint_fingerprint:
        raise CheckpointError(
            "checkpoint fingerprint mismatch — it was written for a different "
            f"database or configuration (checkpoint: {fingerprint}, "
            f"this run: {session.checkpoint_fingerprint}); if the instance "
            "was intentionally re-seeded, discard the stale checkpoint and "
            "start over (repro: pass --fresh)"
        )
    session.query = serde.decode_query(state["query"])
    session.probe_multiplier = state["probe_multiplier"]
    session.multiplier_table = state["multiplier_table"]
    session.d_min = serde.decode_tables(state["d_min"])
    session.svalue_guards = serde.decode_guards(state["svalue_guards"])
    d1 = serde.decode_rows_by_table(state["d1"])
    if d1:
        session.set_d1(d1)
    session.initial_result = serde.decode_result(state["initial_result"])
    session.baseline_result = serde.decode_result(state["baseline_result"])
    session.rng.setstate(serde.decode_rng_state(state["rng_state"]))
    stats = state.get("stats", {})
    for name, payload in stats.get("modules", {}).items():
        module = session.stats.module(name)
        module.seconds = payload["seconds"]
        module.invocations = payload["invocations"]
    session.stats.retries = stats.get("retries", 0)
    session.stats.invocation_timeouts = stats.get("invocation_timeouts", 0)
    return set(state["completed"])
