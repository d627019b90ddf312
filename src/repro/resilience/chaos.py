"""One survival-matrix runner for the ``disk``, ``net`` and ``serve-kill``
chaos profiles.

Extraction is thousands of black-box invocations (paper §3); the robustness
contract is that every injected fault still ends in SQL byte-identical to a
fault-free run, or in a clean structured verdict.  A chaos profile proves
it with a survival matrix: one *cell* per (fault class × site), each with a
verdict and an outcome line.  :func:`run_matrix` owns everything the
profiles share:

1. the fault-free baseline, extracted inline by :func:`extract` — the one
   helper behind every baseline and every faulted re-run;
2. one printed row per cell, as the profile's generator yields it;
3. the verdict — SURVIVED only when there is at least one cell and every
   cell is ok;
4. the report, also written to ``<workdir>/<profile>_chaos_matrix.json``.

A profile is a cell generator ``cells(run)`` over a :class:`ChaosRun`,
yielding ``{fault, site, ok, outcome}`` dicts plus any extra evidence keys:

* :func:`disk_cells` — every storage fault class
  (:data:`~repro.resilience.diskfaults.DISK_FAULT_CLASSES`) against every
  durable store (``checkpoint``, ``journal``, ``ledger``);
* :func:`net_cells` — a ``clean`` remote-over-loopback cell, then every wire
  fault class (:data:`~repro.resilience.netfaults.NET_FAULT_CLASSES`) at the
  ``early``/``mid``/``late`` pipeline phases, each with its exactly-once
  proof obligation;
* :func:`serve_kill_cells` — one cell per job of a ``repro serve`` that is
  SIGKILLed and restarted mid-run, plus the closing graceful-drain cell.

Used by ``repro chaos --profile disk|net|serve-kill`` and the slow
integration tests.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from repro.errors import ExtractionError, StorageExhausted
from repro.isolation.remote import PeerHealthRegistry
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.diskfaults import (
    DISK_FAULT_CLASSES,
    FaultyFS,
    InjectedStorageCrash,
    sqlite_is_healthy,
    tear_tail,
)
from repro.resilience.netfaults import (
    NET_FAULT_CLASSES,
    NetFaultPlan,
    faulty_transport_factory,
)

#: disk fault classes that model power loss (the process dies mid-operation)
CRASH_CLASSES = ("torn_write", "short_write", "lost_fsync")

#: net fault classes whose recovery requires a reconnect (connection destroyed)
RECONNECT_CLASSES = ("torn_frame", "corrupt")

#: net fault classes that must trip the fencing reader (a stale reply arrives)
FENCING_CLASSES = ("partition", "reorder")


@dataclass(frozen=True)
class ChaosRun:
    """What a cell generator works from: the target, its baseline, a workdir."""

    query: str
    workload: str
    scale: float
    seed: int
    chaos_seed: int
    workdir: Path
    baseline_sql: str
    out: TextIO


def extract(query, workload, scale, seed, config=None, checkpoint_store=None):
    """One inline extraction of a workload query; returns the outcome."""
    from repro.apps.executable import SQLExecutable
    from repro.core.config import ExtractionConfig
    from repro.core.pipeline import run_extraction
    from repro.workloads import build_instance, find_query

    hidden = find_query(workload, query)
    if hidden is None:
        raise ValueError(f"unknown query {query!r} in workload {workload!r}")
    return run_extraction(
        build_instance(workload, scale, seed),
        SQLExecutable(hidden.sql, obfuscate_text=True, name="chaos"),
        config if config is not None else ExtractionConfig(fail_fast=False),
        checkpoint_dir=checkpoint_store,
    ).outcome


def run_matrix(
    profile: str,
    cells,
    query: str,
    *,
    workdir,
    workload: str = "tpch",
    scale: float = 0.0005,
    seed: int = 11,
    chaos_seed: int = 1337,
    out=sys.stdout,
) -> dict:
    """Run one profile's survival matrix; returns (and writes) the report."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    out.write(f"baseline    : extracting {query} inline, fault-free\n")
    started = time.time()
    baseline = extract(query, workload, scale, seed)
    out.write(f"baseline    : done in {time.time() - started:.2f}s "
              f"(verdict {baseline.verdict})\n")

    run = ChaosRun(query, workload, scale, seed, chaos_seed, workdir,
                   baseline.sql, out)
    rows: list[dict] = []
    for cell in cells(run):
        rows.append(cell)
        mark = "ok " if cell["ok"] else "FAIL"
        out.write(f"{cell['fault']:<12}: {mark} {cell['site']:<10} "
                  f"{cell['outcome']}\n")

    report = {
        "survived": bool(rows) and all(cell["ok"] for cell in rows),
        "fault_classes": list(dict.fromkeys(cell["fault"] for cell in rows)),
        "sites": list(dict.fromkeys(cell["site"] for cell in rows)),
        "cells": rows,
        "baseline_sql": baseline.sql,
        "workdir": str(workdir),
    }
    matrix_path = workdir / f"{profile}_chaos_matrix.json"
    with open(matrix_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    passed = sum(1 for cell in rows if cell["ok"])
    out.write(f"matrix      : {passed}/{len(rows)} cells passed "
              f"({len(report['fault_classes'])} fault classes, "
              f"{len(report['sites'])} sites) -> {matrix_path}\n")
    out.write(f"verdict     : "
              f"{'SURVIVED' if report['survived'] else 'DIVERGED'}\n")
    return report


def _cell(fault: str, site: str, ok: bool, outcome: str, **evidence) -> dict:
    return {"fault": fault, "site": site, "ok": ok, "outcome": outcome,
            **evidence}


# -- disk: storage fault class x durable store ------------------------------


def disk_cells(run: ChaosRun):
    """Every storage fault class against every durable store.

    * **checkpoint** — a real extraction checkpoints through a
      :class:`~repro.resilience.diskfaults.FaultyFS`.  ``enospc``/``eio``
      must degrade to a structured ``storage_exhausted`` outcome *and still
      produce byte-identical SQL* (checkpointing is an aid, never a
      dependency); the crash classes kill the run mid-checkpoint-write, and
      a fresh process over the same directory must quarantine whatever
      bytes survived and converge to byte-identical SQL.
    * **journal** — ``enospc``/``eio`` hit a transaction commit and must
      surface as :class:`~repro.errors.StorageExhausted` with the journal
      intact at its previous commit; the crash classes kill the process
      after a commit (or tear the file's last page, the SIGKILL-mid-page
      case) and reopening must salvage-or-quarantine and recover the
      committed jobs.
    * **ledger** — same contract as the journal for the provenance ledger.
    """
    for fault in DISK_FAULT_CLASSES:
        yield _checkpoint_leg(fault, run.workdir, run.query, run.workload,
                              run.scale, run.seed, run.chaos_seed,
                              run.baseline_sql)
        yield _journal_leg(fault, run.workdir)
        yield _ledger_leg(fault, run.workdir)


def _checkpoint_leg(fault, workdir, query, workload, scale, seed,
                    chaos_seed, baseline_sql) -> dict:
    directory = workdir / fault / "checkpoints"
    directory.mkdir(parents=True, exist_ok=True)
    # at_op=2: the first module's checkpoint lands durably, the second write
    # faults — so crash recovery has a real previous checkpoint to consider.
    faulty = FaultyFS(fault, at_op=2, seed=chaos_seed)
    store = CheckpointStore(directory, fs=faulty)
    try:
        outcome = extract(query, workload, scale, seed, checkpoint_store=store)
    except InjectedStorageCrash:
        # Power loss mid-checkpoint-write.  A fresh "process" reopens the
        # same directory: corrupt bytes must quarantine (or the previous
        # checkpoint must resume) and the rerun must converge.
        recovery = CheckpointStore(directory)
        recovery.load()  # quarantines torn/short leftovers, never raises
        rerun = extract(
            query, workload, scale, seed,
            checkpoint_store=CheckpointStore(directory),
        )
        if rerun.sql != baseline_sql:
            return _cell(fault, "checkpoint", False,
                         "post-crash rerun diverged from baseline SQL")
        return _cell(
            fault, "checkpoint", True,
            "crashed mid-checkpoint; rerun converged to byte-identical SQL"
            + (" (corrupt checkpoint quarantined)"
               if recovery.quarantined else " (resumed previous checkpoint)"),
        )
    if not faulty.fired:
        return _cell(fault, "checkpoint", False,
                     "fault never fired (too few checkpoint writes)")
    # enospc/eio: the pipeline must have degraded, not died — and the SQL
    # must still be byte-identical (checkpointing is an aid, not a need).
    degraded = any(
        d.error == "StorageExhausted" for d in outcome.degradations
    )
    if not degraded:
        return _cell(fault, "checkpoint", False,
                     "no structured storage_exhausted degradation recorded")
    if outcome.sql != baseline_sql:
        return _cell(fault, "checkpoint", False,
                     "degraded run diverged from baseline SQL")
    return _cell(fault, "checkpoint", True,
                 "degraded to storage_exhausted; SQL byte-identical")


def _journal_leg(fault, workdir) -> dict:
    from repro.serve.journal import JobJournal

    path = workdir / fault / "journal.sqlite"
    path.parent.mkdir(parents=True, exist_ok=True)
    request = {"workload": "tpch", "query": "Q6"}

    if fault in ("enospc", "eio"):
        journal = JobJournal(path, fs=FaultyFS(fault, ops="commit"))
        try:
            journal.create("job-000001", request)
        except StorageExhausted:
            pass
        else:
            journal.close()
            return _cell(fault, "journal", False,
                         "commit fault not surfaced as StorageExhausted")
        # one-shot fault: the insert rolled back, the journal sits at its
        # previous commit and must accept the retried writes
        journal.create("job-000001", request)
        journal.create("job-000002", request)
        ok = {j["job_id"] for j in journal.jobs()} == {"job-000001",
                                                       "job-000002"}
        journal.close()
        return _cell(fault, "journal", ok,
                     "StorageExhausted surfaced; journal consistent and "
                     "writable after" if ok else "journal inconsistent")

    if fault == "lost_fsync":
        # Process dies immediately after a commit: the WAL got the bytes,
        # the process didn't get to act on them — commit-before-act means
        # reopening must see the job.
        journal = JobJournal(path, fs=FaultyFS(fault, ops="commit"))
        try:
            journal.create("job-000001", request)
        except InjectedStorageCrash:
            pass
        else:
            return _cell(fault, "journal", False, "crash fault never fired")
        # no close(): the process "died"
        reopened = JobJournal(path)
        survived = any(
            j["job_id"] == "job-000001" for j in reopened.jobs()
        )
        reopened.close()
        return _cell(fault, "journal", survived,
                     "committed job durable across post-commit crash"
                     if survived else "committed job lost")

    # torn_write / short_write: SIGKILL left the file's last page torn.
    journal = JobJournal(path)
    journal.create("job-000001", request)
    journal.create("job-000002", request)
    from repro.serve.jobs import JobState
    journal.transition("job-000001", JobState.RUNNING, "attempt 1")
    journal.close()
    nbytes = 512 if fault == "torn_write" else 2048
    tear_tail(path, nbytes=nbytes, seed=7)
    reopened = JobJournal(path)  # must salvage-or-open, never crash
    recovered = reopened.recover()
    structurally_ok = sqlite_is_healthy(path)
    jobs = {j["job_id"]: j for j in reopened.jobs()}
    reopened.close()
    if not structurally_ok:
        return _cell(fault, "journal", False,
                     "journal structurally corrupt after reopen")
    detail = (
        f"salvaged {reopened.salvage_report['jobs_salvaged']} jobs, "
        f"quarantined {reopened.salvage_report['rows_quarantined']} rows"
        if reopened.salvage_report else
        f"tear missed live pages; {len(recovered)} interrupted job(s) requeued"
    )
    # Either the tear corrupted sqlite (salvage ran) or it landed in slack
    # space (plain recovery); both must leave a healthy, queryable journal.
    return _cell(fault, "journal", True, detail + f"; {len(jobs)} jobs visible")


def _ledger_leg(fault, workdir) -> dict:
    from repro.obs.ledger import RunLedger

    path = workdir / fault / "ledger.sqlite"
    path.parent.mkdir(parents=True, exist_ok=True)

    if fault in ("enospc", "eio"):
        ledger = RunLedger(path, fs=FaultyFS(fault, ops="commit"))
        try:
            ledger.begin_run(label="chaos")
        except StorageExhausted:
            pass
        else:
            ledger.close()
            return _cell(fault, "ledger", False,
                         "commit fault not surfaced as StorageExhausted")
        run_id = ledger.begin_run(label="chaos-retry")  # one-shot fault
        ledger.finish_run(run_id, status="completed")
        ledger.close()
        return _cell(fault, "ledger", True,
                     "StorageExhausted surfaced; ledger writable after")

    if fault == "lost_fsync":
        ledger = RunLedger(path, fs=FaultyFS(fault, ops="commit"))
        try:
            ledger.begin_run(label="chaos")
        except InjectedStorageCrash:
            pass
        else:
            return _cell(fault, "ledger", False, "crash fault never fired")
        reopened = RunLedger(path)
        survived = len(reopened.runs()) == 1
        reopened.close()
        return _cell(fault, "ledger", survived,
                     "committed run durable across post-commit crash"
                     if survived else "committed run lost")

    # torn_write / short_write: corrupt the closed file, reopen.
    ledger = RunLedger(path)
    run_id = ledger.begin_run(label="chaos")
    ledger.finish_run(run_id, status="completed")
    ledger.close()
    tear_tail(path, nbytes=4096, seed=7)
    reopened = RunLedger(path)  # quarantines on quick_check failure
    run_id = reopened.begin_run(label="post-corruption")
    reopened.finish_run(run_id, status="completed")
    usable = len(reopened.runs()) >= 1
    reopened.close()
    if not usable:
        return _cell(fault, "ledger", False,
                     "ledger unusable after corruption reopen")
    detail = ("corrupt file quarantined; fresh ledger usable"
              if reopened.quarantined else
              "tear missed live pages; ledger intact and usable")
    return _cell(fault, "ledger", True, detail)


# -- net: wire fault class x pipeline phase ---------------------------------


def net_cells(run: ChaosRun, fast: bool = False):
    """Every wire fault class at three pipeline phases, over loopback.

    Each fault arms a one-shot
    :class:`~repro.resilience.netfaults.NetFaultPlan` at an early (From
    clause), mid (filters) or late (assembly-era) run frame of a full
    extraction through an in-process
    :class:`~repro.isolation.agent.WorkerAgent`.  Every cell must end in SQL
    byte-identical to the inline baseline (these are all *recoverable*
    pathologies; a structured verdict would mean the transport gave up on
    something it should have survived) and discharge its obligation:

    * ``duplicate`` — the agent's sequence numbers dropped a duplicate frame
      (one execution, not two);
    * ``partition`` / ``reorder`` — the fencing reader rejected at least one
      stale reply, so an abandoned lease's reply was never double-folded or
      double-charged;
    * ``torn_frame`` / ``corrupt`` — the connection was torn down and
      re-established (CRC and framing caught the damage).

    The ``clean`` cell (no fault) pins remote-over-loopback to the inline
    baseline and censuses the run frames.  ``fast=True`` runs only the mid
    phase (the CI smoke configuration).
    """
    from repro.isolation.agent import WorkerAgent

    agent = WorkerAgent()
    address = agent.start()
    run.out.write(f"agent       : worker agent on {address}\n")
    try:
        # The clean remote cell doubles as the run-frame census: a plan armed
        # past any realistic ordinal counts frames without ever firing.
        census = NetFaultPlan("delay", at_op=1 << 30, seed=run.chaos_seed)
        clean = extract(
            run.query, run.workload, run.scale, run.seed,
            config=_remote_config(address, PeerHealthRegistry((address,)),
                                  faulty_transport_factory(census)),
        )
        clean_ok = clean.sql == run.baseline_sql
        yield _cell(
            "clean", "full", clean_ok,
            "remote loopback run byte-identical to inline baseline"
            if clean_ok else
            f"remote run diverged from baseline (verdict {clean.verdict})",
        )
        frames = census.op_count
        run.out.write(f"census      : {frames} run frames per extraction\n")

        phases = {"mid": max(2, frames // 2)}
        if not fast:
            phases = {
                "early": 2,
                "mid": max(2, frames // 2),
                "late": max(3, int(frames * 0.8)),
            }
        for fault in NET_FAULT_CLASSES:
            for site, at_op in phases.items():
                yield _fault_cell(fault, site, at_op, agent, run.query,
                                  run.workload, run.scale, run.seed,
                                  run.chaos_seed, run.baseline_sql)
    finally:
        agent.stop()


def _remote_config(address: str, registry, transport_factory=None):
    from repro.core.config import ExtractionConfig

    return ExtractionConfig(
        fail_fast=False,
        isolate="remote",
        worker_peers=(address,),
        peer_registry=registry,
        transport_factory=transport_factory,
        # tight-but-safe wire budgets so a swallowed frame is detected in
        # seconds, not the production 30s default
        worker_default_timeout=5.0,
        worker_kill_grace=0.5,
        transport_heartbeat_interval=0.2,
        transport_backoff_base=0.01,
        transport_backoff_max=0.1,
    )


def _registry_totals(registry: PeerHealthRegistry) -> dict:
    totals = {"fenced_replies": 0, "duplicates_dropped": 0, "reconnects": 0,
              "quarantines": 0}
    for entry in registry.snapshot().values():
        for key in totals:
            totals[key] += entry[key]
    return totals


def _fault_cell(fault, site, at_op, agent, query, workload, scale, seed,
                chaos_seed, baseline_sql) -> dict:
    plan = NetFaultPlan(fault, at_op=at_op, seed=chaos_seed)
    registry = PeerHealthRegistry((agent.address,))
    agent_before = agent.transport_counters()
    config = _remote_config(
        agent.address, registry, faulty_transport_factory(plan)
    )
    try:
        outcome = extract(query, workload, scale, seed, config=config)
    except Exception as error:  # noqa: BLE001 - a cell failure, not a crash
        return _cell(fault, site, False,
                     f"extraction died: {type(error).__name__}: {error}")
    if not plan.fired:
        return _cell(fault, site, False,
                     f"fault never fired (armed at run frame {at_op})")
    if outcome.sql != baseline_sql:
        return _cell(
            fault, site, False,
            f"SQL diverged from baseline (verdict {outcome.verdict})",
        )
    totals = _registry_totals(registry)
    agent_delta = {
        key: agent.transport_counters()[key] - agent_before[key]
        for key in agent_before
    }
    if fault == "duplicate" and agent_delta["duplicates_dropped"] < 1:
        return _cell(fault, site, False,
                     "duplicate delivery was never deduplicated")
    if fault == "reorder" and agent_delta["reorders_healed"] < 1:
        return _cell(fault, site, False,
                     "reordered delivery was never healed")
    if fault in FENCING_CLASSES and totals["fenced_replies"] < 1:
        return _cell(fault, site, False,
                     "no stale reply was fenced (exactly-once unproven)")
    if fault in RECONNECT_CLASSES and totals["reconnects"] < 1:
        return _cell(fault, site, False,
                     "damaged connection was never re-established")
    detail = "byte-identical SQL"
    proofs = []
    if totals["fenced_replies"]:
        proofs.append(f"{totals['fenced_replies']} stale replies fenced")
    if agent_delta["duplicates_dropped"]:
        proofs.append(f"{agent_delta['duplicates_dropped']} duplicates dropped")
    if agent_delta["reorders_healed"]:
        proofs.append(f"{agent_delta['reorders_healed']} reorders healed")
    if totals["reconnects"]:
        proofs.append(f"{totals['reconnects']} reconnects")
    if proofs:
        detail += " (" + ", ".join(proofs) + ")"
    return _cell(fault, site, True, detail)


# -- serve-kill: SIGKILL a live server, prove every job converges ----------


def serve_kill_cells(run: ChaosRun, serve_jobs: int = 3, kills: int = 2,
                     workers: int = 2, timeout: float = 600.0):
    """SIGKILL a live ``repro serve`` mid-run; every job must converge.

    Job ``i`` extracts the query against seed ``seed + i``, so recovery is
    proven across distinct checkpoint fingerprints.  The server is
    SIGKILLed after module-boundary progress shows up in its journal and
    restarted against the same journal and checkpoint root, ``kills``
    times; then every job must reach ``done`` with SQL byte-identical to
    its inline baseline (one ``sigkill`` cell per job), and the closing
    SIGTERM must drain and exit 0 (the ``sigterm``/``drain`` cell).
    """
    from repro.serve.killer import Server, job_states, post_json, progress_count

    journal = run.workdir / "journal.sqlite"
    checkpoint_root = run.workdir / "checkpoints"
    baselines = [run.baseline_sql] + [
        extract(run.query, run.workload, run.scale, run.seed + index).sql
        for index in range(1, serve_jobs)
    ]
    deadline = time.time() + timeout

    def all_terminal() -> bool:
        states = job_states(journal, job_ids)
        return len(states) == len(job_ids) and all(
            s["state"] in ("done", "failed") for s in states.values()
        )

    job_ids: list[str] = []
    performed = 0
    server = Server(journal, checkpoint_root, workers)
    try:
        port = server.wait_ready()
        run.out.write(f"serve       : pid {server.proc.pid} on port {port}\n")
        for index in range(serve_jobs):
            reply = post_json(port, "/jobs", {
                "workload": run.workload,
                "query": run.query,
                "scale": run.scale,
                "seed": run.seed + index,
            })
            if "job_id" not in reply or reply.get("rejected"):
                raise ExtractionError(f"job submission rejected: {reply}")
            job_ids.append(reply["job_id"])
        run.out.write(f"submitted   : {', '.join(job_ids)}\n")

        for round_number in range(1, kills + 1):
            floor = progress_count(journal)
            while (time.time() < deadline and not all_terminal()
                   and progress_count(journal) <= floor):
                time.sleep(0.05)
            if all_terminal():
                run.out.write(f"kill {round_number:>2}     : skipped, "
                              "all jobs terminal\n")
                break
            server.kill()
            performed += 1
            run.out.write(f"kill {round_number:>2}     : SIGKILL at progress "
                          f"{progress_count(journal)}; restarting\n")
            server = Server(journal, checkpoint_root, workers)
            port = server.wait_ready()
            run.out.write(f"restart     : pid {server.proc.pid} on port "
                          f"{port}\n")

        while not all_terminal():
            if time.time() >= deadline:
                raise ExtractionError(
                    f"jobs not terminal within {timeout:.0f}s: "
                    f"{job_states(journal, job_ids)}"
                )
            if server.proc.poll() is not None:
                raise ExtractionError(
                    "serve subprocess died while jobs were pending; output:\n"
                    + "".join(server.lines[-20:])
                )
            time.sleep(0.1)
    except BaseException:
        server.kill()
        raise
    try:
        exit_code = server.terminate()
    except ExtractionError as error:  # ignored SIGTERM; already SIGKILLed
        exit_code, drained = None, str(error)
    else:
        drained = f"exit {exit_code} after {performed} SIGKILL(s)"

    states = job_states(journal, job_ids)
    for job_id, expected in zip(job_ids, baselines):
        record = states[job_id]
        if record["state"] != "done":
            ok, detail = False, "not done"
        elif record["sql"] != expected:
            ok, detail = False, "SQL diverged from baseline"
        else:
            ok, detail = True, "byte-identical SQL"
        yield _cell("sigkill", job_id, ok,
                    f"{record['state']}, attempt {record['attempt']}; {detail}",
                    state=record["state"], attempts=record["attempt"])
    yield _cell("sigterm", "drain", exit_code == 0, drained,
                exit=exit_code, kills=performed)
