"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads`` — list the bundled hidden-query workloads;
* ``extract``   — build a synthetic instance, hide a workload query in an
  obfuscated executable, run UNMASQUE, and print the extracted SQL with the
  per-module timing profile;
* ``sql``       — extract an ad-hoc hidden query supplied on the command line
  (against a chosen synthetic instance);
* ``trace-report`` — render a ``--trace-out`` JSONL trace as a flame-style
  span tree plus a top-N slowest-queries table;
* ``chaos``     — run one extraction under a named fault-injection profile
  (deterministic, seeded) and report whether it survived: identical SQL to
  the fault-free run, retries, timeouts, and degradations; the ``disk``,
  ``net`` and ``serve-kill`` profiles instead run a survival matrix of
  (fault class × site) cells (``repro.resilience.chaos``);
* ``verify``    — answer "is this hidden query inside the extractable class?"
  with a structured verdict and per-clause confidence (exit 4 when
  out-of-class) instead of risking a plausible-but-wrong SQL string;
* ``explain``   — extract a hidden query with the clause-level provenance
  recorder attached and print every clause of the result with the minimal
  probe-evidence chain that established it (or re-render the report from a
  ``--ledger`` file without re-running anything);
* ``trace-diff`` — compare two runs (SQLite run ledgers and/or bench
  payloads) clause by clause: SQL deltas, per-module self-time and
  invocation-count regressions, cache hit-rate drift.

The extraction commands (``extract``, ``sql``, ``verify``, ``explain``,
``chaos``) share one set of common flags, mapped to an
:class:`ExtractionConfig` by :func:`config_from_args`, and run through one
front door (:func:`repro.core.pipeline.run_extraction`).  They accept
``--trace-out FILE`` (hierarchical span trace, JSONL) and
``--metrics-out FILE`` (counters/histograms snapshot, JSON);
without these flags no tracer is attached and extraction runs exactly as
before.  ``--ledger FILE`` additionally persists the run — clause evidence,
per-module breakdown, and the raw probe stream — to a durable SQLite run
ledger (written incrementally, so killed runs keep their partial history;
a full disk drops the ledger with a ``warning`` line, never the
extraction).  ``--checkpoint-dir DIR`` enables per-module checkpoint/resume
(``--fresh`` discards a stale checkpoint instead of resuming from it);
``--best-effort`` downgrades non-essential module failures (order by, limit,
disjunctions, checker) to recorded degradations instead of aborting; the
``--budget-*`` flags arm the resource watchdog (invocations, rows scanned,
cells materialized, wall-clock seconds).  ``--isolate process`` routes every
invocation through a supervised worker subprocess (hard SIGKILL deadlines,
``--worker-memory-mb`` RSS caps, crash classification and quarantine — see
``repro.isolation``); the hard-fault chaos profiles (``hang``, ``crash``)
require it.

``verify --certify`` additionally runs the bounded symbolic equivalence
checker (``repro.veriq``) over the extracted SQL: the verdict is either a
*certificate* (no distinguishing database exists within the explored bound)
or a concrete *counterexample* database (JSON, ``--counterexample-out``)
on which the extraction and the application demonstrably diverge, after the
CEGIS loop (counterexample -> D_I augmentation -> re-extraction) has had
``--certify-rounds`` chances to repair it.

Exit status: 0 success; 1 extraction/engine error (one-line ``error: ...``,
never a traceback) or a chaos run that did not survive; 2 usage error; 3 empty initial result; 4 ``verify``
verdict ``out_of_class``; 5 transport-level quarantine (every ``--isolate
remote`` peer unreachable after capped-backoff reconnects); 6 ``verify
--certify`` found a counterexample the CEGIS loop could not resolve; 130
interrupted by SIGINT/SIGTERM (after printing a ``--checkpoint-dir`` resume
hint).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.apps.executable import SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import check_writable, run_extraction
from repro.errors import (
    EmptyInitialResult,
    PeerQuarantined,
    ReproError,
    UnwritableOutput,
)
from repro.workloads import WORKLOADS, find_query, workload_modules
from repro.workloads import build_instance as _build_database

#: chaos profiles that run a survival matrix (repro.resilience.chaos) rather
#: than one faulted extraction
MATRIX_PROFILES = ("disk", "net", "serve-kill")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UNMASQUE hidden-query extraction (SIGMOD 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list bundled workloads and their queries")

    extract = sub.add_parser("extract", help="extract one bundled hidden query")
    extract.add_argument("--workload", default="tpch", choices=WORKLOADS)
    extract.add_argument("--query", required=True, help="query name, e.g. Q3")
    _common_extraction_args(extract)

    adhoc = sub.add_parser("sql", help="extract an ad-hoc hidden query")
    adhoc.add_argument("--workload", default="tpch", choices=["tpch", "tpcds", "job"],
                       help="which synthetic instance to run against")
    adhoc.add_argument("query_sql", help="the SQL text to hide and re-extract")
    _common_extraction_args(adhoc)

    report = sub.add_parser("trace-report", help="render a --trace-out JSONL trace")
    report.add_argument("trace_file", help="JSONL trace written by --trace-out")
    report.add_argument("--top", type=int, default=10,
                        help="slowest engine queries to list (default 10)")
    report.add_argument("--max-children", type=int, default=8,
                        help="children shown per span before eliding (default 8)")

    from repro.resilience.faults import FAULT_PROFILES

    chaos = sub.add_parser(
        "chaos",
        help="extract one hidden query under fault injection and report survival",
    )
    chaos.add_argument("--workload", default="tpch", choices=WORKLOADS)
    chaos.add_argument("--query", required=True, help="query name, e.g. Q3")
    chaos.add_argument("--profile", default="transient",
                       choices=sorted(FAULT_PROFILES) + list(MATRIX_PROFILES),
                       help="named fault profile (default: transient); "
                            "'serve-kill' SIGKILLs a live `repro serve` "
                            "between module boundaries and proves every job "
                            "converges after restarts; 'disk' injects "
                            "storage faults (torn/short writes, ENOSPC, EIO, "
                            "lost fsync) into the checkpoint store, job "
                            "journal, and provenance ledger and proves "
                            "recovery for every fault class; 'net' injects "
                            "wire faults (delay, drop, partition, torn "
                            "frames, duplicates, reordering, corruption, "
                            "byte-drip) into the remote worker transport "
                            "over a loopback agent and proves byte-identical "
                            "SQL plus exactly-once accounting for every "
                            "fault class x pipeline phase")
    chaos.add_argument("--fast", action="store_true",
                       help="net only: one mid-pipeline cell per fault class "
                            "instead of the full early/mid/late matrix (the "
                            "CI smoke configuration)")
    chaos.add_argument("--chaos-seed", type=int, default=1337,
                       help="seed for the fault injector (default 1337)")
    chaos.add_argument("--max-attempts", type=int, default=6,
                       help="retry attempts per invocation (default 6)")
    chaos.add_argument("--crash-at", type=int, default=None, metavar="N",
                       help="also inject a hard crash at invocation N, then "
                            "auto-resume from the checkpoint")
    chaos.add_argument("--kills", type=int, default=2, metavar="N",
                       help="serve-kill only: SIGKILL the server N times "
                            "(default 2)")
    chaos.add_argument("--serve-jobs", type=int, default=3, metavar="N",
                       help="serve-kill only: concurrent jobs submitted "
                            "(default 3)")
    chaos.add_argument("--serve-dir", metavar="DIR", default=None,
                       help="disk, net and serve-kill: the matrix workdir "
                            "(fault-injected stores, journal, checkpoints and "
                            "<profile>_chaos_matrix.json; default: a fresh "
                            "temp dir)")
    _common_extraction_args(chaos)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived extraction service: concurrent jobs over a "
             "JSON HTTP API with admission control, circuit breaking, and a "
             "crash-safe job journal",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 picks an ephemeral port and prints "
                            "it (default 8765)")
    serve.add_argument("--journal", metavar="FILE",
                       default="serve-journal.sqlite",
                       help="crash-safe SQLite job journal; restarting "
                            "against the same journal recovers interrupted "
                            "jobs (default: serve-journal.sqlite)")
    serve.add_argument("--checkpoint-root", metavar="DIR",
                       default="serve-checkpoints",
                       help="per-job checkpoint directories live under here "
                            "(default: serve-checkpoints)")
    serve.add_argument("--queue-capacity", type=int, default=16, metavar="N",
                       help="admission queue bound; a full queue rejects "
                            "with `queue_full` instead of stalling "
                            "(default 16)")
    serve.add_argument("--workers", default="2", metavar="N|HOST:PORT,...",
                       help="an integer N runs N concurrent extraction "
                            "worker threads in-process (default 2); a "
                            "comma-separated host:port list instead "
                            "dispatches isolated invocations to those remote "
                            "worker agents (one extraction thread per peer), "
                            "with per-peer health in /status and /healthz")
    serve.add_argument("--breaker-threshold", type=int, default=3, metavar="K",
                       help="consecutive worker-health failures that open "
                            "the circuit breaker (default 3)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="S",
                       help="seconds the breaker stays open before admitting "
                            "a half-open probe job (default 30)")
    serve.add_argument("--tenant-max-queued", type=int, default=None,
                       metavar="N",
                       help="per-tenant cap on jobs queued or running at once")
    serve.add_argument("--tenant-max-invocations", type=int, default=None,
                       metavar="N",
                       help="per-tenant cumulative invocation budget")
    serve.add_argument("--tenant-max-seconds", type=float, default=None,
                       metavar="S",
                       help="per-tenant cumulative extraction wall-clock "
                            "budget")
    serve.add_argument("--tenant-quarantine-threshold", type=int, default=None,
                       metavar="K",
                       help="consecutive failed jobs before a tenant is "
                            "quarantined")
    serve.add_argument("--ledger", metavar="FILE", default=None,
                       help="persist every job's clause-evidence provenance "
                            "to this run ledger; /jobs/<id> surfaces the "
                            "run pointer")
    serve.add_argument("--drain-grace", type=float, default=60.0, metavar="S",
                       help="seconds to wait on SIGTERM for in-flight jobs "
                            "to finish or checkpoint (default 60)")
    serve.add_argument("--memory-high-mb", type=float, default=None,
                       metavar="MB",
                       help="memory high watermark; above it running jobs "
                            "are checkpointed-and-evicted (rehydrated when "
                            "pressure subsides) and new submissions are "
                            "shed with 429 memory_pressure + Retry-After "
                            "(default: governor disabled)")
    serve.add_argument("--memory-low-mb", type=float, default=None,
                       metavar="MB",
                       help="memory low watermark eviction target "
                            "(default: 80%% of --memory-high-mb)")
    serve.add_argument("--shared-plan-cache", type=int, default=2048,
                       metavar="N",
                       help="entry capacity of the compiled-plan cache "
                            "shared across concurrent jobs; 0 gives each "
                            "job a private cache (default 2048)")

    bench = sub.add_parser(
        "bench",
        help="benchmark the probe scheduler across --jobs levels and write "
             "BENCH_extraction.json",
    )
    bench.add_argument("--queries", nargs="+", default=None, metavar="Q",
                       help="TPC-H query names to benchmark (default: Q1 Q3 Q6)")
    bench.add_argument("--jobs", type=int, nargs="+", default=None, metavar="N",
                       help="jobs levels to sweep (default: 1 4; 1 is always "
                            "included as the speedup base)")
    bench.add_argument("--scale", type=float, default=None,
                       help="synthetic data scale factor")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--latency-ms", type=float, default=None, metavar="MS",
                       help="simulated application round-trip latency per "
                            "physical invocation (default 4)")
    bench.add_argument("--out", metavar="FILE", default="BENCH_extraction.json",
                       help="where to write the payload "
                            "(default: BENCH_extraction.json)")
    bench.add_argument("--baseline", metavar="FILE", default=None,
                       help="compare against this committed baseline payload "
                            "and exit 1 on regression")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="tolerated fractional regression vs the baseline "
                            "(default 0.25)")
    bench.add_argument("--ledger", metavar="FILE", default=None,
                       help="persist every (query, jobs) run with its clause "
                            "evidence to this SQLite run ledger")
    bench.add_argument("--transport-overhead", action="store_true",
                       help="also measure --isolate remote (TCP loopback "
                            "worker agent) against --isolate process at "
                            "--jobs 4 and fail if the remote transport adds "
                            "more than 10%% wall-clock overhead; the result "
                            "lands in the payload's transport_overhead "
                            "section")

    verify = sub.add_parser(
        "verify",
        help="check whether a hidden query is inside the extractable class "
             "(EQC) instead of extracting it",
    )
    verify.add_argument("--workload", default="tpch", choices=WORKLOADS)
    verify.add_argument("--query", default=None, help="bundled query name, e.g. Q3")
    verify.add_argument("--sql", default=None, metavar="SQL",
                        help="ad-hoc SQL text to hide and verify")
    verify.add_argument("--certify", action="store_true",
                        help="run the bounded symbolic equivalence checker "
                             "after extraction: exit 0 with a certificate "
                             "(no distinguishing database within bounds) or "
                             "6 with a concrete counterexample database")
    verify.add_argument("--certify-rows", type=int, default=2, metavar="K",
                        help="rows per table in symbolic databases — the "
                             "bound certificates are quantified over "
                             "(default 2)")
    verify.add_argument("--certify-databases", type=int, default=512,
                        metavar="N",
                        help="cap on symbolic databases per round "
                             "(default 512)")
    verify.add_argument("--certify-rounds", type=int, default=2, metavar="N",
                        help="CEGIS rounds: counterexample -> D_I "
                             "augmentation -> re-extraction (default 2)")
    verify.add_argument("--counterexample-out", metavar="FILE", default=None,
                        help="write the distinguishing database (JSON, "
                             "replayable via repro.veriq.database_from_json) "
                             "here when certification fails")
    _common_extraction_args(verify)

    explain = sub.add_parser(
        "explain",
        help="extract a hidden query and print every clause of the result "
             "with the probe evidence that established it",
    )
    explain.add_argument("--workload", default="tpch", choices=WORKLOADS)
    explain.add_argument("--query", default=None,
                         help="bundled query name, e.g. Q3")
    explain.add_argument("--sql", default=None, metavar="SQL",
                         help="ad-hoc SQL text to hide and explain")
    explain.add_argument("--from-ledger", metavar="FILE", default=None,
                         help="re-render the report from a --ledger file "
                              "instead of re-running the extraction")
    explain.add_argument("--run", type=int, default=None, metavar="ID",
                         help="which ledger run to explain "
                              "(default: the most recent)")
    _common_extraction_args(explain)

    diff = sub.add_parser(
        "trace-diff",
        help="compare two runs (run ledgers and/or bench payloads) clause "
             "by clause and module by module",
    )
    diff.add_argument("source_a", metavar="A",
                      help="run ledger (path[@run_id]) or bench payload JSON")
    diff.add_argument("source_b", metavar="B",
                      help="run ledger (path[@run_id]) or bench payload JSON")
    diff.add_argument("--threshold", type=float, default=0.25,
                      help="fractional self-time/wall-clock drift that "
                           "triggers a WARN line (default 0.25)")
    return parser


def _common_extraction_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.002,
                        help="synthetic data scale factor (default 0.002)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--having", action="store_true",
                        help="use the restructured §7 HAVING pipeline")
    parser.add_argument("--disjunctions", action="store_true",
                        help="enable the §9 disjunction-extraction extension")
    parser.add_argument("--no-checker", action="store_true",
                        help="skip the extraction checker")
    parser.add_argument("--report", action="store_true",
                        help="print the clause-by-clause extraction report")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a hierarchical span trace (JSONL) here")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write a metrics snapshot (JSON) here")
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help="persist the run — clause evidence, module "
                             "breakdown, raw probe stream — to this SQLite "
                             "run ledger (created if missing, appended "
                             "otherwise)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="save per-module progress here and resume from "
                             "an existing checkpoint")
    parser.add_argument("--fresh", action="store_true",
                        help="discard any existing checkpoint in "
                             "--checkpoint-dir and start from scratch")
    parser.add_argument("--best-effort", action="store_true",
                        help="degrade failed non-essential modules (order by, "
                             "limit, disjunctions, checker) instead of aborting")
    parser.add_argument("--budget-invocations", type=int, default=None, metavar="N",
                        help="abort/degrade after N application invocations")
    parser.add_argument("--budget-rows-scanned", type=int, default=None, metavar="N",
                        help="abort/degrade after N engine rows scanned")
    parser.add_argument("--budget-cells", type=int, default=None, metavar="N",
                        help="abort/degrade after N synthetic cells materialized")
    parser.add_argument("--budget-seconds", type=float, default=None, metavar="S",
                        help="wall-clock budget for the whole extraction")
    parser.add_argument("--isolate", default="none",
                        choices=["none", "process", "remote"],
                        help="invocation isolation backend: 'process' runs "
                             "every application invocation in a supervised "
                             "worker subprocess with hard SIGKILL deadlines "
                             "and crash quarantine; 'remote' dispatches them "
                             "to worker agents named by --worker-peers over "
                             "a fenced, CRC-checked TCP transport "
                             "(default: none)")
    parser.add_argument("--worker-peers", metavar="HOST:PORT[,...]",
                        default=None,
                        help="comma-separated worker-agent addresses for "
                             "--isolate remote (each runs `python -m "
                             "repro.isolation.agent --listen host:port`)")
    parser.add_argument("--worker-memory-mb", type=int, default=None, metavar="MB",
                        help="address-space cap per isolation worker; an "
                             "application allocating past it dies with a "
                             "classified 'oom' crash")
    parser.add_argument("--worker-timeout", type=float, default=None, metavar="S",
                        help="hard deadline for isolated invocations that "
                             "carry no cooperative timeout (default 30)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker threads for independent probe batches; "
                             "the extracted SQL is byte-identical for any N "
                             "(default 1 = fully sequential)")
    parser.add_argument("--plan-cache-size", type=int, default=256, metavar="N",
                        help="LRU capacity of the engine's parse/plan cache, "
                             "keyed by (SQL, catalog version, catalog "
                             "digest); 0 disables it "
                             "(default 256)")
    parser.add_argument("--no-invocation-cache", action="store_true",
                        help="disable memoization of application invocations "
                             "by database fingerprint")


def _install_signal_handlers() -> None:
    """Route SIGTERM through KeyboardInterrupt so both interrupts unwind
    cleanly (checkpoints are flushed at every completed module, so the
    pipeline's ``finally`` blocks leave a resumable state behind)."""
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def main(argv: Optional[list[str]] = None, out=sys.stdout) -> int:
    args = _make_parser().parse_args(argv)
    _install_signal_handlers()
    try:
        return _dispatch(args, out)
    except PeerQuarantined as error:
        # Transport-level quarantine gets its own status: every remote peer
        # is unreachable, which is an infrastructure verdict, not a statement
        # about the hidden query.
        out.write(f"error: {error}\n")
        return 5
    except EmptyInitialResult as error:
        out.write(f"{error}; increase --scale or change --seed\n")
        return 3
    except UnwritableOutput as error:
        out.write(f"{error}\n")
        return 2
    except ReproError as error:
        # One line, no traceback: extraction failures are expected outcomes
        # (outside-EQC queries, checkpoint mismatches, exhausted retries).
        out.write(f"error: {error}\n")
        return 1
    except KeyboardInterrupt:
        # One line, no traceback, standard 128+SIGINT status.  The last
        # completed module's checkpoint is already on disk.
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        if checkpoint_dir:
            out.write(
                f"interrupted: resumable with --checkpoint-dir {checkpoint_dir}\n"
            )
        else:
            out.write(
                "interrupted: re-run with --checkpoint-dir DIR to make "
                "long extractions resumable\n"
            )
        return 130


def _dispatch(args, out) -> int:
    if args.command == "workloads":
        for name, module in workload_modules().items():
            out.write(f"{name}:\n")
            for query_name, query in module.QUERIES.items():
                out.write(f"  {query_name:<18} {query.description[:70]}\n")
        return 0
    other = {
        "trace-report": _run_trace_report,
        "trace-diff": _run_trace_diff,
        "bench": _run_bench,
        "serve": _run_serve,
    }
    if args.command in other:
        return other[args.command](args, out)
    if args.command == "explain" and args.from_ledger is not None:
        return _explain_from_ledger(args, out)
    sql = _hidden_sql(args, out)
    if sql is None:
        return 2
    if args.command == "chaos" and args.profile in MATRIX_PROFILES:
        return _run_matrix_chaos(args, out)
    return {
        "extract": _run_extraction,
        "sql": _run_extraction,
        "verify": _run_verify,
        "explain": _run_explain,
        "chaos": _run_chaos,
    }[args.command](args, sql, out)


def _hidden_sql(args, out) -> Optional[str]:
    """The SQL an extraction command hides — a workload's ``--query`` or
    the given SQL — or None once a usage line says why there is none."""
    if args.command == "sql":
        return args.query_sql
    sql = getattr(args, "sql", None)  # verify and explain take --sql too
    if args.command in ("verify", "explain") and (
        (args.query is None) == (sql is None)
    ):
        alternative = " (or --from-ledger FILE)" if args.command == "explain" else ""
        out.write(
            f"{args.command} needs exactly one of --query or --sql{alternative}\n"
        )
        return None
    if sql is not None:
        return sql
    query = find_query(args.workload, args.query)
    if query is None:
        out.write(f"unknown query {args.query!r}; try `repro workloads`\n")
        return None
    return query.sql


def _run_trace_report(args, out) -> int:
    from repro.obs import read_jsonl, render_trace_report

    try:
        spans = read_jsonl(args.trace_file)
    except (OSError, ValueError) as error:
        out.write(f"cannot read trace file: {error}\n")
        return 2
    out.write(
        render_trace_report(
            spans, top_queries=args.top, max_children=args.max_children
        )
        + "\n"
    )
    return 0


def _run_bench(args, out) -> int:
    import json

    from repro.bench.extraction_bench import (
        DEFAULT_LATENCY,
        DEFAULT_SCALE,
        compare_to_baseline,
        run_extraction_bench,
        write_payload,
    )

    latency = (
        args.latency_ms / 1000.0 if args.latency_ms is not None else DEFAULT_LATENCY
    )
    payload = run_extraction_bench(
        queries=args.queries,
        jobs_levels=args.jobs,
        scale=args.scale if args.scale is not None else DEFAULT_SCALE,
        seed=args.seed,
        latency=latency,
        progress=lambda line: out.write(f"  {line}\n"),
        ledger_path=args.ledger,
    )
    transport = None
    if args.transport_overhead:
        from repro.bench.extraction_bench import run_transport_overhead_bench

        transport = run_transport_overhead_bench(
            progress=lambda line: out.write(f"  transport {line}\n"),
        )
        payload["transport_overhead"] = transport
    write_payload(payload, args.out)
    summary = payload["summary"]
    top_jobs = summary["top_jobs"]
    out.write(f"wrote       : {args.out}\n")
    if args.ledger is not None:
        out.write(f"ledger      : {args.ledger}\n")
    out.write(
        f"speedup     : {summary['min_speedup']:.2f}x – "
        f"{summary['max_speedup']:.2f}x at --jobs {top_jobs}\n"
    )
    latency_pct = summary.get("invocation_latency") or {}
    if latency_pct:
        out.write(
            "latency     : "
            + ", ".join(
                f"{name} {value * 1000.0:.1f}ms"
                for name, value in latency_pct.items()
            )
            + f" per invocation at --jobs {top_jobs}\n"
        )
    top_runs = [
        run
        for row in payload["queries"]
        for run in row["runs"]
        if run["jobs"] == top_jobs
    ]
    if top_runs:
        plan_rate = sum(r["plan_cache_hit_rate"] for r in top_runs) / len(top_runs)
        inv_rate = sum(
            r["invocation_cache_hit_rate"] for r in top_runs
        ) / len(top_runs)
        out.write(
            f"caches      : plan {plan_rate:.0%} hit, invocation "
            f"{inv_rate:.0%} hit at --jobs {top_jobs}\n"
        )
        respawns = sum(
            (r.get("workers") or {}).get("respawns", 0) for r in top_runs
        )
        quarantines = sum(
            (r.get("workers") or {}).get("quarantined", 0) for r in top_runs
        )
        if any(r.get("workers") for r in top_runs):
            out.write(
                f"workers     : {respawns} respawns, "
                f"{quarantines} quarantined\n"
            )
    if transport is not None:
        out.write(
            f"transport   : remote {transport['remote_seconds']:.2f}s vs "
            f"process {transport['process_seconds']:.2f}s "
            f"({transport['overhead_fraction']:+.1%} overhead, budget "
            f"{transport['max_overhead']:.0%}, sql "
            + ("identical" if transport["sql_identical"] else "DIVERGED")
            + ")\n"
        )
    out.write(
        "determinism : sql "
        + ("identical" if summary["all_sql_identical"] else "DIVERGED")
        + ", invocations "
        + ("identical" if summary["all_invocations_identical"] else "DIVERGED")
        + "\n"
    )
    if not (summary["all_sql_identical"] and summary["all_invocations_identical"]):
        return 1
    if transport is not None and not transport["within_budget"]:
        return 1
    if args.baseline is not None:
        try:
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as error:
            out.write(f"cannot read baseline: {error}\n")
            return 2
        problems = compare_to_baseline(
            payload, baseline, max_regression=args.max_regression
        )
        for problem in problems:
            out.write(f"regression  : {problem}\n")
        if problems:
            return 1
        out.write(
            f"baseline    : no regression beyond {args.max_regression:.0%} "
            f"vs {args.baseline}\n"
        )
    return 0


def _run_trace_diff(args, out) -> int:
    from repro.obs.diff import render_diff

    try:
        text, warnings = render_diff(
            args.source_a, args.source_b, threshold=args.threshold
        )
    except (OSError, ValueError) as error:
        out.write(f"cannot diff: {error}\n")
        return 2
    out.write(text + "\n")
    return 0


def config_from_args(args, **overrides) -> ExtractionConfig:
    """The :class:`ExtractionConfig` an extraction command's common flags
    describe, with a command's own ``overrides`` on top."""
    fields = {
        "extract_having": args.having,
        "extract_disjunctions": args.disjunctions,
        "run_checker": not args.no_checker,
        "fail_fast": not args.best_effort,
        "budget_invocations": args.budget_invocations,
        "budget_rows_scanned": args.budget_rows_scanned,
        "budget_cells": args.budget_cells,
        "budget_seconds": args.budget_seconds,
        "isolate": args.isolate,
        "worker_memory_limit_mb": args.worker_memory_mb,
        "jobs": args.jobs,
        "plan_cache_size": args.plan_cache_size,
        "invocation_cache": not args.no_invocation_cache,
    }
    if args.worker_timeout is not None:
        fields["worker_default_timeout"] = args.worker_timeout
    if args.worker_peers:
        fields["worker_peers"] = tuple(
            peer.strip() for peer in args.worker_peers.split(",") if peer.strip()
        )
    fields.update(overrides)
    return ExtractionConfig(**fields)


def _records(args, out, pad: int) -> dict:
    """The front-door arguments an extraction command's flags give: its
    checkpoint, trace, metrics and ledger outputs, and the warning line a
    dropped ledger prints (``pad`` aligns it with the command's labels)."""
    return {
        "checkpoint_dir": args.checkpoint_dir,
        "trace_out": args.trace_out,
        "metrics_out": args.metrics_out,
        "ledger": args.ledger,
        "label": args.command,
        "workload": args.workload,
        "query_name": getattr(args, "query", None) or "",
        "on_ledger_error": lambda error: out.write(
            f"{'warning':<{pad}}: ledger dropped, run not recorded: {error}\n"
        ),
    }


def _write_records(args, run, out, pad: int, ledger=True, files=True) -> None:
    """The lines naming where a run's ledger row, trace and metrics went."""
    if ledger and run.ledger_run is not None:
        out.write(f"{'ledger':<{pad}}: run {run.ledger_run} -> {args.ledger}\n")
    if files and args.trace_out:
        out.write(
            f"{'trace':<{pad}}: {len(run.tracer.spans)} spans -> "
            f"{args.trace_out}\n"
        )
    if files and args.metrics_out:
        out.write(f"{'metrics':<{pad}}: -> {args.metrics_out}\n")


def _run_command(args, sql: str, out, name: str, config, pad: int, **kwargs):
    """One extraction of ``sql`` on the command's instance, through the
    front door (:func:`~repro.core.pipeline.run_extraction`)."""
    return run_extraction(
        _build_database(args.workload, args.scale, args.seed),
        SQLExecutable(sql, obfuscate_text=True, name=name),
        config,
        before_extract=lambda run_id: _clear_checkpoint_if_fresh(args, out),
        **_records(args, out, pad),
        **kwargs,
    )


def _clear_checkpoint_if_fresh(args, out) -> None:
    if getattr(args, "fresh", False) and args.checkpoint_dir is not None:
        from repro.resilience.checkpoint import CheckpointStore

        store = CheckpointStore(args.checkpoint_dir)
        if store.exists():
            out.write(f"fresh       : discarded checkpoint {store.path}\n")
        store.clear()


def _run_extraction(args, sql: str, out) -> int:
    run = _run_command(args, sql, out, "cli-app", config_from_args(args), 12)
    _write_records(args, run, out, 12)
    outcome = run.outcome
    if outcome.sql:
        out.write(f"{outcome.sql}\n\n")
    if args.report:
        out.write(outcome.describe() + "\n\n")
    out.write(f"invocations : {outcome.stats.total_invocations}\n")
    out.write(f"wall-clock  : {outcome.stats.total_seconds:.2f}s\n")
    for module_name, seconds in outcome.stats.breakdown().items():
        out.write(f"  {module_name:<14} {seconds:.3f}s\n")
    if outcome.stats.retries:
        out.write(f"retries     : {outcome.stats.retries}\n")
    if outcome.resumed_modules:
        out.write(
            "resumed     : skipped " + ", ".join(outcome.resumed_modules) + "\n"
        )
    for degradation in outcome.degradations:
        out.write(f"degraded    : {degradation}\n")
    if outcome.checker_report is not None:
        verdict = "passed" if outcome.checker_report.passed else "FAILED"
        out.write(
            f"checker     : {verdict} "
            f"({outcome.checker_report.databases_checked} databases)\n"
        )
    if outcome.budget is not None:
        out.write(
            f"budget      : {outcome.budget['invocations']} invocations, "
            f"{outcome.budget['rows_scanned']} rows scanned, "
            f"{outcome.budget['cells_materialized']} cells, "
            f"{outcome.budget['wall_seconds']:.3f}s\n"
        )
    if outcome.verdict != "ok":
        out.write(f"verdict     : {outcome.verdict}\n")
    return 4 if outcome.verdict == "out_of_class" else 0


def _run_verify(args, sql: str, out) -> int:
    """Answer "is this hidden query extractable?" without emitting wrong SQL.

    Exit status: 0 = in_class (extraction succeeded and cross-validated;
    with ``--certify``, additionally certified equivalent within bounds),
    4 = out_of_class, 6 = ``--certify`` found an unresolved counterexample,
    1 = the run itself failed, 3 = empty initial result.
    """
    config = config_from_args(
        args,
        eqc_guard=True,
        out_of_class_action="verdict",
        # keep the checker's report flowing into the post-flight guard
        # instead of aborting the run on the first mismatch
        checker_strict=False,
        certify=args.certify,
        certify_rows=args.certify_rows,
        certify_databases=args.certify_databases,
        certify_rounds=args.certify_rounds,
    )
    run = _run_command(args, sql, out, "verify-app", config, 12)
    _write_records(args, run, out, 12)
    outcome = run.outcome
    out.write(f"verdict     : {outcome.verdict}\n")
    if outcome.eqc is not None:
        out.write(outcome.eqc.describe() + "\n")
    out.write(f"invocations : {outcome.stats.total_invocations}\n")
    if outcome.verdict == "out_of_class":
        out.write("no SQL emitted: the hidden query is outside EQC\n")
        return 4
    if args.report:
        out.write("\n" + outcome.describe() + "\n")
    if outcome.sql:
        out.write(f"{outcome.sql}\n")
    if outcome.certify is not None:
        return _report_certify(args, outcome.certify, out)
    return 0


def _report_certify(args, certify: dict, out) -> int:
    """Render the verifier's verdict; exit 6 on an unresolved counterexample."""
    from repro.veriq import CertifyReport

    report = CertifyReport(**certify)
    out.write(f"certify     : {report.describe()}\n")
    if report.verdict == "counterexample" and report.counterexample:
        if args.counterexample_out:
            import json

            with open(args.counterexample_out, "w", encoding="utf-8") as fh:
                json.dump(report.counterexample, fh, indent=1, default=str)
            out.write(f"counterexample -> {args.counterexample_out}\n")
        return 6
    return 0


def _run_explain(args, sql: str, out) -> int:
    """``repro explain``: every clause of ``Q_E`` with its evidence chain.

    Two modes: run a fresh extraction with the provenance recorder attached
    (``--query``/``--sql``), or re-render the stored clause table from a
    ``--from-ledger`` file without executing anything
    (:func:`_explain_from_ledger`).
    """
    from repro.obs.provenance import (
        clause_evidence,
        eqc_clause_confidence,
        render_explain,
    )

    run = _run_command(
        args, sql, out, "explain-app", config_from_args(args), 0,
        provenance=True,
    )
    _write_records(args, run, out, 0)
    outcome = run.outcome
    if outcome.query is None:
        out.write(f"verdict: {outcome.verdict}\n")
        out.write("no SQL emitted: nothing to explain\n")
        return 4 if outcome.verdict == "out_of_class" else 1
    rows = clause_evidence(
        outcome.query,
        run.provenance.events,
        clause_confidence=eqc_clause_confidence(outcome),
    )
    header = (
        f"workload {args.workload}, query {args.query}"
        if args.query
        else f"workload {args.workload}, ad-hoc sql"
    ) + f", --jobs {args.jobs}"
    out.write(
        render_explain(
            rows,
            sql=outcome.sql,
            header=header,
            total_probes=run.provenance.probe_count,
        )
        + "\n"
    )
    if args.report:
        out.write(outcome.describe() + "\n")
    return 4 if outcome.verdict == "out_of_class" else 0


def _explain_from_ledger(args, out) -> int:
    from repro.obs.ledger import RunLedger
    from repro.obs.provenance import ClauseEvidence, render_explain

    try:
        with RunLedger(args.from_ledger) as ledger:
            run = ledger.run(args.run)
            if run is None:
                out.write(
                    f"no such run in {args.from_ledger}"
                    + (f": {args.run}" if args.run is not None else " (empty ledger)")
                    + "\n"
                )
                return 2
            stored = ledger.clauses(run["run_id"])
            probe_count = sum(
                1 for e in ledger.events(run["run_id"]) if e.kind == "probe"
            )
    except (OSError, ValueError) as error:
        out.write(f"cannot read ledger: {error}\n")
        return 2
    rows = []
    for record in stored:
        row = ClauseEvidence(record["clause"], record["target"])
        row.module = record["module"]
        row.action = record["action"]
        row.probes = record["probes"]
        if record["first_seq"] is not None:
            row.evidence = (record["first_seq"], record["last_seq"])
        row.cached = record["cached"]
        row.speculative = record["speculative"]
        row.isolated = record["isolated"]
        row.confidence = record["confidence"]
        rows.append(row)
    header = (
        f"run {run['run_id']} ({run['label']}, {run['workload']} "
        f"{run['query_name'] or 'ad-hoc'}, --jobs {run['jobs']}, "
        f"status {run['status']})"
    )
    out.write(
        render_explain(
            rows, sql=run["sql"], header=header, total_probes=probe_count
        )
        + "\n"
    )
    return 0


def _parse_serve_workers(value: str) -> tuple[int, tuple]:
    """``--workers`` is an int (thread count) or a host:port peer list.

    Returns ``(worker_threads, remote_peers)``; with peers, the thread count
    is the peer count so each remote agent can serve one extraction.
    """
    text = str(value).strip()
    if text.isdigit():
        return int(text), ()
    peers = tuple(peer.strip() for peer in text.split(",") if peer.strip())
    if not peers or not all(":" in peer for peer in peers):
        raise ValueError(
            f"--workers expects an integer or host:port[,host:port...], "
            f"got {value!r}"
        )
    return len(peers), peers


def _run_serve(args, out) -> int:
    """Run the extraction service until SIGTERM/SIGINT, then drain and exit 0.

    The drain contract: stop admitting (503 ``draining``), ask every
    in-flight pipeline to pause at its next module boundary (journaled
    ``checkpointed``), leave queued jobs journaled, and exit once the
    workers are idle or ``--drain-grace`` elapses.  A later ``repro serve``
    on the same ``--journal``/``--checkpoint-root`` resumes everything.
    """
    import signal
    import threading

    from repro.serve.api import create_server
    from repro.serve.breaker import CircuitBreaker
    from repro.serve.service import ExtractionService
    from repro.serve.tenants import TenantPolicy

    try:
        worker_threads, remote_peers = _parse_serve_workers(args.workers)
    except ValueError as error:
        out.write(f"{error}\n")
        return 2
    service = ExtractionService(
        args.journal,
        args.checkpoint_root,
        queue_capacity=args.queue_capacity,
        workers=worker_threads,
        remote_peers=remote_peers,
        tenant_policy=TenantPolicy(
            max_queued=args.tenant_max_queued,
            max_invocations=args.tenant_max_invocations,
            max_seconds=args.tenant_max_seconds,
            quarantine_threshold=args.tenant_quarantine_threshold,
        ),
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        ),
        ledger_path=args.ledger,
        memory_high_mb=args.memory_high_mb,
        memory_low_mb=args.memory_low_mb,
        shared_plan_cache_size=args.shared_plan_cache,
    )
    recovered = service.start()
    if recovered:
        out.write(
            f"recovered   : requeued {len(recovered)} interrupted jobs "
            f"({', '.join(recovered)})\n"
        )
    httpd = create_server(service, args.host, args.port)
    host, port = httpd.server_address[0], httpd.server_address[1]
    out.write(f"serve       : listening on http://{host}:{port}\n")
    if remote_peers:
        out.write(f"peers       : {', '.join(remote_peers)}\n")
    out.write(f"journal     : {service.journal.path}\n")
    out.flush()

    stopping = threading.Event()

    def _graceful_stop(signum, frame):
        # Can't shut the server down from its own signal handler (it runs on
        # the serve_forever thread); hand off to a drain thread that stops
        # the listener once in-flight jobs finished or checkpointed.
        if stopping.is_set():
            return
        stopping.set()

        def _drain_then_stop():
            service.drain(timeout=args.drain_grace)
            httpd.shutdown()

        threading.Thread(target=_drain_then_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful_stop)
    signal.signal(signal.SIGINT, _graceful_stop)
    try:
        httpd.serve_forever(poll_interval=0.2)
    finally:
        httpd.server_close()
        service.drain(timeout=args.drain_grace)
        counts = service.journal.counts()
        summary = ", ".join(f"{state}={n}" for state, n in sorted(counts.items()))
        out.write(f"drained     : {summary or 'no jobs'}\n")
        service.close()
    return 0


def _run_matrix_chaos(args, out) -> int:
    """The survival-matrix profiles: exit 0 iff every cell survived."""
    import functools
    import tempfile

    from repro.resilience import chaos

    cells = {
        "disk": chaos.disk_cells,
        "net": functools.partial(chaos.net_cells, fast=args.fast),
        "serve-kill": functools.partial(
            chaos.serve_kill_cells, serve_jobs=args.serve_jobs, kills=args.kills
        ),
    }[args.profile]
    report = chaos.run_matrix(
        args.profile,
        cells,
        args.query,
        workload=args.workload,
        scale=args.scale,
        seed=args.seed,
        chaos_seed=args.chaos_seed,
        workdir=args.serve_dir
        or tempfile.mkdtemp(prefix=f"repro-{args.profile}-chaos-"),
        out=out,
    )
    return 0 if report["survived"] else 1


def _run_chaos(args, sql: str, out) -> int:
    """Extract under fault injection; exit 0 iff the run *survives*.

    Survival means the faulted extraction completes and produces SQL
    identical to a fault-free run on the same instance.  With ``--crash-at``
    the run is additionally killed mid-pipeline and auto-resumed from the
    checkpoint, proving per-module resume end to end.
    """
    import dataclasses

    from repro.obs import MetricsRegistry
    from repro.resilience.faults import (
        FAULT_PROFILES,
        HARD_FAULT_PROFILES,
        FaultyExecutable,
        InjectedCrashError,
    )

    if args.crash_at is not None and args.checkpoint_dir is None:
        out.write("--crash-at needs --checkpoint-dir to resume from\n")
        return 2
    if args.profile in HARD_FAULT_PROFILES and args.isolate != "process":
        out.write(
            f"profile {args.profile!r} injects hard faults (process kills, "
            "busy-loop hangs) that only the isolated backend survives; "
            "re-run with --isolate process\n"
        )
        return 2

    # the faulted run writes the outputs; refuse them before the baseline
    check_writable(args.trace_out, args.metrics_out)
    db = _build_database(args.workload, args.scale, args.seed)
    plan = FAULT_PROFILES[args.profile].with_seed(args.chaos_seed)
    config = config_from_args(args)
    # the fault-free baseline runs in-process and fails fast
    baseline = run_extraction(
        db,
        SQLExecutable(sql, obfuscate_text=True, name="chaos-baseline"),
        dataclasses.replace(config, isolate="none", fail_fast=True),
        before_extract=lambda run_id: _clear_checkpoint_if_fresh(args, out),
    ).outcome

    chaos_config = dataclasses.replace(
        config,
        retry_max_attempts=args.max_attempts,
        retry_base_delay=0.0,  # chaos runs should not actually sleep
        retry_timeouts=plan.injects_timeouts,
    )
    faulty = FaultyExecutable(
        SQLExecutable(sql, obfuscate_text=True, name="chaos-app"),
        dataclasses.replace(plan, crash_at=args.crash_at),
    )

    def crash_and_resume(make):
        # Both attempts share the front door's tracer and recorder, so the
        # ledger keeps one evidence stream for the whole survived run,
        # partial history before the crash included.
        nonlocal faulty
        try:
            return make(faulty).extract()
        except InjectedCrashError:
            out.write(
                f"crashed        : invocation {faulty.invocation_count} "
                "(injected); resuming from checkpoint\n"
            )
            faulty = FaultyExecutable(
                SQLExecutable(sql, obfuscate_text=True, name="chaos-app"), plan
            )
            return make(faulty).extract()

    out.write(f"profile        : {plan.name} (chaos seed {plan.seed})\n")
    try:
        run = run_extraction(
            db, faulty, chaos_config,
            refuse_empty=False,  # the baseline has refused an empty result
            metrics=MetricsRegistry(),
            drive=crash_and_resume,
            **_records(args, out, 15),
        )
    except ReproError as error:
        out.write(f"died           : {type(error).__name__}: {error}\n")
        out.write("survived       : no\n")
        return 1
    _write_records(args, run, out, 15, files=False)
    outcome = run.outcome

    injected = ", ".join(f"{k}={v}" for k, v in faulty.injected.items())
    matches = outcome.sql == baseline.sql
    survived = matches and (args.best_effort or not outcome.degradations)
    out.write(f"faults injected: {injected}\n")
    backend = run.extractor.session.backend
    if backend is not None:
        pool_stats = backend.pool.stats
        out.write(
            f"worker pool    : {pool_stats.invocations} invocations, "
            f"{pool_stats.crashes} crashes, {pool_stats.kills} kills, "
            f"{pool_stats.restarts} restarts, "
            f"rss peak {pool_stats.rss_peak_bytes / (1024 * 1024):.0f}MiB\n"
        )
    out.write(f"invocations    : {outcome.stats.total_invocations}\n")
    out.write(f"retries        : {outcome.stats.retries}\n")
    out.write(f"timeouts       : {outcome.stats.invocation_timeouts}\n")
    if outcome.resumed_modules:
        out.write(
            "resumed        : skipped " + ", ".join(outcome.resumed_modules) + "\n"
        )
    if outcome.degradations:
        for degradation in outcome.degradations:
            out.write(f"degraded       : {degradation}\n")
    else:
        out.write("degradations   : (none)\n")
    if args.report:
        out.write(outcome.describe() + "\n")
    _write_records(args, run, out, 15, ledger=False)
    out.write(f"sql matches fault-free run : {'yes' if matches else 'no'}\n")
    if not matches:
        out.write(f"  fault-free : {baseline.sql}\n")
        out.write(f"  faulted    : {outcome.sql}\n")
    out.write(f"survived       : {'yes' if survived else 'no'}\n")
    return 0 if survived else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
