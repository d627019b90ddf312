"""The extraction-scheduler benchmark behind ``repro bench``.

Measures end-to-end extraction wall-clock at different ``--jobs`` settings
against the *same* hidden queries and asserts the scheduler's determinism
contract on the way: the extracted SQL and the logical invocation count must
be byte-identical at every parallelism level (DESIGN.md §5.14).

The hidden application is a :class:`LatencySQLExecutable` — a SQL executable
that sleeps a fixed per-invocation latency before executing.  This models
the regime the paper actually operates in (each probe crosses an
application + DBMS round-trip costing milliseconds) rather than our
in-memory engine's microsecond probes, where Python's GIL would mask any
thread-level overlap.  The latency is charged per *physical* execution, so
invocation-cache hits skip it exactly like a real cache skips the
round-trip.

Output is a machine-readable payload written to ``BENCH_extraction.json``
at the repo root: per-query wall-clock, invocations, plan/invocation-cache
hit rates, and the speedup of each ``jobs`` level over ``jobs=1``.
``compare_to_baseline`` turns a committed ``benchmarks/baseline.json`` into
a CI gate: wall-clock, invocation-count, speedup, or hit-rate regressions
beyond the tolerance fail the run.
"""

from __future__ import annotations

import json
import time
from typing import Optional

from repro.apps.executable import SQLExecutable
from repro.core.config import ExtractionConfig
from repro.core.pipeline import run_extraction
from repro.engine.database import Database

#: join-heavy queries whose probe mix concentrates in the parallel phases
#: (filters / projections / group-by fan-out, speculated minimizer chains);
#: aggregate-dense queries like Q1 spend proportionally more in the
#: RNG-sequential function-identification solver and show less speedup.
DEFAULT_QUERIES = ("Q3", "Q14", "Q19")
DEFAULT_JOBS = (1, 4)
DEFAULT_LATENCY = 0.025  # 25 ms per physical invocation
DEFAULT_SCALE = 0.0002
DEFAULT_SEED = 7


class LatencySQLExecutable(SQLExecutable):
    """A hidden SQL query with a fixed per-invocation round-trip latency.

    The sleep sits inside ``_execute`` so it is paid by exactly the physical
    executions — counted runs, speculative probes, and retries alike — while
    memo hits (which skip ``_execute`` entirely) skip it, the same way a
    real invocation cache saves the application round-trip.
    """

    def __init__(self, sql: str, latency: float, name: str = "bench-app"):
        super().__init__(sql, obfuscate_text=True, name=name)
        self.latency = latency

    def _execute(self, db, timeout):
        if self.latency > 0.0:
            time.sleep(self.latency)
        return super()._execute(db, timeout)


def _bench_config(jobs: int) -> ExtractionConfig:
    return ExtractionConfig(
        jobs=jobs,
        plan_cache_size=256,
        invocation_cache=True,
        # the checker re-runs the app on freshly generated instances; it is
        # not scheduler work and would dilute the measured probe phases
        run_checker=False,
        # at bench scale the tables are already small enough that the serial
        # sampling prepass only moves halving work out of the (speculated,
        # hence overlapped) minimizer chain
        minimizer_sampling=False,
    )


def _latency_percentiles(metrics) -> dict:
    """Rounded invocation-latency percentiles, or {} when none were timed."""
    if "invocation_latency_seconds" not in metrics:
        return {}
    histogram = metrics.histogram("invocation_latency_seconds")
    if not histogram.count:
        return {}
    return {
        name: round(value, 6) for name, value in histogram.percentiles().items()
    }


def run_extraction_bench(
    queries: Optional[list[str]] = None,
    jobs_levels: Optional[list[int]] = None,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    latency: float = DEFAULT_LATENCY,
    db: Optional[Database] = None,
    progress=None,
    ledger_path: Optional[str] = None,
) -> dict:
    """Run the benchmark matrix and return the ``BENCH_extraction`` payload.

    ``ledger_path`` persists every (query, jobs) run — with its clause
    evidence and per-module breakdown — to a :class:`~repro.obs.ledger.RunLedger`,
    so ``repro trace-diff`` can compare bench runs across commits.
    """
    from repro.datagen import tpch
    from repro.obs import MetricsRegistry
    from repro.workloads import tpch_queries

    queries = list(queries or DEFAULT_QUERIES)
    jobs_levels = list(jobs_levels or DEFAULT_JOBS)
    if 1 not in jobs_levels:
        jobs_levels = [1] + jobs_levels
    if db is None:
        db = tpch.build_database(scale=scale, seed=seed)

    top_jobs = max(jobs_levels)
    top_latency = MetricsRegistry()  # merged across every top-jobs run
    rows = []
    for query_name in queries:
        query = tpch_queries.QUERIES[query_name]
        runs = []
        for jobs in jobs_levels:
            metrics = MetricsRegistry()
            extraction = run_extraction(
                db,
                LatencySQLExecutable(
                    query.sql, latency=latency, name=f"bench-{query_name}"
                ),
                _bench_config(jobs),
                # no empty-result probe: it would pay a round-trip and warm
                # the plan cache ahead of the measured extraction
                refuse_empty=False,
                metrics=metrics,
                ledger=ledger_path,
                label="bench",
                workload="tpch",
                query_name=query_name,
            )
            outcome, seconds = extraction.outcome, extraction.seconds
            caches = outcome.caches or {}
            modules = {
                name: {
                    "seconds": round(stats.seconds, 6),
                    "invocations": stats.invocations,
                }
                for name, stats in outcome.stats.modules.items()
            }
            run = {
                "jobs": jobs,
                "seconds": round(seconds, 6),
                "invocations": outcome.stats.total_invocations,
                "sql": outcome.sql,
                "plan_cache_hit_rate": round(
                    (caches.get("plan_cache") or {}).get("hit_rate", 0.0), 6
                ),
                "invocation_cache_hit_rate": round(
                    (caches.get("invocation_cache") or {}).get("hit_rate", 0.0),
                    6,
                ),
                "scheduler": caches.get("scheduler") or {},
                "modules": modules,
                "latency_percentiles": _latency_percentiles(metrics),
            }
            workers = caches.get("workers")
            if workers:
                run["workers"] = workers
            runs.append(run)
            if jobs == top_jobs:
                top_latency.merge(metrics)
            if progress is not None:
                progress(
                    f"{query_name} --jobs {jobs}: {seconds:.2f}s, "
                    f"{outcome.stats.total_invocations} invocations"
                )
        base = runs[0]
        for run in runs:
            run["speedup_vs_jobs1"] = round(
                base["seconds"] / run["seconds"] if run["seconds"] > 0 else 0.0, 4
            )
        rows.append(
            {
                "query": query_name,
                "identical_sql": all(r["sql"] == base["sql"] for r in runs),
                "identical_invocations": all(
                    r["invocations"] == base["invocations"] for r in runs
                ),
                "runs": runs,
            }
        )
    top_speedups = [
        run["speedup_vs_jobs1"]
        for row in rows
        for run in row["runs"]
        if run["jobs"] == top_jobs
    ]
    payload = {
        "benchmark": "extraction-scheduler",
        "workload": "tpch",
        "scale": scale,
        "seed": seed,
        "latency_seconds": latency,
        "jobs_levels": jobs_levels,
        "queries": rows,
        "summary": {
            "top_jobs": top_jobs,
            "min_speedup": round(min(top_speedups), 4),
            "max_speedup": round(max(top_speedups), 4),
            "all_sql_identical": all(row["identical_sql"] for row in rows),
            "all_invocations_identical": all(
                row["identical_invocations"] for row in rows
            ),
            "invocation_latency": _latency_percentiles(top_latency),
        },
    }
    return payload


def run_transport_overhead_bench(
    query: str = "Q6",
    scale: float = 0.0005,
    seed: int = 11,
    jobs: int = 4,
    latency: float = 0.004,
    repeats: int = 2,
    max_overhead: float = 0.10,
    progress=None,
) -> dict:
    """Measure ``--isolate remote`` (TCP loopback) vs ``--isolate process``.

    Both legs run the same extraction through supervised workers at the same
    ``jobs`` level; the only difference is the wire between supervisor and
    worker (pipes vs CRC-framed TCP plus heartbeats and fencing).  Best-of-
    ``repeats`` wall-clock per leg damps scheduler noise.  The payload
    asserts byte-identical SQL and an overhead fraction under
    ``max_overhead``.
    """
    import dataclasses

    from repro.datagen import tpch
    from repro.isolation.agent import WorkerAgent
    from repro.workloads import tpch_queries

    sql = tpch_queries.QUERIES[query].sql
    db = tpch.build_database(scale=scale, seed=seed)
    base_config = _bench_config(jobs)

    def leg(config, label):
        best = None
        leg_sql = None
        for attempt in range(max(1, repeats)):
            app = LatencySQLExecutable(
                sql, latency=latency, name=f"bench-transport-{label}"
            )
            extraction = run_extraction(db, app, config, refuse_empty=False)
            seconds = extraction.seconds
            best = seconds if best is None else min(best, seconds)
            leg_sql = extraction.outcome.sql
            if progress is not None:
                progress(f"{label} run {attempt + 1}: {seconds:.2f}s")
        return best, leg_sql

    agent = WorkerAgent()
    address = agent.start()
    try:
        process_seconds, process_sql = leg(
            dataclasses.replace(base_config, isolate="process"), "process"
        )
        remote_seconds, remote_sql = leg(
            dataclasses.replace(
                base_config, isolate="remote", worker_peers=(address,)
            ),
            "remote",
        )
    finally:
        agent.stop()
    overhead = (remote_seconds - process_seconds) / process_seconds
    return {
        "query": query,
        "scale": scale,
        "seed": seed,
        "jobs": jobs,
        "latency_seconds": latency,
        "repeats": repeats,
        "process_seconds": round(process_seconds, 6),
        "remote_seconds": round(remote_seconds, 6),
        "overhead_fraction": round(overhead, 6),
        "max_overhead": max_overhead,
        "sql_identical": process_sql == remote_sql,
        "within_budget": overhead < max_overhead and process_sql == remote_sql,
    }


def write_payload(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare_to_baseline(
    payload: dict, baseline: dict, max_regression: float = 0.25
) -> list[str]:
    """Regression gate for CI: the committed baseline vs a fresh payload.

    Wall-clock and speedup tolerate ``max_regression`` (CI machines are
    noisy); invocation counts are deterministic by contract, so *any* growth
    beyond the tolerance is a real scheduling/caching regression, and the
    determinism booleans must simply hold.
    """
    problems: list[str] = []
    if not payload["summary"]["all_sql_identical"]:
        problems.append("extracted SQL differs across --jobs levels")
    if not payload["summary"]["all_invocations_identical"]:
        problems.append("logical invocation counts differ across --jobs levels")

    baseline_rows = {row["query"]: row for row in baseline.get("queries", [])}
    for row in payload["queries"]:
        base_row = baseline_rows.get(row["query"])
        if base_row is None:
            continue
        base_runs = {run["jobs"]: run for run in base_row["runs"]}
        for run in row["runs"]:
            base_run = base_runs.get(run["jobs"])
            if base_run is None:
                continue
            label = f"{row['query']} --jobs {run['jobs']}"
            limit = base_run["seconds"] * (1.0 + max_regression)
            if run["seconds"] > limit:
                problems.append(
                    f"{label}: wall-clock {run['seconds']:.3f}s exceeds "
                    f"baseline {base_run['seconds']:.3f}s by more than "
                    f"{max_regression:.0%}"
                )
            if run["invocations"] > base_run["invocations"] * (1.0 + max_regression):
                problems.append(
                    f"{label}: {run['invocations']} invocations vs baseline "
                    f"{base_run['invocations']} (> {max_regression:.0%} growth)"
                )
            floor = base_run["speedup_vs_jobs1"] * (1.0 - max_regression)
            if run["speedup_vs_jobs1"] < floor:
                problems.append(
                    f"{label}: speedup {run['speedup_vs_jobs1']:.2f}x below "
                    f"baseline {base_run['speedup_vs_jobs1']:.2f}x tolerance"
                )
            for key in ("plan_cache_hit_rate", "invocation_cache_hit_rate"):
                if base_run.get(key, 0.0) > 0.0 and run.get(key, 0.0) <= 0.0:
                    problems.append(f"{label}: {key} dropped to zero")
    return problems
