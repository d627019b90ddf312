"""Extraction configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExtractionConfig:
    """Tuning parameters for the UNMASQUE pipeline.

    Defaults follow the paper's choices where it states them (halving the
    currently *largest* table) and pragmatic values elsewhere.
    """

    #: RNG seed for all randomized probes (s-value picks, checker databases).
    seed: int = 20210620

    #: Per-probe execution timeout (seconds) during From-clause extraction.
    from_clause_timeout: float = 0.1

    #: Run the sampling pre-pass before iterative halving (paper §4.2).
    minimizer_sampling: bool = True

    #: Which table to halve next: "largest" (paper's winner), "smallest",
    #: "random", or "round_robin" (ablation choices, §4.2).
    halving_policy: str = "largest"

    #: Extract a HAVING clause using the restructured pipeline (§7).
    extract_having: bool = False

    #: Refine filters into witnessed disjunctions (IN-lists / interval
    #: unions) — the §9 future-work extension; see repro.core.disjunctions.
    extract_disjunctions: bool = False

    #: Probe for IS NULL / IS NOT NULL predicates (deferred by the paper to
    #: its technical report).  Off by default: the probe is ambiguous for
    #: queries where the tested column feeds *every* output (DESIGN.md §5).
    extract_null_predicates: bool = False

    #: Run the extraction checker at the end of the pipeline.
    run_checker: bool = True

    #: Fail extraction (raise) if the checker finds a mismatch.
    checker_strict: bool = True

    # -- fault tolerance (repro.resilience) --------------------------------

    #: Attempts per black-box invocation (1 disables retrying).  Transient
    #: failures never occur with in-process executables, so the default
    #: changes nothing for deterministic runs.
    retry_max_attempts: int = 3

    #: First retry backoff delay, seconds (0 disables sleeping entirely).
    retry_base_delay: float = 0.01

    #: Also retry invocation timeouts.  Off by default: during From-clause
    #: identification a timeout is a *signal* (table not referenced); turn
    #: this on when the environment can hang spuriously (retried timeouts
    #: still surface after ``retry_max_attempts``, so the signal survives).
    retry_timeouts: bool = False

    #: Abort on the first module failure.  With False, a *non-essential*
    #: module (disjunctions, order by, limit, checker) that exhausts its
    #: retries is recorded as a structured degradation on the outcome and
    #: the pipeline carries on — best-effort extraction.
    fail_fast: bool = True

    # -- resource budgets (repro.resilience.budgets) ------------------------

    #: Per-run cap on black-box invocations (None = unlimited).
    budget_invocations: int | None = None

    #: Per-run cap on engine rows scanned (None = unlimited).
    budget_rows_scanned: int | None = None

    #: Per-run cap on synthetic-DB cells materialized (None = unlimited).
    budget_cells: int | None = None

    #: Per-run wall-clock budget, seconds (None = unlimited).
    budget_seconds: float | None = None

    # -- process isolation (repro.isolation) ---------------------------------

    #: Invocation isolation backend: "none" runs the application in-process
    #: (today's fast path, byte-identical); "process" executes every
    #: invocation in a supervised worker subprocess with hard SIGKILL
    #: deadlines, an optional memory cap, and crash quarantine; "remote"
    #: dispatches invocations to worker agents listed in ``worker_peers``
    #: over the fenced TCP transport (DESIGN.md §5.18).
    isolate: str = "none"

    #: Worker address-space cap, MiB (None = uncapped).  Enforced with
    #: ``resource.setrlimit(RLIMIT_AS)``; an application allocating past it
    #: dies with a classified ``oom`` crash instead of taking the extraction
    #: down.
    worker_memory_limit_mb: int | None = None

    #: Hard wall-clock deadline (seconds) for isolated invocations that carry
    #: no cooperative timeout of their own.
    worker_default_timeout: float = 30.0

    #: Slack (seconds) between the cooperative engine deadline and the
    #: supervisor's SIGKILL, so clean engine-side timeouts win the race and
    #: the kill only fires on real hangs.
    worker_kill_grace: float = 1.0

    #: Consecutive abnormal worker exits before the executable is quarantined
    #: (structured :class:`~repro.errors.WorkerQuarantined`).
    worker_quarantine_threshold: int = 4

    #: Total worker respawns allowed per extraction before quarantine.
    worker_max_respawns: int = 128

    # -- remote isolation transport (repro.isolation.remote) -----------------

    #: ``host:port`` worker-agent addresses for ``isolate="remote"``.
    #: Connections round-robin across peers; a peer whose reconnect budget is
    #: spent is failed over transparently.
    worker_peers: tuple = ()

    #: Idle-connection heartbeat period, seconds.  Heartbeat RTTs feed the
    #: EWMA failure detector that sizes read deadlines adaptively.
    transport_heartbeat_interval: float = 0.5

    #: Reconnect backoff: ``base * 2^failures`` capped at ``max``, seconds.
    transport_backoff_base: float = 0.05
    transport_backoff_max: float = 2.0

    #: Shared transport secret (bytes) keying the per-frame HMAC both ways;
    #: must match the worker agents'.  None falls back to the
    #: ``REPRO_AGENT_SECRET`` environment variable, and an unset secret
    #: means an empty MAC key — loopback-only (agents refuse non-loopback
    #: listens without a secret, since they execute the supervisor's code).
    transport_secret: bytes | None = field(default=None, repr=False)

    #: Factory ``(address, timeout) -> FrameTransport`` overriding the plain
    #: TCP dialer — the net-chaos harness injects its
    #: :class:`~repro.resilience.netfaults.FaultyTransport` here.
    transport_factory: object | None = field(default=None, repr=False)

    #: A :class:`~repro.isolation.remote.PeerHealthRegistry` shared across
    #: extractions (the serve layer threads one through every job so
    #: ``/status`` and ``/healthz`` outlive individual runs).
    peer_registry: object | None = field(default=None, repr=False)

    # -- probe scheduler & caches (repro.sched) ------------------------------

    #: Worker slots for the probe scheduler.  ``1`` (the default) runs every
    #: probe inline on the session silo — byte-identical to the historical
    #: sequential behaviour.  ``N > 1`` executes independent probe batches
    #: (filter columns, projection units, checker databases) on N threads
    #: against private copy-on-write replicas, and speculates ahead on the
    #: minimizer's sequential halving chain.  Extracted SQL and the *logical*
    #: invocation count are independent of this knob (DESIGN.md §5.14).
    jobs: int = 1

    #: Capacity of the per-silo LRU parse/plan cache (0 disables it).
    #: Entries are keyed by (SQL, catalog version, catalog digest); DDL
    #: invalidates by bumping the version.
    plan_cache_size: int = 256

    #: A :class:`~repro.engine.database.PlanCache` to use *instead of* a
    #: private per-silo one.  The serve layer passes one instance to every
    #: job so concurrent extractions over the same instance share compiled
    #: plans (keys carry the catalog-content digest, so cross-job reuse is
    #: sound).  None keeps the private per-silo cache.
    shared_plan_cache: object | None = field(default=None, repr=False)

    #: Scope label for plan-cache accounting (the serve layer passes the
    #: job id); "" falls back to a generic session scope.
    plan_cache_scope: str = ""

    #: Observer called as ``observer(resource, total)`` whenever the budget
    #: watchdog accounts resource usage (currently synthetic cells).  Lets
    #: the serve memory governor track per-job engine footprint without
    #: enforcing any limit.  None disables the callback.
    resource_observer: object | None = field(default=None, repr=False)

    #: Memoize invocation results by database fingerprint for pure
    #: executables, so replayed states (resident-D¹ baselines, sentinel
    #: probes, retry replays) skip the physical execution.
    invocation_cache: bool = True

    # -- bounded symbolic verification (repro.veriq) -------------------------

    #: Run the bounded symbolic equivalence checker after extraction and
    #: drive the CEGIS refinement loop (``repro verify --certify``).
    certify: bool = False

    #: Rows per table in a symbolic database (the bound ``k`` certificates
    #: are quantified over).
    certify_rows: int = 2

    #: Cap on symbolic databases enumerated per verification round.
    certify_databases: int = 512

    #: CEGIS rounds: each counterexample re-materializes into D_I and the
    #: pipeline re-extracts, until a certificate or the budget is spent.
    certify_rounds: int = 2

    # -- sandbox & EQC guard -------------------------------------------------

    #: Verify (by content fingerprint) that the silo equals D_I at every
    #: pipeline step boundary.  O(rows) per step — meant for tests and
    #: high-assurance runs, not the default hot path.
    sandbox_verify: bool = False

    #: Run the out-of-class (non-EQC) detector around extraction: cheap
    #: sentinel probes before the pipeline, cross-validation probes after.
    eqc_guard: bool = True

    #: What to do when the hidden query looks out-of-class: "raise" aborts
    #: with :class:`~repro.errors.UnsupportedQueryError`; "verdict" returns
    #: a structured ``out_of_class`` outcome instead of plausible-but-wrong
    #: SQL (used by ``repro verify``).
    out_of_class_action: str = "raise"
