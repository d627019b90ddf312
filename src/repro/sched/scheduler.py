"""Deterministic concurrent execution of extraction probes.

The UNMASQUE pipeline spends almost all of its wall-clock inside black-box
invocations, and most of those are *independent by construction*: a filter
screen probe mutates only the columns under test while every other column of
the resident D¹ row keeps satisfying its own (conjunctive) predicate, and
projection dependency checks flip disjoint mutation units.  The
:class:`ProbeScheduler` exploits exactly that independence — and nothing
more — under a hard **determinism contract** (DESIGN.md §5.14):

* extracted SQL is byte-identical for every ``--jobs`` value;
* the *logical* invocation count (``stats.invocations``, budget charges,
  ``invocations_total``) equals the sequential schedule's count;
* every logical invocation is charged exactly once, on the main thread or
  under the scheduler lock — never both.  The executable's counters, the
  ``invocations_total`` / ``invocation_latency_seconds`` metrics and the
  ``invocation`` span are charged by the executable itself: live by
  :meth:`~repro.apps.executable.Executable.run` inside a task, and after
  the fact by :meth:`~repro.apps.executable.Executable.charge_logical` for
  a consumed chain link, whether its probe returned or raised.

Two execution shapes are offered:

``map(items, task)``
    Fan a batch of independent probe tasks across ``jobs`` threads.  Each
    task receives a *fork* of the session's probe surface
    (:meth:`~repro.core.session.ProbeSurface.fork`): the very same ``run`` /
    ``run_on`` / ``run_on_d1_mutation`` / ``d1_value`` / ``update_d1`` /
    metadata helpers the session uses, over a private replica of the silo
    built from one shared snapshot, a task-local tracer, metrics registry
    and evidence recorder, and with every charge taken under the scheduler
    lock.  Spans, metric deltas, evidence, and persistent D¹ updates are
    folded back on the main thread in submission order, so the observable
    outcome is order-independent.

``run_chain(state, pick_probe)``
    Resolve the minimizer's *sequential* halving chain.  Each link has only
    two possible outcomes (probe result populated → keep the candidate
    half, empty → keep the other), so the scheduler speculates ahead down
    the binary outcome tree on idle workers using the accounting-free
    :meth:`~repro.apps.executable.Executable.probe` primitive.  A consumed
    link goes through :meth:`~repro.core.session.ProbeSurface.run` as a
    prefetched first attempt, so it is charged like any invocation and a
    retryable failure is retried live on the silo, as with ``jobs=1``.
    Discarded probes are never charged.  With ``jobs=1`` the chain executes
    inline on the silo, byte-identical to the historical loop.

Sequential mode (``jobs=1``) never allocates a thread pool, a replica, or a
snapshot beyond what the historical code paths did: ``map`` degenerates to a
list comprehension over the real session and ``run_chain`` to the original
silo loop.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional

from repro.apps.executable import InvocationMemo
from repro.core.session import PrefetchedAttempt
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import NULL_PROVENANCE, ProvenanceRecorder
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass
class SchedulerStats:
    """Physical-execution accounting (logical counts live in the session)."""

    #: parallel ``map`` batches executed
    batches: int = 0
    #: logical probe attempts executed by parallel map tasks
    parallel_probes: int = 0
    #: halving links resolved through ``run_chain``
    chain_links: int = 0
    #: consumed links whose probe had been speculatively pre-executed
    speculation_hits: int = 0
    #: speculative executions discarded (physical work, no logical charge)
    speculation_wasted: int = 0


class _LockedBudget:
    """Serialises worker-thread budget charges onto the shared budget.

    The budget of a task's silo replica: only the two entry points the
    engine (and the isolation backend) call during an invocation are
    exposed; the probe surface takes its own charges under the same lock.
    """

    __slots__ = ("_budget", "_lock")

    def __init__(self, budget, lock: threading.Lock):
        self._budget = budget
        self._lock = lock

    def charge_rows_scanned(self, count: int) -> None:
        with self._lock:
            self._budget.charge_rows_scanned(count)

    def check_wall_clock(self) -> None:
        with self._lock:
            self._budget.check_wall_clock()


class _RowsCollector:
    """Budget stand-in for *speculative* probes: records rows scanned but
    never charges or raises — the scheduler charges the real budget only for
    probes that are consumed."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = 0

    def charge_rows_scanned(self, count: int) -> None:
        self.rows += count

    def check_wall_clock(self) -> None:
        pass


class _TaskTracer(Tracer):
    """Task-local tracer that keeps only the task's top-level spans.

    Worker threads must not touch the session tracer's span stack, so each
    task traces into its own; the finished invocation (or ``worker``) spans
    are recorded on the session tracer afterwards, in submission order.
    Engine spans nested beneath them are dropped.
    """

    def __init__(self, metrics):
        super().__init__(metrics=metrics, keep_spans=False)

    def _finish(self, span) -> None:
        super()._finish(span)
        if span.parent_id is None:
            self.spans.append(span)


class _ChainNode:
    """One node of the halving chain's binary outcome tree."""

    __slots__ = (
        "state",
        "probe",
        "probe_state",
        "future",
        "on_populated",
        "on_empty",
        "speculative",
    )

    def __init__(self, state, probe, speculative: bool = False):
        self.state = state
        self.probe = probe
        #: the tables the probe runs against: ``state`` with the candidate
        self.probe_state = None
        self.future = None
        #: True when the probe was submitted before its parent's outcome was
        #: known — i.e. ahead of the sequential schedule
        self.speculative = speculative
        self.on_populated: Optional["_ChainNode"] = None
        self.on_empty: Optional["_ChainNode"] = None


class ProbeScheduler:
    """Executes extraction probes across ``config.jobs`` worker slots."""

    def __init__(self, session):
        self.session = session
        self.jobs = max(1, int(getattr(session.config, "jobs", 1) or 1))
        self.stats = SchedulerStats()
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-probe"
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def stats_dict(self) -> dict:
        return asdict(self.stats)

    # -- independent batches -------------------------------------------------

    def map(
        self,
        items: Iterable,
        task: Callable,
        label: str = "probes",
    ) -> list:
        """Run ``task(ctx, item)`` for every item, in deterministic order.

        Sequential mode passes the session itself as ``ctx`` — zero drift
        from the historical inline loops.  Parallel mode fans the items
        across worker threads, each against a private silo replica, and
        folds all side effects back in submission order.  If any task
        raises, the error of the *earliest* item is re-raised (later items
        may already have executed; their logical charges stand, matching a
        failed sequential schedule up to the failing item).
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [task(self.session, item) for item in items]
        return self._map_parallel(items, task)

    def _map_parallel(self, items: list, task: Callable) -> list:
        session = self.session
        # A deadline-expired run must not fan a whole batch of doomed probes
        # out to the pool; fail with the structured BudgetExhausted before
        # dispatching rather than after the slowest straggler returns.
        session.budget.check_wall_clock()
        stats = session.stats
        before = (
            stats.module(session._current_module).invocations,
            stats.invocation_timeouts,
            stats.retries,
        )
        base = session.silo.snapshot()
        executor = self._ensure_executor()
        forks = [self._fork(base) for _ in items]

        def _guarded(ctx, item):
            try:
                return True, task(ctx, item)
            except Exception as exc:  # re-raised on the main thread
                return False, exc

        futures = [
            executor.submit(_guarded, ctx, item)
            for ctx, item in zip(forks, items)
        ]
        outcomes = [future.result() for future in futures]
        self._finalize_batch(forks, before)
        results = []
        first_error: Optional[Exception] = None
        for ok, value in outcomes:
            if ok:
                results.append(value)
            elif first_error is None:
                first_error = value
        if first_error is not None:
            raise first_error
        return results

    def _fork(self, base):
        """The session's probe surface over a private replica of ``base``."""
        session = self.session
        tracer = NULL_TRACER
        if session.tracer.enabled:
            tracer = _TaskTracer(
                MetricsRegistry() if session.tracer.metrics is not None else None
            )
        replica = session.silo.replica(base)
        replica.tracer = tracer
        if session.budget.active:
            replica.budget = _LockedBudget(session.budget, self._lock)
        provenance = (
            ProvenanceRecorder() if session.provenance.enabled else NULL_PROVENANCE
        )
        return session.fork(replica, tracer, provenance, self._lock)

    def _finalize_batch(self, forks, before) -> None:
        """Fold per-task side effects back in submission order (main thread).

        ``before`` holds the module's invocation count and the session's
        timeout and retry counts from before the batch: the forks charged
        the shared counters directly, so the deltas are the batch's own.
        """
        session = self.session
        tracer = session.tracer
        d1 = dict(session.d1)
        for fork in forks:
            if fork.tracer.metrics is not None:
                tracer.metrics.merge(fork.tracer.metrics)
            for span in fork.tracer.spans:
                tracer.record(
                    span.name,
                    kind=span.kind,
                    start=span.start,
                    end=span.end,
                    tags={**span.tags, "parallel": True},
                )
            if fork.provenance.enabled:
                session.provenance.absorb(fork.provenance)
            # Persistent D¹ updates (cells already charged by the fork),
            # replayed column-wise onto the session's D¹.
            for table, row in fork.d1.items():
                if row is d1[table]:
                    continue
                merged = tuple(
                    new if new != old else current
                    for current, old, new in zip(session.d1[table], d1[table], row)
                )
                session.d1[table] = merged
                session.silo.replace_rows(
                    table, session._with_multiplier(table, [merged])
                )
        stats = session.stats
        invocations, timeouts, retries = before
        attempts = stats.module(session._current_module).invocations - invocations
        self.stats.batches += 1
        self.stats.parallel_probes += attempts
        if tracer.metrics is not None:
            tracer.metrics.counter("scheduler_batches_total").inc()
            tracer.metrics.counter("scheduler_parallel_probes_total").inc(
                attempts
            )
        span = tracer.current
        if span is not None:
            if stats.invocation_timeouts > timeouts:
                span.set_tag("timed_out", True)
            if stats.retries > retries:
                span.tags["retries"] = (
                    span.tags.get("retries", 0) + stats.retries - retries
                )

    # -- sequential halving chains -------------------------------------------

    def run_chain(
        self,
        state: dict,
        pick_probe: Callable,
        speculate: bool = True,
        label: str = "chain",
    ) -> dict:
        """Resolve a halving-style probe chain to completion.

        ``state`` maps table name → resident rows; ``pick_probe(state)``
        returns ``None`` when the chain is done, else ``(table, candidate,
        fallback)``: the candidate rows replace the table, a populated run
        keeps them, an effectively-empty one keeps the fallback (no
        confirming run — §4.2's Lemma 1).  Returns the final state with the
        silo's tables left holding it.  Every state's rows were read out of
        the silo's table of the same name, so they are installed
        (:meth:`~repro.engine.storage.TableData.install`), not coerced again.

        Speculation is used only when every gate holds: ``jobs > 1``, the
        caller allows it (``speculate`` — RNG-consuming pick policies must
        not run against hypothetical states), the executable is in-process
        and :attr:`~repro.apps.executable.Executable.cacheable` (pure, so a
        discarded probe has no observable effect), and no isolation backend
        is interposed.
        """
        session = self.session
        silo = session.silo
        can_speculate = (
            self.parallel
            and speculate
            and session.backend is None
            and session.executable.cacheable
        )
        if not can_speculate:
            while (probe := pick_probe(state)) is not None:
                table, candidate, fallback = probe
                silo.install_rows(table, candidate)
                if session.run().is_effectively_empty:
                    silo.install_rows(table, fallback)
                    state[table] = fallback
                else:
                    state[table] = candidate
                # the probe itself is recorded by session.run(); the kept
                # half is a persistent database mutation worth its own event
                if session.provenance.enabled:
                    session.provenance.mutation(
                        session._current_module,
                        table,
                        detail=f"halving kept {len(state[table])} rows",
                    )
                self.stats.chain_links += 1
            return state
        return self._run_chain_speculative(state, pick_probe, label)

    def _run_chain_speculative(self, state, pick_probe, label) -> dict:
        session = self.session
        silo = session.silo
        executable = session.executable
        tracer = session.tracer
        base = silo.snapshot()
        executor = self._ensure_executor()
        budget_enabled = session.budget.enabled
        provenance = session.provenance
        module_name = session._current_module
        pending = 0  # submitted futures not yet consumed or discarded

        def _execute(probe_state):
            """Worker-side speculative probe: zero logical accounting.  A
            probe that raises returns its error, timed like any other, for
            the consuming link to charge and retry or re-raise."""
            db = silo.replica(base)
            collector = _RowsCollector() if budget_enabled else None
            if collector is not None:
                db.budget = collector
            for table, rows in probe_state.items():
                db.install_rows(table, rows)
            db_rows = db.total_rows()
            # evidence fingerprinting mirrors the memo's cost bound: tiny
            # probe states only, and only when someone is recording
            fingerprint = (
                db.fingerprint()
                if provenance.enabled and db_rows <= InvocationMemo.MAX_ROWS
                else ""
            )
            started = time.perf_counter()
            try:
                result, error = executable.probe(db), None
            except Exception as raised:
                result, error = None, raised
            ended = time.perf_counter()
            return (
                error,
                result,
                started,
                ended,
                collector.rows if collector is not None else 0,
                db_rows,
                fingerprint,
            )

        def _make_node(node_state, speculative: bool = False) -> _ChainNode:
            nonlocal pending
            probe = pick_probe(node_state)
            node = _ChainNode(node_state, probe, speculative)
            if probe is not None:
                table, candidate, _ = probe
                node.probe_state = dict(node_state)
                node.probe_state[table] = candidate
                node.future = executor.submit(_execute, node.probe_state)
                pending += 1
            return node

        def _child(
            node: _ChainNode, populated: bool, speculative: bool = False
        ) -> _ChainNode:
            existing = node.on_populated if populated else node.on_empty
            if existing is not None:
                return existing
            table, candidate, fallback = node.probe
            child_state = dict(node.state)
            child_state[table] = candidate if populated else fallback
            child = _make_node(child_state, speculative)
            if populated:
                node.on_populated = child
            else:
                node.on_empty = child
            return child

        def _expand(frontier: _ChainNode) -> None:
            """Breadth-first speculation down the outcome tree until every
            worker slot holds a probe (or the tree bottoms out)."""
            level = [frontier]
            while level and pending < self.jobs:
                next_level = []
                for node in level:
                    if node.probe is None:
                        continue
                    for populated in (True, False):
                        if pending >= self.jobs:
                            break
                        next_level.append(
                            _child(node, populated, speculative=True)
                        )
                level = next_level

        def _discard(node: Optional[_ChainNode]) -> None:
            """Cancel (or write off) every probe in a dead subtree."""
            nonlocal pending
            stack = [node] if node is not None else []
            while stack:
                dead = stack.pop()
                if dead.future is not None:
                    pending -= 1
                    if not dead.future.cancel():
                        self.stats.speculation_wasted += 1
                        if tracer.metrics is not None:
                            tracer.metrics.counter(
                                "scheduler_speculation_wasted_total"
                            ).inc()
                stack.extend(
                    c
                    for c in (dead.on_populated, dead.on_empty)
                    if c is not None
                )

        node = _make_node(dict(state))
        while node.probe is not None:
            speculated = node.speculative
            _expand(node)
            # The consumed link is one logical invocation through the
            # session's single funnel: charged before its outcome is
            # observed (so budget exhaustion fires at the same link it would
            # sequentially), and retried live on a retryable error.
            pending -= 1
            try:
                result = session.run(
                    prefetched=PrefetchedAttempt(
                        node.future.result, node.probe_state, speculated
                    )
                )
            except BaseException:
                _discard(node.on_populated)
                _discard(node.on_empty)
                raise
            if tracer.metrics is not None:
                tracer.metrics.counter("scheduler_chain_links_total").inc()
                if speculated:
                    tracer.metrics.counter(
                        "scheduler_speculation_hits_total"
                    ).inc()
            self.stats.chain_links += 1
            if speculated:
                self.stats.speculation_hits += 1
            table, candidate, fallback = node.probe
            populated = not result.is_effectively_empty
            state[table] = candidate if populated else fallback
            if provenance.enabled:
                provenance.mutation(
                    module_name,
                    table,
                    detail=f"halving kept {len(state[table])} rows",
                )
            _discard(node.on_empty if populated else node.on_populated)
            node = _child(node, populated)
        _discard(node.on_populated)
        _discard(node.on_empty)
        for table in state:
            silo.install_rows(table, state[table])
        return state
