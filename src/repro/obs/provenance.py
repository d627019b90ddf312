"""Clause-level provenance: typed evidence events behind every decision.

The extraction pipeline shines light on an opaque application, yet — before
this module — it was opaque about *itself*: nothing recorded which probes
established a filter bound, killed a join-clique candidate, or flipped the
EQC guard's verdict.  A :class:`ProvenanceRecorder` closes that gap with a
durable, queryable stream of :class:`EvidenceEvent` records:

* ``probe``   — one logical black-box invocation (counted exactly once, on
  the same schedule as ``stats.invocations``: memo hits and retry attempts
  are recorded, discarded speculative executions are not);
* ``mutation`` — a persistent database-state change (a halving link keeping
  one half, a D¹ s-value refresh);
* ``observation`` — a derived fact that is not a probe (an EQC signal, a
  checker verdict, a module summary);
* ``clause_accepted`` / ``clause_rejected`` / ``clause_refined`` — one
  decision about one clause of the extracted SQL, carrying the *evidence
  chain*: the probe sequence numbers that established it.

Every event is stamped with the pipeline module it occurred in, and probes
additionally carry the probe database's content fingerprint (when cheap to
compute), whether the invocation was served from the invocation memo
(``cached``), whether it was executed ahead of the sequential schedule by
the ``--jobs`` scheduler (``speculative``), and whether it ran in an
isolation worker (``isolated``).

**Exactly-once contract** (DESIGN.md §5.15): the number of ``probe`` events
equals the logical invocation count for every ``--jobs`` value.  Parallel
map tasks record into task-local recorders that are absorbed on the main
thread in submission order (the same fold the metrics registry and span
records use); speculative halving links are recorded only when consumed.

The default recorder everywhere is :data:`NULL_PROVENANCE`, a shared no-op:
call sites pay one attribute load and one method call, nothing else.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional

#: event kinds
PROBE = "probe"
MUTATION = "mutation"
OBSERVATION = "observation"
ACCEPTED = "clause_accepted"
REJECTED = "clause_rejected"
REFINED = "clause_refined"

#: clause keys used by clause events, matching the assembled SQL's clauses
CLAUSE_FROM = "from"
CLAUSE_JOINS = "joins"
CLAUSE_FILTERS = "filters"
CLAUSE_SELECT = "select"
CLAUSE_GROUP_BY = "group_by"
CLAUSE_HAVING = "having"
CLAUSE_ORDER_BY = "order_by"
CLAUSE_LIMIT = "limit"

CLAUSE_KINDS = (
    CLAUSE_FROM,
    CLAUSE_JOINS,
    CLAUSE_FILTERS,
    CLAUSE_SELECT,
    CLAUSE_GROUP_BY,
    CLAUSE_HAVING,
    CLAUSE_ORDER_BY,
    CLAUSE_LIMIT,
)


class EvidenceEvent:
    """One typed provenance record."""

    __slots__ = (
        "seq",
        "ts",
        "module",
        "kind",
        "clause",
        "target",
        "detail",
        "rows",
        "error",
        "cached",
        "speculative",
        "isolated",
        "db_fingerprint",
        "evidence",
    )

    def __init__(
        self,
        seq: int,
        module: str,
        kind: str,
        clause: str = "",
        target: str = "",
        detail: str = "",
        rows: Optional[int] = None,
        error: str = "",
        cached: bool = False,
        speculative: bool = False,
        isolated: bool = False,
        db_fingerprint: str = "",
        evidence: tuple = (),
        ts: Optional[float] = None,
    ):
        self.seq = seq
        self.ts = time.time() if ts is None else ts
        self.module = module
        self.kind = kind
        self.clause = clause
        self.target = target
        self.detail = detail
        self.rows = rows
        self.error = error
        self.cached = cached
        self.speculative = speculative
        self.isolated = isolated
        self.db_fingerprint = db_fingerprint
        self.evidence = tuple(evidence)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "module": self.module,
            "kind": self.kind,
            "clause": self.clause,
            "target": self.target,
            "detail": self.detail,
            "rows": self.rows,
            "error": self.error,
            "cached": self.cached,
            "speculative": self.speculative,
            "isolated": self.isolated,
            "db_fingerprint": self.db_fingerprint,
            "evidence": list(self.evidence),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvidenceEvent":
        return cls(
            seq=payload["seq"],
            module=payload.get("module", ""),
            kind=payload.get("kind", OBSERVATION),
            clause=payload.get("clause", ""),
            target=payload.get("target", ""),
            detail=payload.get("detail", ""),
            rows=payload.get("rows"),
            error=payload.get("error", ""),
            cached=bool(payload.get("cached")),
            speculative=bool(payload.get("speculative")),
            isolated=bool(payload.get("isolated")),
            db_fingerprint=payload.get("db_fingerprint", ""),
            evidence=tuple(payload.get("evidence") or ()),
            ts=payload.get("ts"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" {self.clause}:{self.target}" if self.clause else ""
        return f"<Evidence #{self.seq} {self.module}/{self.kind}{extra}>"


class ProvenanceRecorder:
    """Collects evidence events and attributes probes to clause decisions.

    ``sink`` — an optional ``callable(events: list[EvidenceEvent])`` invoked
    by :meth:`flush` with the events recorded since the previous flush; the
    session flushes at every module boundary, so a ledger sink receives the
    run's history incrementally and a crashed run keeps its partial trail.

    Attribution model: probes enter a per-module *unclaimed* pool; a clause
    event with ``claim=True`` drains the pool of its module into the event's
    evidence chain, so interleaved probe→decide loops (filters per column,
    order-by per candidate) slice their probes per decision for free.
    Modules whose probes collectively establish several clauses at once
    (group-by candidates, projection dependency fan-outs) instead pass
    ``include_module_probes=True`` to cite the module's whole probe range.
    A ``key`` links refinement stages across modules (projections → select
    refinement in aggregations): events sharing ``(clause, key)`` accumulate
    one evidence chain.
    """

    enabled = True

    def __init__(self, sink: Optional[Callable] = None):
        self.sink = sink
        self.events: list[EvidenceEvent] = []
        self._next_seq = 1
        self._flushed = 0
        #: module -> probe seqs not yet claimed by a clause event
        self._unclaimed: dict[str, list[int]] = {}
        #: module -> every probe seq recorded in it
        self._module_probes: dict[str, list[int]] = {}
        #: (clause, key) -> accumulated evidence chain across events
        self._by_key: dict[tuple, tuple] = {}

    # -- recording -----------------------------------------------------------

    def _append(self, event: EvidenceEvent) -> EvidenceEvent:
        self.events.append(event)
        return event

    def probe(
        self,
        module: str,
        rows: Optional[int] = None,
        error: str = "",
        cached: bool = False,
        speculative: bool = False,
        isolated: bool = False,
        db_fingerprint: str = "",
        detail: str = "",
    ) -> int:
        """Record one logical invocation; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._unclaimed.setdefault(module, []).append(seq)
        self._module_probes.setdefault(module, []).append(seq)
        self._append(
            EvidenceEvent(
                seq,
                module,
                PROBE,
                rows=rows,
                error=error,
                cached=cached,
                speculative=speculative,
                isolated=isolated,
                db_fingerprint=db_fingerprint,
                detail=detail,
            )
        )
        return seq

    def mutation(self, module: str, target: str, detail: str = "") -> int:
        seq = self._next_seq
        self._next_seq += 1
        self._append(EvidenceEvent(seq, module, MUTATION, target=target, detail=detail))
        return seq

    def observation(
        self, module: str, target: str = "", detail: str = "", clause: str = ""
    ) -> int:
        seq = self._next_seq
        self._next_seq += 1
        self._append(
            EvidenceEvent(
                seq, module, OBSERVATION, clause=clause, target=target, detail=detail
            )
        )
        return seq

    def clause(
        self,
        action: str,
        clause: str,
        target: str,
        module: str,
        detail: str = "",
        key=None,
        claim: bool = True,
        include_module_probes: bool = False,
        extra_evidence: Iterable[int] = (),
    ) -> int:
        """Record one clause decision with its evidence chain."""
        evidence: list[int] = list(extra_evidence)
        if include_module_probes:
            evidence.extend(self._module_probes.get(module, ()))
            self._unclaimed.get(module, []).clear()
        elif claim:
            pool = self._unclaimed.get(module)
            if pool:
                evidence.extend(pool)
                pool.clear()
        if key is not None:
            inherited = self._by_key.get((clause, key), ())
            evidence = list(inherited) + [s for s in evidence if s not in inherited]
            self._by_key[(clause, key)] = tuple(evidence)
        seq = self._next_seq
        self._next_seq += 1
        self._append(
            EvidenceEvent(
                seq,
                module,
                action,
                clause=clause,
                target=target,
                detail=detail,
                evidence=tuple(dict.fromkeys(evidence)),
            )
        )
        return seq

    def accept(self, clause: str, target: str, module: str, **kwargs) -> int:
        return self.clause(ACCEPTED, clause, target, module, **kwargs)

    def reject(self, clause: str, target: str, module: str, **kwargs) -> int:
        return self.clause(REJECTED, clause, target, module, **kwargs)

    def refine(self, clause: str, target: str, module: str, **kwargs) -> int:
        return self.clause(REFINED, clause, target, module, **kwargs)

    # -- parallel fold -------------------------------------------------------

    def absorb(self, other: "ProvenanceRecorder") -> None:
        """Fold a task-local recorder's events into this one, renumbering.

        Called on the main thread in deterministic submission order (the
        probe scheduler's batch finalisation), so the merged stream is
        order-independent of thread interleaving — evidence stays
        exactly-once and clause chains keep pointing at their own probes.
        """
        remap: dict[int, int] = {}
        for event in other.events:
            new_seq = self._next_seq
            self._next_seq += 1
            remap[event.seq] = new_seq
            event.seq = new_seq
            event.evidence = tuple(remap.get(s, s) for s in event.evidence)
            self.events.append(event)
            if event.kind == PROBE:
                self._module_probes.setdefault(event.module, []).append(new_seq)
        for module, pool in other._unclaimed.items():
            if pool:
                self._unclaimed.setdefault(module, []).extend(
                    remap[s] for s in pool
                )
        for (clause, key), chain in other._by_key.items():
            mine = self._by_key.get((clause, key), ())
            self._by_key[(clause, key)] = tuple(mine) + tuple(
                remap.get(s, s) for s in chain
            )

    # -- queries -------------------------------------------------------------

    @property
    def probe_count(self) -> int:
        return sum(len(seqs) for seqs in self._module_probes.values())

    def module_probes(self, module: str) -> tuple[int, ...]:
        return tuple(self._module_probes.get(module, ()))

    def clause_events(self) -> list[EvidenceEvent]:
        return [
            e for e in self.events if e.kind in (ACCEPTED, REJECTED, REFINED)
        ]

    def probes_by_seq(self) -> dict[int, EvidenceEvent]:
        return {e.seq: e for e in self.events if e.kind == PROBE}

    # -- persistence ---------------------------------------------------------

    def flush(self) -> None:
        """Hand events recorded since the previous flush to the sink."""
        if self.sink is None or self._flushed >= len(self.events):
            return
        pending = self.events[self._flushed :]
        self._flushed = len(self.events)
        self.sink(pending)


class NullProvenance:
    """Disabled recorder: every method is a no-op returning 0."""

    enabled = False
    sink = None
    events: tuple = ()

    def probe(self, module, **kwargs) -> int:
        return 0

    def mutation(self, module, target, detail="") -> int:
        return 0

    def observation(self, module, target="", detail="", clause="") -> int:
        return 0

    def clause(self, action, clause, target, module, **kwargs) -> int:
        return 0

    def accept(self, clause, target, module, **kwargs) -> int:
        return 0

    def reject(self, clause, target, module, **kwargs) -> int:
        return 0

    def refine(self, clause, target, module, **kwargs) -> int:
        return 0

    def absorb(self, other) -> None:
        pass

    def module_probes(self, module) -> tuple:
        return ()

    def clause_events(self) -> list:
        return []

    def probes_by_seq(self) -> dict:
        return {}

    @property
    def probe_count(self) -> int:
        return 0

    def flush(self) -> None:
        pass


#: the process-wide disabled recorder; sessions default to this.
NULL_PROVENANCE = NullProvenance()


# -- explain ------------------------------------------------------------------


def query_clauses(query) -> list[tuple[str, str]]:
    """``(clause kind, clause SQL)`` pairs for every clause of ``Q_E``.

    This is the coverage universe of ``repro explain``: each pair must be
    backed by at least one clause event whose evidence chain names a probe.
    """
    pairs: list[tuple[str, str]] = []
    for table in query.tables:
        pairs.append((CLAUSE_FROM, table))
    for clique in query.join_cliques:
        for predicate in clique.predicates():
            pairs.append((CLAUSE_JOINS, predicate))
    for predicate in query.filters:
        pairs.append((CLAUSE_FILTERS, predicate.to_sql()))
    for output in query.outputs:
        pairs.append((CLAUSE_SELECT, output.select_sql()))
    for column in query.group_by:
        pairs.append((CLAUSE_GROUP_BY, f"{column.table}.{column.column}"))
    for predicate in query.having:
        pairs.append((CLAUSE_HAVING, predicate.to_sql()))
    for spec in query.order_by:
        pairs.append((CLAUSE_ORDER_BY, spec.to_sql()))
    if query.limit is not None:
        pairs.append((CLAUSE_LIMIT, str(query.limit)))
    return pairs


class ClauseEvidence:
    """The explain view of one clause: its decision and its probe chain."""

    __slots__ = (
        "clause",
        "target",
        "module",
        "action",
        "evidence",
        "probes",
        "cached",
        "speculative",
        "isolated",
        "confidence",
    )

    def __init__(self, clause: str, target: str):
        self.clause = clause
        self.target = target
        self.module = ""
        self.action = ""
        self.evidence: tuple[int, ...] = ()
        self.probes = 0
        self.cached = 0
        self.speculative = 0
        self.isolated = 0
        self.confidence: Optional[float] = None

    @property
    def covered(self) -> bool:
        return self.probes > 0

    def to_dict(self) -> dict:
        return {
            "clause": self.clause,
            "target": self.target,
            "module": self.module,
            "action": self.action,
            "probes": self.probes,
            "first_seq": self.evidence[0] if self.evidence else None,
            "last_seq": self.evidence[-1] if self.evidence else None,
            "cached": self.cached,
            "speculative": self.speculative,
            "isolated": self.isolated,
            "confidence": self.confidence,
        }


def eqc_clause_confidence(outcome) -> Optional[dict]:
    """An outcome's EQC per-clause confidence keyed the way this module names
    clauses (the guard says "projections" where provenance says "select")."""
    if outcome.eqc is None or not outcome.eqc.clause_confidence:
        return None
    conf = dict(outcome.eqc.clause_confidence)
    if "projections" in conf:
        conf["select"] = conf.pop("projections")
    return conf


def clause_evidence(
    query,
    events: Iterable[EvidenceEvent],
    clause_confidence: Optional[dict] = None,
) -> list[ClauseEvidence]:
    """Match every clause of ``query`` to its recorded evidence chain."""
    events = list(events)
    probes = {e.seq: e for e in events if e.kind == PROBE}
    #: (clause, target) -> last decision event carrying evidence
    by_target: dict[tuple[str, str], EvidenceEvent] = {}
    for event in events:
        if event.kind in (ACCEPTED, REFINED, REJECTED):
            key = (event.clause, event.target)
            existing = by_target.get(key)
            if existing is None or event.evidence or not existing.evidence:
                by_target[key] = event

    rows: list[ClauseEvidence] = []
    for clause, target in query_clauses(query):
        row = ClauseEvidence(clause, target)
        event = by_target.get((clause, target))
        if event is not None:
            row.module = event.module
            row.action = event.kind
            row.evidence = event.evidence
            row.probes = len(event.evidence)
            for seq in event.evidence:
                probe = probes.get(seq)
                if probe is None:
                    continue
                if probe.cached:
                    row.cached += 1
                if probe.speculative:
                    row.speculative += 1
                if probe.isolated:
                    row.isolated += 1
        if clause_confidence:
            row.confidence = clause_confidence.get(clause)
        rows.append(row)
    return rows


def render_explain(
    rows: list[ClauseEvidence],
    sql: str = "",
    header: str = "",
    total_probes: Optional[int] = None,
) -> str:
    """The ``repro explain`` report: each clause with its evidence chain."""
    lines = ["clause provenance", "================="]
    if header:
        lines.append(header)
    if sql:
        lines.append(f"sql: {sql}")
    if total_probes is not None:
        lines.append(f"probes recorded: {total_probes}")
    lines.append("")
    covered = sum(1 for row in rows if row.covered)
    lines.append(f"clauses: {len(rows)}, evidence-covered: {covered}")
    current = None
    for row in rows:
        if row.clause != current:
            current = row.clause
            lines.append(f"{row.clause}:")
        flags = []
        if row.cached:
            flags.append(f"{row.cached} cache-served")
        if row.speculative:
            flags.append(f"{row.speculative} speculative")
        if row.isolated:
            flags.append(f"{row.isolated} isolated")
        chain = (
            f"probes {row.evidence[0]}..{row.evidence[-1]} (n={row.probes}"
            + (", " + ", ".join(flags) if flags else "")
            + ")"
            if row.covered
            else "NO EVIDENCE"
        )
        conf = (
            f"  confidence {row.confidence:.2f}"
            if row.confidence is not None
            else ""
        )
        via = f" via {row.module}/{row.action}" if row.module else ""
        lines.append(f"  {row.target}")
        lines.append(f"    established by {chain}{via}{conf}")
    return "\n".join(lines)
