"""Database minimization (paper §4.2).

Reduces the initial instance ``D_I`` to the single-row database ``D^1``
guaranteed by Lemma 1 for ``EQC¯H``:

1. *Sampling pre-pass* — iteratively replace large tables with small random
   samples (escalating the fraction on failure), so the expensive halving
   phase starts from a few hundred rows rather than millions;
2. *Iterative halving* — repeatedly split one multi-row table into two halves
   and keep a half on which the application still produces a populated result.
   A result row draws exactly one row from each joined table, so at least one
   half always succeeds; the paper found halving the *currently largest*
   table to converge fastest, which is the default policy here.

Both phases are timed separately — they are the maroon/pink bars of Figure 9.
"""

from __future__ import annotations

import math

from repro.core.session import ExtractionSession
from repro.errors import ExtractionError

#: Tables no larger than this skip the sampling pre-pass.
SAMPLING_THRESHOLD = 512

#: Fractions tried, smallest first, during the sampling pre-pass.
SAMPLING_FRACTIONS = (0.0005, 0.005, 0.05)


def minimize(session: ExtractionSession) -> dict[str, tuple]:
    """Reduce the silo to ``D^1`` and install it on the session."""
    with session.module("sampler"):
        if session.config.minimizer_sampling:
            _sampling_prepass(session)
    with session.module("minimizer"):
        d1 = _halve_to_single_rows(session)
    session.set_d1(d1)
    if session.provenance.enabled:
        session.provenance.observation(
            "minimizer",
            detail=(
                "D^1 installed: one row per table for "
                + ", ".join(sorted(d1))
            ),
        )
    return d1


def _sampling_prepass(session: ExtractionSession) -> None:
    """Shrink big tables by sampling while the result stays populated."""
    tables = sorted(
        session.query.tables, key=session.silo.row_count, reverse=True
    )
    for table in tables:
        size = session.silo.row_count(table)
        if size <= SAMPLING_THRESHOLD:
            continue
        original_rows = session.silo.rows(table)
        for fraction in SAMPLING_FRACTIONS:
            count = max(1, math.ceil(size * fraction))
            if count >= size:
                break
            sample = session.silo.sample_rows(
                table, count, seed=session.rng.randrange(2**31)
            )
            session.silo.install_rows(table, sample)
            if not session.run().is_effectively_empty:
                session.provenance.mutation(
                    "sampler",
                    table,
                    detail=f"kept a {count}-row sample of {size} rows",
                )
                break
            session.silo.install_rows(table, original_rows)


def _halve_to_single_rows(session: ExtractionSession) -> dict[str, tuple]:
    """Iteratively halve tables until each holds exactly one row.

    The halving loop is inherently sequential — each step's probe outcome
    decides the next database state — but every step has only two possible
    outcomes (populated → keep the probed half, empty → keep the other, per
    Lemma 1's single execution per step).  The chain therefore runs through
    the probe scheduler, which executes it inline at ``--jobs 1`` and
    speculates ahead down the binary outcome tree on idle workers otherwise.
    The ``random`` halving policy draws from the session RNG per *consumed*
    link, so it must never evaluate hypothetical states: speculation is
    disabled for it.
    """
    silo = session.silo
    state = {table: silo.rows(table) for table in session.query.tables}
    session.scheduler.run_chain(
        state,
        lambda current: _next_halving(session, current),
        speculate=session.config.halving_policy != "random",
        label="minimizer",
    )
    d1 = {}
    for table in session.query.tables:
        rows = silo.rows(table)
        if len(rows) != 1:
            raise ExtractionError(f"table {table!r} not reduced to one row")
        d1[table] = rows[0]
    if session.run().is_effectively_empty:
        raise ExtractionError(
            "minimization produced an empty-result D^1 — the hidden query "
            "appears to fall outside EQC¯H (e.g. it may carry a HAVING clause)"
        )
    return d1


def minimize_multirow(session: ExtractionSession) -> dict[str, list[tuple]]:
    """Row-minimal reduction when Lemma 1 does not hold (HAVING pipeline, §7).

    Halving proceeds as usual, but a table where *neither* half keeps the
    result populated (e.g. a group must retain enough rows for a count/sum
    bound) is restored whole and set aside; a final per-row elimination pass
    then removes whatever individual rows are still redundant.  The result is
    a row-minimal ``D_min`` that may hold several rows per table.
    """
    with session.module("sampler"):
        if session.config.minimizer_sampling:
            _sampling_prepass(session)
    with session.module("minimizer"):
        silo = session.silo
        stuck: set[str] = set()
        while True:
            candidates = [
                t
                for t in session.query.tables
                if silo.row_count(t) > 1 and t not in stuck
            ]
            if not candidates:
                break
            table = max(candidates, key=silo.row_count)
            first, second = silo.table(table).halves()
            silo.install_rows(table, first)
            if not session.run().is_effectively_empty:
                stuck.clear()
                continue
            silo.install_rows(table, second)
            if not session.run().is_effectively_empty:
                stuck.clear()
                continue
            silo.install_rows(table, first + second)
            stuck.add(table)

        for table in session.query.tables:
            _eliminate_rows(session, table)

        if session.run().is_effectively_empty:
            raise ExtractionError("multi-row minimization lost the populated result")
        return {table: silo.rows(table) for table in session.query.tables}


_ELIMINATION_CAP = 1024


def _eliminate_rows(session: ExtractionSession, table: str) -> None:
    """ddmin-style chunk elimination (for tables halving could not shrink).

    Plain halving fails when the surviving rows of a group are scattered
    across both halves (e.g. a ``sum``/``count`` HAVING bound needs several
    co-grouped rows); delta-debugging-style complement testing at increasing
    granularity still converges to a row-minimal subset.
    """
    silo = session.silo
    rows = silo.rows(table)
    if len(rows) > _ELIMINATION_CAP:
        raise ExtractionError(
            f"table {table!r} still holds {len(rows)} rows after halving; "
            "row elimination is capped (query may be outside the supported "
            "HAVING class)"
        )
    granularity = 2
    while len(rows) > 1:
        chunk = max(1, (len(rows) + granularity - 1) // granularity)
        reduced = False
        start = 0
        while start < len(rows):
            candidate = rows[:start] + rows[start + chunk :]
            if not candidate:
                start += chunk
                continue
            silo.install_rows(table, candidate)
            if not session.run().is_effectively_empty:
                rows = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(len(rows), granularity * 2)
    silo.install_rows(table, rows)


def _next_halving(
    session: ExtractionSession, state: dict[str, list[tuple]]
) -> tuple[str, list[tuple], list[tuple]] | None:
    """The next halving link: ``(table, probed half, fallback half)``.

    Operates on the chain *state* rather than the silo so the scheduler can
    evaluate it against hypothetical future states during speculation; the
    table choice and the split mirror the historical silo-based code exactly
    (``TableData.halves``'s ``(n + 1) // 2`` midpoint, ties resolved in
    ``query.tables`` order).
    """
    candidates = [t for t in session.query.tables if len(state[t]) > 1]
    if not candidates:
        return None
    policy = session.config.halving_policy
    if policy == "largest":
        table = max(candidates, key=lambda t: len(state[t]))
    elif policy == "smallest":
        table = min(candidates, key=lambda t: len(state[t]))
    elif policy == "random":
        table = session.rng.choice(candidates)
    elif policy == "round_robin":
        table = candidates[0]
    else:
        raise ExtractionError(f"unknown halving policy {policy!r}")
    rows = state[table]
    mid = (len(rows) + 1) // 2
    return table, rows[:mid], rows[mid:]
