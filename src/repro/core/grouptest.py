"""Adaptive group testing for the per-item screens of §4.4, §4.5 and §5.1.

Filters, projection dependencies and group-by each ask one yes/no question
per item: does this column carry a predicate, does this mutation unit feed an
output, does this attribute group?  Most items answer "no", and the "no"
answers compose: on the single-row ``D^1`` every predicate involves one
column, so mutating several predicate-free columns at once still leaves the
result populated.  One *joint* probe over a group can therefore clear all of
its items at once.

:func:`group_test` probes each item set as one group, halves every group
whose joint probe does not clear it, and resolves a small group item by item.
Each round of halving is one :meth:`~repro.sched.scheduler.ProbeScheduler.map`
batch, so ``--jobs`` overlaps the probes of a round.  The schedule depends on
probe outcomes only, never on ``--jobs``, so the logical invocation count is
the same at every level.

A singleton is always probed on its own, with exactly the per-item probe the
screen replaces, so an item is decided either by its own probe or by a joint
probe that cleared it.  A joint probe that raises an application error (an
engine error or a timeout) is inconclusive: the group is split, never
cleared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DatabaseError, ExecutableTimeoutError
from repro.obs.provenance import PROBE

#: a group this small that its joint probe does not clear is resolved item
#: by item: halving it would cost as many probes as it could save
LEAF_SIZE = 4

#: errors that make a joint probe inconclusive instead of fatal
INCONCLUSIVE = (DatabaseError, ExecutableTimeoutError)


class _Cleared:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CLEARED"


#: the outcome of an item a joint probe cleared without probing it alone
CLEARED = _Cleared()


@dataclass
class Screen:
    """One item set and its two probes.

    ``joint(ctx, items)`` runs one probe with every item mutated at once and
    returns True when it clears them all; ``single(ctx, item)`` is the
    item's own probe and returns its outcome.  ``clause`` and ``describe``
    label the joint probes' evidence.
    """

    items: list
    joint: Callable
    single: Callable
    clause: str
    describe: Callable = str


def group_test(session, screens: list[Screen], label: str) -> list[list]:
    """Per screen, each item's ``single`` outcome, or :data:`CLEARED`.

    The screens share rounds: every round probes the pending groups of all
    screens in one scheduler batch, in screen order then item order.
    """
    outcomes = [[CLEARED] * len(screen.items) for screen in screens]
    frontier = [
        (index, tuple(range(len(screen.items))))
        for index, screen in enumerate(screens)
        if screen.items
    ]

    def probe(ctx, node):
        index, group = node
        screen = screens[index]
        if len(group) == 1:
            return screen.single(ctx, screen.items[group[0]])
        return _joint_probe(ctx, screen, [screen.items[i] for i in group])

    while frontier:
        results = session.scheduler.map(frontier, probe, label=label)
        pending = []
        for (index, group), result in zip(frontier, results):
            if len(group) == 1:
                outcomes[index][group[0]] = result
            elif not result:
                pending.extend((index, part) for part in _split(group))
        frontier = pending
    return outcomes


def _split(group: tuple) -> list[tuple]:
    if len(group) <= LEAF_SIZE:
        return [(item,) for item in group]
    middle = len(group) // 2
    return [group[:middle], group[middle:]]


def _joint_probe(ctx, screen: Screen, items: list) -> bool:
    """One joint probe; its evidence cites exactly the probes it ran."""
    provenance = ctx.provenance
    before = len(provenance.events)
    try:
        cleared = bool(screen.joint(ctx, items))
    except INCONCLUSIVE:
        cleared = False
    if provenance.enabled:
        record = provenance.reject if cleared else provenance.refine
        record(
            screen.clause,
            ", ".join(screen.describe(item) for item in items),
            ctx._current_module,
            detail=(
                f"joint probe over {len(items)} items: "
                + ("cleared" if cleared else "split")
            ),
            claim=False,
            extra_evidence=own_probes(provenance, before),
        )
    return cleared


def own_probes(provenance, start: int) -> tuple[int, ...]:
    """Sequence numbers of the probes recorded since event index ``start``."""
    return tuple(
        event.seq for event in provenance.events[start:] if event.kind == PROBE
    )
