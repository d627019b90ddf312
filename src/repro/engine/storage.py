"""Row storage for the in-memory engine.

A table is a list of value tuples in schema column order.  The store favours
simplicity and predictable semantics over raw speed — the extraction pipeline
operates almost exclusively on single-digit-row databases after minimization,
and the minimizer itself only needs cheap slicing/sampling of row lists.

Snapshot support is copy-on-write: :meth:`TableData.share_rows` hands out the
internal row list and marks it *shared*; the next in-place mutation copies the
list first, so the shared reference stays frozen.  Most mutators already
rebind ``_rows`` to a freshly built list, which makes sharing nearly free —
the extraction pipeline takes a snapshot around every invocation, and
:meth:`TableData.copy` (so ``Database.clone``) shares the same way.

Because a shared list never changes again, its content digest can be computed
once and kept on the list itself (:class:`FrozenRows`, :func:`rows_digest`):
a database fingerprint then hashes only the tables whose list is new.

Every stored row is in storage form: each value has already passed its
column type's ``coerce``, so coercing the row again returns an equal row of
the same types.  Values that come from outside a table — a generator, SQL
DML, a synthetic row — enter through :meth:`TableData.coerce_row` once
(``insert``, ``replace_all``, ``update_where``, ``set_column``,
``map_column``).  Rows read out of a table and moved to a table of the same
schema (the minimizer's samples and halves) enter through
:meth:`TableData.install`, which trusts them and coerces nothing.  An
isolation worker's tables adopt the frozen lists it was shipped
(:meth:`TableData.adopt_rows`), as a restore adopts a snapshot's.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.catalog import TableSchema
from repro.errors import TypeMismatchError


class FrozenRows(list):
    """A table's row list, able to memoize the digest of its rows.

    Every list :class:`TableData` builds is one of these.  ``digest`` is set
    by :func:`rows_digest` only once the list is shared (copy-on-write), and
    a shared list is never mutated again, so the memoized value stays true.
    It pickles as a plain list: the digest never crosses a process boundary.
    """

    __slots__ = ("digest",)

    def __reduce_ex__(self, protocol):
        return (list, (), None, iter(self))


def _hash_rows(rows: Iterable[tuple]) -> bytes:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.digest()


def rows_digest(rows: Sequence[tuple]) -> bytes:
    """sha256 of ``rows`` in order: ``repr(row) + "\\n"`` per row.

    Memoized on a :class:`FrozenRows`; any other sequence (a hand-built
    snapshot's list, say) is hashed afresh on every call.  Callers pass only
    shared lists (see :meth:`TableData.share_rows`).
    """
    if type(rows) is not FrozenRows:
        return _hash_rows(rows)
    try:
        return rows.digest
    except AttributeError:
        rows.digest = digest = _hash_rows(rows)
        return digest


class TableData:
    """Rows of a single table, validated against its schema."""

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence] = ()):
        self.schema = schema
        self._rows: list[tuple] = FrozenRows()
        #: True while ``_rows`` is also referenced by a snapshot and must not
        #: be mutated in place (copy-on-write)
        self._shared = False
        self.extend(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    @property
    def rows(self) -> list[tuple]:
        """The stored rows (direct reference; callers must not mutate)."""
        return self._rows

    # -- copy-on-write snapshot hooks -------------------------------------

    def share_rows(self) -> list[tuple]:
        """The internal row list, frozen for snapshot use.

        The list is marked shared: the next in-place mutation copies it
        first, so the returned reference keeps the snapshot-time contents
        (and a digest memoized on it stays valid).
        """
        self._shared = True
        return self._rows

    def adopt_rows(self, rows: list[tuple]) -> None:
        """Install a snapshot's row list (restore path, and an isolation
        worker's held lists).

        The list stays owned by the snapshot too, so it is adopted in shared
        mode — the same snapshot token can be restored any number of times.
        A plain list (from a hand-built snapshot) is adopted as is; it only
        forgoes digest memoization until the next mutation replaces it.
        """
        self._rows = rows
        self._shared = True

    def _mutable_rows(self) -> list[tuple]:
        if self._shared:
            self._rows = FrozenRows(self._rows)
            self._shared = False
        return self._rows

    def _rebind(self, rows: FrozenRows) -> None:
        self._rows = rows
        self._shared = False

    # -- mutation ----------------------------------------------------------

    def coerce_row(self, row: Sequence) -> tuple:
        if len(row) != len(self.schema.columns):
            raise TypeMismatchError(
                f"table {self.schema.name!r} expects {len(self.schema.columns)} values, "
                f"got {len(row)}"
            )
        return tuple(
            col.type.coerce(value) for col, value in zip(self.schema.columns, row)
        )

    def insert(self, row: Sequence) -> None:
        self._mutable_rows().append(self.coerce_row(row))

    def extend(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.insert(row)

    def clear(self) -> None:
        self._rebind(FrozenRows())

    def replace_all(self, rows: Iterable[Sequence]) -> None:
        self._rebind(FrozenRows(map(self.coerce_row, rows)))

    def install(self, rows: Iterable[tuple]) -> None:
        """Replace the contents with rows already in this table's storage form.

        The trusted counterpart of :meth:`replace_all`: nothing is coerced,
        so ``rows`` must have been read out of a table with this schema.
        """
        self._rebind(FrozenRows(rows))

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        kept = FrozenRows(row for row in self._rows if not predicate(row))
        deleted = len(self._rows) - len(kept)
        self._rebind(kept)
        return deleted

    def update_where(
        self,
        predicate: Callable[[tuple], bool],
        updater: Callable[[tuple], Sequence],
    ) -> int:
        updated = 0
        new_rows = FrozenRows()
        for row in self._rows:
            if predicate(row):
                new_rows.append(self.coerce_row(updater(row)))
                updated += 1
            else:
                new_rows.append(row)
        self._rebind(new_rows)
        return updated

    def set_column(self, column: str, value) -> None:
        """Assign ``value`` to ``column`` in every row (bulk mutation helper)."""
        idx = self.schema.column_index(column)
        coerced = self.schema.column(column).type.coerce(value)
        self._rebind(
            FrozenRows(row[:idx] + (coerced,) + row[idx + 1 :] for row in self._rows)
        )

    def map_column(self, column: str, fn: Callable) -> None:
        """Apply ``fn`` to ``column`` in every row (e.g. the Negate mutation)."""
        idx = self.schema.column_index(column)
        col_type = self.schema.column(column).type
        self._rebind(
            FrozenRows(
                row[:idx] + (col_type.coerce(fn(row[idx])),) + row[idx + 1 :]
                for row in self._rows
            )
        )

    # -- read helpers --------------------------------------------------------

    def halves(self) -> tuple[list[tuple], list[tuple]]:
        """Split the rows roughly into two halves (minimizer primitive)."""
        mid = (len(self._rows) + 1) // 2
        return self._rows[:mid], self._rows[mid:]

    def sample(self, count: int, rng: random.Random) -> list[tuple]:
        """A uniform random sample of ``count`` rows (without replacement)."""
        if count >= len(self._rows):
            return list(self._rows)
        return rng.sample(self._rows, count)

    def copy(self) -> "TableData":
        """An independent copy in O(1): both sides share the row list
        copy-on-write, so its identity (and memoized digest) carries over."""
        clone = TableData(self.schema)
        clone.adopt_rows(self.share_rows())
        return clone
