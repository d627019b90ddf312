"""S-value sourcing.

An *s-value* (paper §4.4) is a column value that satisfies the query's filter
predicates — every database the Generation Pipeline synthesizes is populated
exclusively with s-values so the SPJ core passes rows through.  This module
turns the extracted filters + catalog domains into a value factory:

* ``value(column)`` — one valid s-value;
* ``distinct(column, n)`` — ``n`` pairwise-distinct s-values (ascending for
  ordered types), raising :class:`SValueError` when the filter admits fewer;
* ``capacity(column)`` — how many distinct s-values exist (the ``n_i`` terms
  of the ``l_max`` bound in limit extraction, §5.4).
"""

from __future__ import annotations

import datetime
import string

from repro.core.model import (
    InListFilter,
    MultiRangeFilter,
    NullFilter,
    TextFilter,
)
from repro.core.session import ExtractionSession
from repro.engine.expressions import like_matches
from repro.engine.types import DateType, NumericType, VarcharType
from repro.errors import ExtractionError
from repro.sgraph.schema_graph import ColumnNode


class SValueError(ExtractionError):
    """The requested number of distinct s-values does not exist."""


class Axis:
    """Maps a column type's values onto an integer probe axis and back.

    Dates map to day ordinals, fixed-precision decimals to integers scaled
    by ``10^scale``, integers to themselves.  :meth:`of` also spans the
    column's catalog domain as ``lo``/``hi``.
    """

    def __init__(self, col_type):
        self.col_type = col_type
        if isinstance(col_type, NumericType):
            self.scale = 10**col_type.scale

    @classmethod
    def of(cls, session: ExtractionSession, column: ColumnNode) -> "Axis":
        axis = cls(session.column_type(column))
        domain = session.column_domain(column)
        axis.lo = axis.to_axis(domain.lo)
        axis.hi = axis.to_axis(domain.hi)
        return axis

    def to_axis(self, value) -> int:
        if isinstance(self.col_type, DateType):
            return value.toordinal()
        if isinstance(self.col_type, NumericType):
            return round(value * self.scale)
        return value

    def from_axis(self, axis: int):
        if isinstance(self.col_type, DateType):
            return datetime.date.fromordinal(axis)
        if isinstance(self.col_type, NumericType):
            return axis / self.scale
        return axis


class SValueSource:
    """Factory for filter-compatible column values."""

    def __init__(self, session: ExtractionSession):
        self._session = session
        # Both caches are sound because the source is constructed after the
        # filter set (and any HAVING guards) is final.
        self._capacity_cache: dict[ColumnNode, int] = {}
        self._distinct_cache: dict[ColumnNode, list] = {}

    # -- public API -----------------------------------------------------------

    def value(self, column: ColumnNode):
        return self.distinct(column, 1)[0]

    def pair(self, column: ColumnNode) -> tuple:
        values = self.distinct(column, 2)
        return values[0], values[1]

    def distinct(self, column: ColumnNode, n: int) -> list:
        """``n`` distinct s-values, ascending where the type is ordered."""
        cached = self._distinct_cache.get(column)
        if cached is not None and len(cached) >= n:
            return cached[:n]
        col_type = self._session.column_type(column)
        predicate = self._session.query.filter_on(column)
        if isinstance(predicate, NullFilter):
            if predicate.negated:
                predicate = None  # any non-NULL domain value qualifies
            else:
                values = [None]
                if len(values) < n:
                    raise SValueError(
                        f"column {column} is pinned to NULL; {n} values requested"
                    )
                return values
        if isinstance(predicate, InListFilter):
            values = sorted(predicate.values)[:n]
        elif isinstance(predicate, MultiRangeFilter):
            values = self._multirange_values(predicate, n, col_type)
        elif col_type.is_textual:
            values = self._text_values(column, predicate, n)
        else:
            values = self._numeric_values(column, predicate, n, col_type)
        if len(values) < n:
            raise SValueError(
                f"column {column} admits only {len(values)} distinct s-values, "
                f"{n} requested"
            )
        if cached is None or len(values) > len(cached):
            self._distinct_cache[column] = values
        return values

    #: text capacity is capped here — far above any probe cardinality the
    #: pipeline requests.
    TEXT_CAPACITY_CAP = 4096

    def capacity(self, column: ColumnNode) -> int:
        """Number of distinct s-values the column admits (possibly huge).

        For a textual column under a LIKE pattern the count is established
        constructively — by generating matching values under the column's
        length limit — so a ``distinct(column, n)`` call with
        ``n <= capacity(column)`` never fails; without a predicate it is the
        number of strings :func:`_enumerate_strings` can produce, in closed
        form.
        """
        cached = self._capacity_cache.get(column)
        if cached is not None:
            return cached
        col_type = self._session.column_type(column)
        predicate = self._session.query.filter_on(column)
        if isinstance(predicate, NullFilter):
            predicate = None if predicate.negated else predicate
        if isinstance(predicate, NullFilter):
            capacity = 1  # IS NULL pins the column
        elif isinstance(predicate, InListFilter):
            capacity = len(predicate.values)
        elif isinstance(predicate, MultiRangeFilter):
            axis = Axis(col_type)
            capacity = sum(
                axis.to_axis(hi) - axis.to_axis(lo) + 1
                for lo, hi in predicate.intervals
            )
        elif col_type.is_textual and predicate is None:
            capacity = _count_strings(self.TEXT_CAPACITY_CAP, self._max_length(column))
        elif col_type.is_textual:
            capacity = len(self._text_values(column, predicate, self.TEXT_CAPACITY_CAP))
        else:
            lo_axis, hi_axis = self._numeric_axis_range(column, predicate, col_type)
            capacity = hi_axis - lo_axis + 1
        self._capacity_cache[column] = capacity
        return capacity

    def is_equality_constrained(self, column: ColumnNode) -> bool:
        """True when the filter pins the column to a single value."""
        return self.capacity(column) == 1

    # -- numeric / date --------------------------------------------------------

    def _numeric_axis_range(self, column, predicate, col_type) -> tuple[int, int]:
        domain = self._session.column_domain(column)
        lo = predicate.lo if predicate is not None else domain.lo
        hi = predicate.hi if predicate is not None else domain.hi
        guard = self._session.svalue_guards.get(column)
        if guard is not None:
            guard_lo, guard_hi = guard
            if guard_lo is not None and guard_lo > lo:
                lo = guard_lo
            if guard_hi is not None and guard_hi < hi:
                hi = guard_hi
        axis = Axis(col_type)
        return axis.to_axis(lo), axis.to_axis(hi)

    def _numeric_values(self, column, predicate, n, col_type) -> list:
        lo_axis, hi_axis = self._numeric_axis_range(column, predicate, col_type)
        # Prefer small positive values when the range allows (positive keys,
        # readable probe databases); otherwise start at the lower bound.
        start = lo_axis if lo_axis > 1 else min(max(lo_axis, 1), hi_axis)
        if start + n - 1 > hi_axis:
            start = max(lo_axis, hi_axis - n + 1)
        axis = Axis(col_type)
        return [
            axis.from_axis(point)
            for point in range(start, min(hi_axis, start + n - 1) + 1)
        ]

    def _multirange_values(self, predicate, n, col_type) -> list:
        """Ascending s-values drawn across a union of intervals."""
        axis = Axis(col_type)
        values: list = []
        for lo, hi in predicate.intervals:
            point = axis.to_axis(lo)
            end = axis.to_axis(hi)
            while point <= end and len(values) < n:
                values.append(axis.from_axis(point))
                point += 1
            if len(values) == n:
                break
        return values

    # -- textual --------------------------------------------------------------

    def _text_values(self, column, predicate, n) -> list[str]:
        max_length = self._max_length(column)
        if predicate is None:
            return _enumerate_strings(n, max_length)
        assert isinstance(predicate, TextFilter)
        return _expand_pattern(predicate.pattern, n, max_length)

    def _max_length(self, column) -> int:
        col_type = self._session.column_type(column)
        if isinstance(col_type, VarcharType):
            return col_type.max_length
        return 10**6


def _enumerate_strings(n: int, max_length: int) -> list[str]:
    """The first ``n`` strings in shortlex order over a 26-letter alphabet."""
    alphabet = string.ascii_lowercase
    values: list[str] = []
    length = 1
    while len(values) < n and length <= max_length:
        count_at_length = 26**length
        for i in range(count_at_length):
            chars = []
            remainder = i
            for _ in range(length):
                chars.append(alphabet[remainder % 26])
                remainder //= 26
            values.append("".join(reversed(chars)))
            if len(values) == n:
                return values
        length += 1
    return values


def _count_strings(cap: int, max_length: int) -> int:
    """``len(_enumerate_strings(cap, max_length))``: ``min(cap, Σ 26^l)``
    over lengths ``1..max_length``, without generating a string."""
    total = 0
    for length in range(1, max_length + 1):
        total += 26**length
        if total >= cap:
            return cap
    return total


def _expand_pattern(pattern: str, n: int, max_length: int) -> list[str]:
    """Generate up to ``n`` distinct strings matching a LIKE pattern."""
    results: list[str] = []
    if "%" in pattern:
        # Vary both the expansion length and the expansion character of the
        # first '%' (the remaining wildcards collapse to fixed fillers).
        first = pattern.index("%")
        prefix = pattern[:first].replace("_", "a")
        suffix = pattern[first + 1 :].replace("%", "").replace("_", "a")
        alphabet = string.ascii_lowercase
        for k in range(0, max(2, n + 4)):
            base_len = len(prefix) + k + len(suffix)
            if base_len > max_length:
                break
            fillers = alphabet if k > 0 else "b"
            for ch in fillers:
                candidate = prefix + ch * k + suffix
                if like_matches(candidate, pattern) and candidate not in results:
                    results.append(candidate)
                if len(results) == n:
                    return results
        return results
    if "_" in pattern:
        # Vary the characters bound to '_' positions.
        slots = [i for i, ch in enumerate(pattern) if ch == "_"]
        alphabet = string.ascii_lowercase
        count = 0
        while len(results) < n and count < 26 ** len(slots):
            chars = []
            remainder = count
            for _slot in slots:
                chars.append(alphabet[remainder % 26])
                remainder //= 26
            candidate = list(pattern)
            for slot, ch in zip(slots, chars):
                candidate[slot] = ch
            text = "".join(candidate)
            if len(text) <= max_length and text not in results:
                results.append(text)
            count += 1
        return results
    return [pattern] if len(pattern) <= max_length else []
