"""SQL type system for the in-memory engine.

The paper restricts columns to the common numeric (int, bigint, fixed-precision
float), character (char, varchar, text) and date types; this module models
exactly those.  Each type carries a *domain* — the value spread the extraction
algorithms probe (``i_min``/``i_max`` in the paper's notation for numerics and
dates, a maximum length for text).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any

from repro.errors import TypeMismatchError

#: Default integer domain used when a column does not override it.  Kept
#: intentionally smaller than 2**31 so binary searches stay shallow in tests
#: while remaining far wider than any generated data.
DEFAULT_INT_MIN = -(2**31)
DEFAULT_INT_MAX = 2**31 - 1

DEFAULT_BIGINT_MIN = -(2**63)
DEFAULT_BIGINT_MAX = 2**63 - 1

#: Default date domain (the TPC-H data population lives well inside it).
DEFAULT_DATE_MIN = datetime.date(1900, 1, 1)
DEFAULT_DATE_MAX = datetime.date(2100, 12, 31)


@dataclass(frozen=True)
class NumericDomain:
    """Closed interval of values a numeric or date column may take."""

    lo: Any
    hi: Any

    def clamp(self, value):
        if value < self.lo:
            return self.lo
        if value > self.hi:
            return self.hi
        return value

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


class SQLType:
    """Base class for engine types.

    Subclasses implement validation/coercion of Python values and expose the
    classification flags the planner and the extractor use.
    """

    name: str = "unknown"
    is_numeric = False
    is_textual = False
    is_temporal = False

    def coerce(self, value):
        """Validate ``value`` and return its canonical Python representation."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name}>"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


class IntegerType(SQLType):
    """32-bit style integer."""

    name = "integer"
    is_numeric = True

    def __init__(self, lo: int = DEFAULT_INT_MIN, hi: int = DEFAULT_INT_MAX):
        self.domain = NumericDomain(lo, hi)

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store boolean in {self.name} column")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeMismatchError(f"cannot store {value!r} in {self.name} column")


class BigIntType(IntegerType):
    """64-bit style integer."""

    name = "bigint"

    def __init__(self, lo: int = DEFAULT_BIGINT_MIN, hi: int = DEFAULT_BIGINT_MAX):
        super().__init__(lo, hi)


class NumericType(SQLType):
    """Fixed-precision decimal, stored as a float rounded to ``scale`` places.

    The paper's float-filter extraction identifies integral bounds first and
    then refines fractional bounds; ``scale`` tells the extractor how deep the
    fractional binary search must go.
    """

    name = "numeric"
    is_numeric = True

    def __init__(self, scale: int = 2, lo: float = -1e12, hi: float = 1e12):
        self.scale = scale
        self.domain = NumericDomain(round(lo, scale), round(hi, scale))

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store boolean in {self.name} column")
        if isinstance(value, (int, float)):
            return round(float(value), self.scale)
        raise TypeMismatchError(f"cannot store {value!r} in {self.name} column")


class DateType(SQLType):
    """Calendar date; the probing unit for filter extraction is one day."""

    name = "date"
    is_temporal = True

    def __init__(self, lo: datetime.date = DEFAULT_DATE_MIN, hi: datetime.date = DEFAULT_DATE_MAX):
        self.domain = NumericDomain(lo, hi)

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value)
            except ValueError as exc:
                raise TypeMismatchError(f"invalid date literal {value!r}") from exc
        raise TypeMismatchError(f"cannot store {value!r} in date column")


class VarcharType(SQLType):
    """Variable-length string with an upper length bound."""

    name = "varchar"
    is_textual = True

    def __init__(self, max_length: int = 255):
        self.max_length = max_length

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, str):
            if len(value) > self.max_length:
                raise TypeMismatchError(
                    f"value of length {len(value)} exceeds {self.name}({self.max_length})"
                )
            return value
        raise TypeMismatchError(f"cannot store {value!r} in {self.name} column")


class CharType(VarcharType):
    """Fixed-length (blank-insensitive) string.

    We follow PostgreSQL's comparison semantics loosely: values are stored
    verbatim but are not padded; equality comparisons ignore trailing blanks.
    """

    name = "char"


class TextType(VarcharType):
    """Unbounded string."""

    name = "text"

    def __init__(self):
        super().__init__(max_length=10**6)


def date_to_ordinal(d: datetime.date) -> int:
    """Map a date onto the integer axis used for binary-search probing."""
    return d.toordinal()


def format_sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal in the engine's dialect."""
    if value is None:
        return "NULL"
    if isinstance(value, datetime.date):
        return f"date '{value.isoformat()}'"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)
