"""Symbolic interpretation helpers over the engine's type system.

The bounded equivalence checker (:mod:`repro.veriq`) reasons about a query's
behaviour on *small symbolic databases*: instead of concrete row streams it
manipulates finite per-column value universes — filter-constant boundaries,
join-key alphabets, aggregate-separating value pairs — each expressed in the
column's own SQL type.  This module is the verifier's vocabulary for that
reasoning:

* **atom extraction** — decompose a boolean AST expression into
  column-vs-constant :class:`Atom` predicates and column-vs-column
  :class:`JoinAtom` equalities (the shapes the EQC dialect allows);
* **typed unit steps** — the smallest representable increment of a type
  (``1`` for integers, ``10^-scale`` for numerics, one day for dates), used
  to build values *just* inside and outside a predicate boundary;
* **boundary universes** — for a constant ``c``, the set
  ``{pred(c), c, succ(c)}`` clamped to the column's domain;
* **python-side atom evaluation** — decide an atom's truth for a concrete
  value without running the SQL engine, mirroring its NULL semantics (any
  comparison against NULL is not-TRUE; only IS NULL sees NULLs).

Everything here is deterministic and pure: the same expression and type
always produce the same universes, which keeps the verifier's certificates
reproducible.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.engine.expressions import like_matches
from repro.engine.sqlast import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    conjuncts,
)

#: comparison operators an Atom may carry (plus the synthetic ones below)
COMPARISONS = ("=", "<>", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class Atom:
    """One column-vs-constant predicate from a WHERE conjunct.

    ``op`` is a comparison operator, ``"between"`` (values = (lo, hi)),
    ``"in"`` / ``"not_in"`` (values = members), ``"like"`` / ``"not_like"``
    (values = (pattern,)), or ``"is_null"`` / ``"is_not_null"`` (no values).
    """

    column: ColumnRef
    op: str
    values: tuple = ()

    def holds(self, value) -> bool:
        """Truth of this atom for a concrete cell value (engine semantics)."""
        if self.op == "is_null":
            return value is None
        if self.op == "is_not_null":
            return value is not None
        if value is None:
            return False  # NULL comparisons are not-TRUE in predicate context
        if self.op == "between":
            lo, hi = self.values
            return lo <= value <= hi
        if self.op == "in":
            return value in self.values
        if self.op == "not_in":
            return value not in self.values
        if self.op == "like":
            return isinstance(value, str) and like_matches(value, self.values[0])
        if self.op == "not_like":
            return isinstance(value, str) and not like_matches(value, self.values[0])
        (constant,) = self.values
        if self.op == "=":
            return value == constant
        if self.op == "<>":
            return value != constant
        if self.op == "<":
            return value < constant
        if self.op == ">":
            return value > constant
        if self.op == "<=":
            return value <= constant
        return value >= constant  # ">="


@dataclass(frozen=True)
class JoinAtom:
    """One column = column equality from a WHERE conjunct."""

    left: ColumnRef
    right: ColumnRef


def decompose(predicate: Optional[Expression]) -> tuple[list[Atom], list[JoinAtom], list[Expression]]:
    """Split a boolean expression into atoms, join equalities, and leftovers.

    Leftovers are conjuncts outside the recognised shapes (disjunctions,
    arithmetic over columns, …); the caller treats their presence as an
    approximation flag, never as an error — any counterexample the verifier
    proposes is confirmed by a concrete replay regardless.
    """
    atoms: list[Atom] = []
    join_atoms: list[JoinAtom] = []
    opaque: list[Expression] = []
    for conjunct in conjuncts(predicate):
        parsed = _parse_conjunct(conjunct)
        if parsed is None:
            opaque.append(conjunct)
        elif isinstance(parsed, JoinAtom):
            join_atoms.append(parsed)
        else:
            atoms.append(parsed)
    return atoms, join_atoms, opaque


def _parse_conjunct(expr: Expression):
    if isinstance(expr, BinaryOp) and expr.op in COMPARISONS:
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if expr.op == "=":
                return JoinAtom(left, right)
            return None  # non-equi column comparison: outside EQC
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            return Atom(left, expr.op, (right.value,))
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            return Atom(right, _flip(expr.op), (left.value,))
        return None
    if isinstance(expr, Between):
        if (
            isinstance(expr.operand, ColumnRef)
            and isinstance(expr.low, Literal)
            and isinstance(expr.high, Literal)
        ):
            return Atom(expr.operand, "between", (expr.low.value, expr.high.value))
        return None
    if isinstance(expr, InList):
        if isinstance(expr.operand, ColumnRef) and all(
            isinstance(item, Literal) for item in expr.items
        ):
            values = tuple(item.value for item in expr.items)
            return Atom(expr.operand, "not_in" if expr.negated else "in", values)
        return None
    if isinstance(expr, Like):
        if isinstance(expr.operand, ColumnRef):
            op = "not_like" if expr.negated else "like"
            return Atom(expr.operand, op, (expr.pattern,))
        return None
    if isinstance(expr, IsNull):
        if isinstance(expr.operand, ColumnRef):
            return Atom(expr.operand, "is_not_null" if expr.negated else "is_null")
        return None
    return None


def _flip(op: str) -> str:
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)


# --- typed steps and universes ----------------------------------------------


def unit_step(sql_type):
    """The smallest increment of a type, or None for text types."""
    if getattr(sql_type, "is_temporal", False):
        return datetime.timedelta(days=1)
    if getattr(sql_type, "is_textual", False):
        return None
    scale = getattr(sql_type, "scale", None)
    if scale is not None:
        return 10**-scale
    return 1


def shift(value, step):
    """``value + step`` with float snapping so numerics stay on-scale."""
    if isinstance(value, datetime.date):
        return value + step
    if isinstance(step, float) or isinstance(value, float):
        return round(value + step, 9)
    return value + step


def clamp_to_domain(sql_type, values: Iterable) -> list:
    """Keep only values the column's declared domain (and type) accepts."""
    kept = []
    domain = getattr(sql_type, "domain", None)
    for value in values:
        if value is None:
            kept.append(None)
            continue
        try:
            coerced = sql_type.coerce(value)
        except Exception:
            continue
        if domain is not None and not domain.contains(coerced):
            continue
        kept.append(coerced)
    return kept


def boundary_values(sql_type, constant) -> list:
    """``{pred(c), c, succ(c)}`` for ordered types; LIKE-style variants for text."""
    if constant is None:
        return [None]
    if getattr(sql_type, "is_textual", False):
        return clamp_to_domain(sql_type, text_variants(constant))
    step = unit_step(sql_type)
    return clamp_to_domain(
        sql_type, [shift(constant, -step), constant, shift(constant, step)]
    )


def text_variants(constant: str) -> list[str]:
    """Strings at and around an equality/LIKE constant (pattern-aware)."""
    base = constant.replace("%", "").replace("_", "a")
    variants = [constant] if "%" not in constant and "_" not in constant else []
    for candidate in (base, base + "x", "x" + base, base[:-1], "zz"):
        if candidate and candidate not in variants:
            variants.append(candidate)
    return variants


def key_universe(sql_type, size: int) -> list:
    """A small shared join-key alphabet expressed in the column's type."""
    if getattr(sql_type, "is_temporal", False):
        base = datetime.date(2001, 1, 1)
        raw = [base + datetime.timedelta(days=i) for i in range(size)]
    elif getattr(sql_type, "is_textual", False):
        raw = [f"k{i}" for i in range(1, size + 1)]
    elif getattr(sql_type, "scale", None) is not None:
        raw = [float(i) for i in range(1, size + 1)]
    else:
        raw = list(range(1, size + 1))
    return clamp_to_domain(sql_type, raw)


def generic_values(sql_type, count: int = 2) -> list:
    """``count`` distinct in-domain values for an unconstrained column."""
    if getattr(sql_type, "is_temporal", False):
        base = datetime.date(2002, 6, 1)
        raw = [base + datetime.timedelta(days=3 * i) for i in range(count)]
    elif getattr(sql_type, "is_textual", False):
        raw = [("v" + chr(ord("a") + i))[: getattr(sql_type, "max_length", 8) or 8]
               for i in range(count)]
    elif getattr(sql_type, "scale", None) is not None:
        raw = [float(i + 1) for i in range(count)]
    else:
        raw = [i + 1 for i in range(count)]
    domain = getattr(sql_type, "domain", None)
    if (
        domain is not None
        and not getattr(sql_type, "is_textual", False)
        and not all(domain.contains(sql_type.coerce(v)) for v in raw)
    ):
        # Narrow domain that excludes the friendly defaults: anchor at its
        # low end and step upward instead.
        step = unit_step(sql_type)
        lo = domain.lo
        raw = [lo]
        for _ in range(count - 1):
            lo = shift(lo, step)
            raw.append(lo)
    values = clamp_to_domain(sql_type, raw)
    # dedupe, preserve order
    seen: set = set()
    return [v for v in values if not (v in seen or seen.add(v))]
