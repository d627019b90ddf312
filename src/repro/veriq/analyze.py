"""Candidate-query analysis for the bounded equivalence checker.

The verifier's search space is built from the *candidate* SQL alone (the
hidden application is a black box): which tables it reads, which columns its
predicates constrain and with which constants, which columns are joined, and
which columns feed grouping, aggregation, or ordering.  This module parses
the candidate into the engine AST and distils that information into a
:class:`QueryProfile`.

A query outside the profiler's reach (multi-block, set operators, opaque
predicates over arithmetic, unknown tables) raises
:class:`UnsupportedForCertification`; the caller falls back to the
probe-based confidence vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import parse_statement
from repro.engine.catalog import Catalog
from repro.engine.sqlast import (
    ColumnRef,
    Expression,
    SelectStatement,
)
from repro.veriq.symbolic import Atom, JoinAtom, decompose
from repro.errors import ReproError


class UnsupportedForCertification(ReproError):
    """The candidate query is outside the certifiable (single-block) class."""


@dataclass(frozen=True)
class ColKey:
    """A catalog-resolved column identity."""

    table: str
    column: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.table}.{self.column}"


@dataclass
class QueryProfile:
    """Everything the symbolic search needs to know about the candidate."""

    sql: str
    statement: SelectStatement
    #: real (catalog) table names, in FROM order
    tables: list[str]
    #: per-column constant predicates from the WHERE conjunction
    atoms: dict[ColKey, list[Atom]] = field(default_factory=dict)
    #: equi-join column pairs from the WHERE conjunction
    join_pairs: list[tuple[ColKey, ColKey]] = field(default_factory=list)
    #: columns feeding GROUP BY
    group_columns: set[ColKey] = field(default_factory=set)
    #: columns feeding aggregate arguments or projected scalar functions
    value_columns: set[ColKey] = field(default_factory=set)
    #: every column referenced anywhere in the query
    relevant: set[ColKey] = field(default_factory=set)
    #: True when some conjunct could not be decomposed into atoms — the
    #: domains under-approximate harder, but the search stays sound (every
    #: counterexample is confirmed by a concrete replay)
    approximate: bool = False

    @property
    def has_order(self) -> bool:
        return bool(self.statement.order_by)

    @property
    def limit(self):
        return self.statement.limit

    def join_cliques(self) -> list[set[ColKey]]:
        """Connected components of the equi-join graph (union-find)."""
        parent: dict[ColKey, ColKey] = {}

        def find(key: ColKey) -> ColKey:
            parent.setdefault(key, key)
            while parent[key] != key:
                parent[key] = parent[parent[key]]
                key = parent[key]
            return key

        for left, right in self.join_pairs:
            root_l, root_r = find(left), find(right)
            if root_l != root_r:
                parent[root_r] = root_l
        cliques: dict[ColKey, set[ColKey]] = {}
        for key in parent:
            cliques.setdefault(find(key), set()).add(key)
        return [members for members in cliques.values() if len(members) > 1]


def profile_query(sql: str, catalog: Catalog) -> QueryProfile:
    """Parse and profile a candidate query, or raise UnsupportedForCertification."""
    try:
        statement = parse_statement(sql)
    except ReproError as exc:
        raise UnsupportedForCertification(
            f"candidate SQL does not parse in the engine dialect: {exc}"
        ) from exc
    if not isinstance(statement, SelectStatement):
        raise UnsupportedForCertification(
            "candidate is not a single SELECT statement"
        )
    if not statement.tables:
        raise UnsupportedForCertification("candidate has no FROM clause")

    bindings: dict[str, str] = {}
    tables: list[str] = []
    for ref in statement.tables:
        try:
            schema = catalog.get(ref.name)
        except ReproError as exc:
            raise UnsupportedForCertification(
                f"candidate references unknown table {ref.name!r}"
            ) from exc
        bindings[ref.binding.lower()] = schema.name
        tables.append(schema.name)

    profile = QueryProfile(sql=sql, statement=statement, tables=tables)
    resolver = _Resolver(bindings, catalog, tables)

    atoms, join_atoms, opaque = decompose(statement.where)
    profile.approximate = bool(opaque)
    for atom in atoms:
        key = resolver.resolve(atom.column)
        if key is None:
            profile.approximate = True
            continue
        profile.atoms.setdefault(key, []).append(atom)
        profile.relevant.add(key)
    for join in join_atoms:
        left = resolver.resolve(join.left)
        right = resolver.resolve(join.right)
        if left is None or right is None:
            profile.approximate = True
            continue
        profile.join_pairs.append((left, right))
        profile.relevant.update((left, right))

    for expr in statement.group_by:
        for key in resolver.columns_in(expr):
            profile.group_columns.add(key)
            profile.relevant.add(key)
    for item in statement.items:
        # every projected column varies: a plain projection pinned to a
        # single filler could never witness an ordering or projection
        # divergence (e.g. a dropped secondary sort key)
        for key in resolver.columns_in(item.expr):
            profile.relevant.add(key)
            profile.value_columns.add(key)
    if statement.having is not None:
        for key in resolver.columns_in(statement.having):
            profile.value_columns.add(key)
            profile.relevant.add(key)
    for order in statement.order_by:
        for key in resolver.columns_in(order.expr):
            profile.value_columns.add(key)
            profile.relevant.add(key)

    return profile


class _Resolver:
    """Resolve AST column references to catalog columns."""

    def __init__(self, bindings: dict[str, str], catalog: Catalog, tables: list[str]):
        self._bindings = bindings
        self._catalog = catalog
        self._tables = tables

    def resolve(self, ref: ColumnRef) -> ColKey | None:
        if ref.table is not None:
            table = self._bindings.get(ref.table.lower())
            if table is None:
                return None
            if self._column_exists(table, ref.name):
                return ColKey(table, self._canonical(table, ref.name))
            return None
        hits = [
            table for table in self._tables if self._column_exists(table, ref.name)
        ]
        if len(hits) == 1:
            return ColKey(hits[0], self._canonical(hits[0], ref.name))
        return None  # unresolvable or ambiguous (or a select-item alias)

    def columns_in(self, expr: Expression) -> list[ColKey]:
        keys = []
        for node in expr.walk():
            if isinstance(node, ColumnRef):
                key = self.resolve(node)
                if key is not None:
                    keys.append(key)
        return keys

    def _column_exists(self, table: str, column: str) -> bool:
        return self._catalog.get(table).has_column(column)

    def _canonical(self, table: str, column: str) -> str:
        return self._catalog.get(table).column(column).name
