"""Catalog: table schemas, key constraints, and the schema graph edges.

The schema graph (paper §4.3) is drawn at *column* granularity: every valid
PK–FK and FK–FK linkage contributes an edge between the two key columns.  The
catalog records the raw PK/FK declarations; :mod:`repro.sgraph` derives the
graph structure the join extractor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro.engine.types import SQLType
from repro.errors import CatalogError, UndefinedColumnError, UndefinedTableError


@dataclass(frozen=True)
class Column:
    """A named, typed column of a table."""

    name: str
    type: SQLType
    nullable: bool = True

    def __post_init__(self):
        if not self.name:
            raise CatalogError("column name must be non-empty")


@dataclass(frozen=True)
class ForeignKey:
    """A (possibly composite) foreign-key declaration.

    ``columns[i]`` in the owning table references ``ref_columns[i]`` in
    ``ref_table``.
    """

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.ref_columns):
            raise CatalogError("foreign key column lists must have equal length")
        if not self.columns:
            raise CatalogError("foreign key must reference at least one column")


@dataclass(frozen=True)
class TableSchema:
    """Schema of a single table."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()

    def __post_init__(self):
        seen = set()
        for col in self.columns:
            lowered = col.name.lower()
            if lowered in seen:
                raise CatalogError(f"duplicate column {col.name!r} in table {self.name!r}")
            seen.add(lowered)
        for key_col in self.primary_key:
            if key_col.lower() not in seen:
                raise CatalogError(f"primary key column {key_col!r} missing from {self.name!r}")
        for fk in self.foreign_keys:
            for col in fk.columns:
                if col.lower() not in seen:
                    raise CatalogError(f"foreign key column {col!r} missing from {self.name!r}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(col.name.lower() == lowered for col in self.columns)

    def column(self, name: str) -> Column:
        lowered = name.lower()
        for col in self.columns:
            if col.name.lower() == lowered:
                return col
        raise UndefinedColumnError(name, context=f'table "{self.name}"')

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == lowered:
                return i
        raise UndefinedColumnError(name, context=f'table "{self.name}"')

    def key_columns(self) -> set[str]:
        """All columns participating in the primary key or any foreign key."""
        keys = {c.lower() for c in self.primary_key}
        for fk in self.foreign_keys:
            keys.update(c.lower() for c in fk.columns)
        return keys

    def renamed(self, new_name: str) -> "TableSchema":
        return replace(self, name=new_name)

    def signature(self) -> bytes:
        """``|name:type`` per column, the bytes content fingerprints hash.

        Computed once per schema and kept out of its pickled state, so
        neither equality nor the pickled form of a schema changes.
        """
        signature = self.__dict__.get("_signature")
        if signature is None:
            signature = "".join(
                f"|{column.name}:{column.type!r}" for column in self.columns
            ).encode()
            object.__setattr__(self, "_signature", signature)
        return signature

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_signature" in state:
            state = {key: value for key, value in state.items() if key != "_signature"}
        return state


class Catalog:
    """Mutable collection of table schemas with rename support.

    Table lookup is case-insensitive, mirroring common engine behaviour (the
    hidden workload queries use lowercase identifiers throughout).
    """

    def __init__(self, schemas: Iterable[TableSchema] = ()):
        self._tables: dict[str, TableSchema] = {}
        for schema in schemas:
            self.add(schema)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> list[str]:
        return [schema.name for schema in self._tables.values()]

    def add(self, schema: TableSchema) -> None:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f'relation "{schema.name}" already exists')
        self._tables[key] = schema

    def drop(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise UndefinedTableError(name)
        del self._tables[key]

    def get(self, name: str) -> TableSchema:
        key = name.lower()
        if key not in self._tables:
            raise UndefinedTableError(name)
        return self._tables[key]

    def rename(self, old: str, new: str) -> None:
        key_old, key_new = old.lower(), new.lower()
        if key_old not in self._tables:
            raise UndefinedTableError(old)
        if key_new in self._tables:
            raise CatalogError(f'relation "{new}" already exists')
        schema = self._tables.pop(key_old)
        self._tables[key_new] = schema.renamed(new)

    def replace(self, schema: TableSchema) -> None:
        """Swap in a new schema definition for an existing table."""
        key = schema.name.lower()
        if key not in self._tables:
            raise UndefinedTableError(schema.name)
        self._tables[key] = schema

    def foreign_key_edges(self) -> list[tuple[str, str, str, str]]:
        """All (table, column, ref_table, ref_column) linkages, per key element.

        Composite keys yield one edge per key element, matching the paper's
        column-granularity schema-graph construction.
        """
        edges = []
        for schema in self._tables.values():
            for fk in schema.foreign_keys:
                if fk.ref_table.lower() not in self._tables:
                    continue
                for col, ref_col in zip(fk.columns, fk.ref_columns):
                    edges.append((schema.name, col, fk.ref_table, ref_col))
        return edges

    def copy(self) -> "Catalog":
        clone = Catalog()
        clone._tables = dict(self._tables)  # schemas are immutable
        return clone
