"""The public database facade.

A :class:`Database` bundles a catalog with row storage and exposes:

* a SQL interface (:meth:`execute`) covering the EQC dialect plus DDL/DML —
  this is what hidden applications use;
* a direct Python API for the same operations (create/rename/drop/insert/
  sample/clone) — this is what the extraction pipeline uses, mirroring the
  paper's assumption that the DB is "freely accessible via its API".
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

from repro.engine.catalog import Catalog, Column, ForeignKey, TableSchema
from repro.engine.executor import execute_plan
from repro.engine.expressions import evaluate, predicate_holds
from repro.engine.parser import parse_statement
from repro.engine.planner import _Scope, BoundTable, _resolve, plan_select
from repro.engine.result import Result
from repro.engine.sqlast import (
    ColumnDef,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    RenameTable,
    SelectStatement,
    Update,
)
from repro.engine.storage import TableData, rows_digest
from repro.obs.trace import NULL_TRACER
from repro.engine.types import (
    BigIntType,
    CharType,
    DateType,
    IntegerType,
    NumericType,
    SQLType,
    TextType,
    VarcharType,
)
from repro.errors import (
    DatabaseError,
    ExecutableTimeoutError,
    UndefinedTableError,
)


def type_from_def(definition: ColumnDef) -> SQLType:
    """Instantiate an engine type from a parsed DDL column definition."""
    name = definition.type_name
    args = definition.type_args
    if name in ("int", "integer"):
        return IntegerType()
    if name == "bigint":
        return BigIntType()
    if name in ("numeric", "decimal", "float"):
        scale = args[1] if len(args) > 1 else 2
        return NumericType(scale=scale)
    if name == "date":
        return DateType()
    if name == "varchar":
        return VarcharType(args[0] if args else 255)
    if name == "char":
        return CharType(args[0] if args else 1)
    if name == "text":
        return TextType()
    raise DatabaseError(f"unsupported column type {name!r}")


class DatabaseSnapshot:
    """An immutable point-in-time capture of a database (the sandbox token).

    Row lists are *shared* with the live tables (copy-on-write, see
    :meth:`~repro.engine.storage.TableData.share_rows`), so taking a snapshot
    is O(tables), not O(rows) — cheap enough to wrap every invocation.  The
    catalog is captured too: :meth:`Database.restore` undoes DDL (created,
    dropped, and renamed tables) as well as DML.

    Equality compares *content* (schemas and rows), so two independently
    built databases with identical data produce equal snapshots.
    """

    __slots__ = ("schemas", "rows", "version")

    def __init__(
        self,
        schemas: dict[str, TableSchema],
        rows: dict[str, list[tuple]],
        version: int = 0,
    ):
        self.schemas = schemas
        self.rows = rows
        #: the catalog version at capture time; :meth:`Database.restore`
        #: reinstates it so plan-cache entries compiled under this catalog
        #: become valid again (equality ignores it — it names a state within
        #: one database lineage, not content).
        self.version = version

    def __eq__(self, other) -> bool:
        if not isinstance(other, DatabaseSnapshot):
            return NotImplemented
        return self.schemas == other.schemas and self.rows == other.rows

    def __hash__(self):  # snapshots are mutable-adjacent; keep them unhashable
        raise TypeError("DatabaseSnapshot is not hashable")

    def fingerprint(self) -> str:
        """A stable content hash of the captured state (hex digest)."""
        return _content_fingerprint(self.schemas, self.rows)

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DatabaseSnapshot {len(self.schemas)} tables, "
            f"{self.total_rows()} rows>"
        )


def _content_fingerprint(
    schemas: dict[str, TableSchema], rows: dict[str, list[tuple]]
) -> str:
    """sha256 over, in table-name order, each table's name, column signature
    and row digest (:func:`~repro.engine.storage.rows_digest`).

    Row *order* is included: the sandbox guarantee is byte-for-byte
    restoration, and the engine's scans are order-sensitive.  Row digests are
    memoized on frozen row lists, so a fingerprint costs O(rows of the tables
    whose list is new), not O(all rows).
    """
    digest = hashlib.sha256()
    for name in sorted(schemas):
        digest.update(name.encode())
        digest.update(schemas[name].signature())
        digest.update(b"#")
        digest.update(rows_digest(rows[name]))
        digest.update(b"@")
    return digest.hexdigest()


class _VersionClock:
    """A monotonic catalog-version sequence shared across one database lineage.

    Every DDL statement draws a fresh version, so a version number names
    exactly one catalog state for the lifetime of the lineage — restoring a
    snapshot *reinstates* its recorded version rather than drawing a new one,
    which is what lets plan-cache entries survive the sandbox's
    restore-per-invocation cycle.  Probe replicas built with
    :meth:`Database.replica` share the parent's clock, and with it the
    lineage's ``version → catalog digest`` memo: replicas and restores reuse
    the digest instead of rehashing the catalog.
    """

    __slots__ = ("_value", "_lock", "_digests")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()
        self._digests: dict[int, str] = {}

    def next(self) -> int:
        with self._lock:
            self._value += 1
            return self._value

    def digest(self, version: int, catalog: Catalog) -> str:
        """The digest of ``catalog``, which this lineage names ``version``."""
        value = self._digests.get(version)
        if value is None:
            value = self._digests[version] = _catalog_digest(catalog)
        return value


def _catalog_digest(catalog: Catalog) -> str:
    """A content hash of a catalog (names, columns, types, PK/FK)."""
    digest = hashlib.sha256()
    for name in sorted(catalog.table_names, key=str.lower):
        schema = catalog.get(name)
        digest.update(name.lower().encode())
        digest.update(schema.signature())
        digest.update(f"#pk:{schema.primary_key}".encode())
        digest.update(f"#fk:{schema.foreign_keys}".encode())
        digest.update(b"@")
    return digest.hexdigest()[:16]


def _scope_counts() -> dict:
    return {
        "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        "cross_scope_hits": 0,
    }


class PlanCache:
    """A thread-safe LRU of parsed statements and bound SELECT plans.

    Keyed ``(sql, catalog_version, catalog_digest)``.  Parsing is
    catalog-independent but planning binds column indices and schema
    objects, so any DDL (create, drop, rename, constraint stripping) must
    invalidate.  Rather than flushing, DDL bumps the database's catalog
    version: old entries become unreachable and age out of the LRU, while a
    sandbox restore that reinstates an old version brings its entries
    straight back.  Version numbers are per-lineage sequences, so two
    lineages can sit at the same version with different catalogs; the
    catalog *content* digest makes that collision impossible, which is what
    lets one cache serve a silo, its probe replicas, and every job of a
    ``repro serve`` process.

    Each entry is owned by the scope that inserted it (a database's
    ``plan_cache_scope``: the serve layer uses the job id).  Hits, misses,
    evictions and owned entries are counted per scope as well as in total;
    ``cross_scope_hits`` counts reuse of another scope's entry.
    """

    __slots__ = (
        "capacity", "_entries", "_owners", "_scopes", "_lock",
        "hits", "misses", "evictions", "cross_scope_hits",
    )

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._owners: dict[tuple, str] = {}
        self._scopes: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cross_scope_hits = 0

    def _counts(self, scope: str) -> dict:
        counts = self._scopes.get(scope)
        if counts is None:
            counts = self._scopes[scope] = _scope_counts()
        return counts

    def get(self, key: tuple, scope: str):
        """The cached ``(statement, plan)`` pair, or None.  ``plan`` is None
        for non-SELECT statements (only the parse is reusable)."""
        with self._lock:
            counts = self._counts(scope)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                counts["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            counts["hits"] += 1
            if self._owners[key] != scope:
                self.cross_scope_hits += 1
                counts["cross_scope_hits"] += 1
            return entry

    def put(self, key: tuple, entry: tuple, scope: str) -> None:
        with self._lock:
            if key not in self._entries:
                self._owners[key] = scope
                self._counts(scope)["entries"] += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                owner = self._scopes[self._owners.pop(evicted)]
                owner["entries"] -= 1
                owner["evictions"] += 1
                self.evictions += 1

    def stats(self, scope: Optional[str] = None) -> dict:
        """Counters for one scope's own traffic and entries, or for the
        whole cache (plus the number of ``scopes``) when ``scope`` is None."""
        with self._lock:
            if scope is not None:
                counts = dict(self._scopes.get(scope) or _scope_counts())
            else:
                counts = {
                    "hits": self.hits,
                    "misses": self.misses,
                    "evictions": self.evictions,
                    "entries": len(self._entries),
                    "cross_scope_hits": self.cross_scope_hits,
                    "scopes": len(self._scopes),
                }
        total = counts["hits"] + counts["misses"]
        counts["hit_rate"] = (counts["hits"] / total) if total else 0.0
        return counts


#: statement class → the ``statement`` tag value on its query span
_STATEMENT_KINDS = {
    SelectStatement: "select",
    CreateTable: "create_table",
    DropTable: "drop_table",
    RenameTable: "rename_table",
    Insert: "insert",
    Update: "update",
    Delete: "delete",
}


class Database:
    """An in-memory relational database instance."""

    def __init__(self, schemas: Iterable[TableSchema] = ()):
        self.catalog = Catalog()
        self._tables: dict[str, TableData] = {}
        #: observability hook: engine statements open ``query`` spans on this
        #: tracer (parse/plan/execute timing, row counts).  The default
        #: :data:`~repro.obs.trace.NULL_TRACER` records nothing; either way
        #: the statement takes the same path (see :meth:`execute`).
        self.tracer = NULL_TRACER
        #: absolute ``time.perf_counter()`` deadline for cooperative timeouts;
        #: the executor and the scan cursor poll it (see :meth:`check_deadline`).
        self.deadline: Optional[float] = None
        #: optional :class:`repro.resilience.budgets.ResourceBudget`; when
        #: attached, SELECTs charge rows scanned against it and the deadline
        #: poll doubles as the wall-clock watchdog tick.
        self.budget = None
        #: monotonic catalog-version source for this lineage (shared with
        #: probe replicas, see :meth:`replica`).
        self._clock = _VersionClock()
        #: the current catalog version; bumped by DDL, reinstated by
        #: :meth:`restore`.  Plan-cache keys embed it.
        self.catalog_version = 0
        #: parse/plan LRU (set to None to disable caching entirely).
        self.plan_cache: Optional[PlanCache] = PlanCache()
        #: the plan-cache accounting scope this database's statements count
        #: under (the serve layer uses the job id; replicas inherit it).
        self.plan_cache_scope = "default"
        for schema in schemas:
            self.create_table(schema)

    def check_deadline(self) -> None:
        """Raise if the cooperative execution deadline has passed.

        This models the paper's "terminate the ongoing execution after a short
        timeout period" (§4.1): the From-clause extractor sets a deadline so
        that probe runs against a mutated schema either fail fast (table
        renamed away) or are cut short.
        """
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise ExecutableTimeoutError("database execution deadline exceeded")
        if self.budget is not None:
            self.budget.check_wall_clock()

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.add(schema)
        self._tables[schema.name.lower()] = TableData(schema)
        self.catalog_version = self._clock.next()

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)
        del self._tables[name.lower()]
        self.catalog_version = self._clock.next()

    def rename_table(self, old: str, new: str) -> None:
        self.catalog.rename(old, new)
        self._tables[new.lower()] = self._tables.pop(old.lower())
        # keep the stored schema consistent with the catalog
        self._tables[new.lower()].schema = self.catalog.get(new)
        self.catalog_version = self._clock.next()

    def drop_constraints(self) -> None:
        """Remove all PK/FK declarations (silo preparation, paper §3.2).

        The *schema graph* needed by join extraction must be captured from the
        original database before calling this.
        """
        for schema in list(self.catalog):
            bare = TableSchema(
                name=schema.name,
                columns=schema.columns,
                primary_key=(),
                foreign_keys=(),
            )
            self.catalog.replace(bare)
            self._tables[schema.name.lower()].schema = bare
        self.catalog_version = self._clock.next()

    # -- data access -----------------------------------------------------------

    @property
    def table_names(self) -> list[str]:
        return self.catalog.table_names

    def table(self, name: str) -> TableData:
        data = self._tables.get(name.lower())
        if data is None:
            raise UndefinedTableError(name)
        return data

    def schema(self, name: str) -> TableSchema:
        return self.catalog.get(name)

    def table_states(self) -> list[tuple[str, TableSchema, list[tuple]]]:
        """``(name, schema, shared_rows)`` for every table.

        This is the isolation supervisor's delta source: the returned row
        lists are copy-on-write shares (see
        :meth:`~repro.engine.storage.TableData.share_rows`), so holding one
        and comparing it *by identity* on the next call is a sound
        changed-since-last-time test.
        """
        return [
            (name, data.schema, data.share_rows())
            for name, data in self._tables.items()
        ]

    def row_count(self, name: str) -> int:
        return len(self.table(name))

    def rows(self, name: str) -> list[tuple]:
        return list(self.table(name).rows)

    def insert(self, name: str, rows: Iterable[Sequence]) -> None:
        self.table(name).extend(rows)

    def replace_rows(self, name: str, rows: Iterable[Sequence]) -> None:
        self.table(name).replace_all(rows)

    def install_rows(self, name: str, rows: Iterable[tuple]) -> None:
        """Replace a table's rows with rows read from a table of the same
        schema, without coercing them again (see
        :meth:`~repro.engine.storage.TableData.install`)."""
        self.table(name).install(rows)

    def clear_table(self, name: str) -> None:
        self.table(name).clear()

    def sample_rows(self, name: str, count: int, seed: Optional[int] = None) -> list[tuple]:
        """A uniform random row sample (the engine's TABLESAMPLE stand-in)."""
        rng = random.Random(seed)
        return self.table(name).sample(count, rng)

    def scan(self, name: str):
        """Cursor-style row iteration used by imperative applications.

        Yields dict-like row views so imperative code reads columns by name,
        mirroring an ORM/resultset API.
        """
        data = self.table(name)
        names = [col.name for col in data.schema.columns]
        for i, row in enumerate(data.rows):
            if i % 256 == 0:
                self.check_deadline()
            yield dict(zip(names, row))

    def total_rows(self) -> int:
        return sum(len(data) for data in self._tables.values())

    def total_cells(self) -> int:
        """Resident cell count (rows × columns summed over all tables).

        The memory-pressure governor's engine-side footprint signal: cells
        dominate a silo's resident size, and counting them is O(tables).
        """
        return sum(
            len(data) * len(data.schema.columns)
            for data in self._tables.values()
        )

    def catalog_digest(self) -> str:
        """A content hash of the catalog (names, columns, types, PK/FK).

        Memoized per catalog version on the lineage's version clock.  Within
        one lineage the version number already names the catalog uniquely;
        the digest is what makes a plan-cache key sound *across* lineages —
        two jobs at the same version number but different DDL histories can
        never alias.
        """
        return self._clock.digest(self.catalog_version, self.catalog)

    # -- SQL interface -----------------------------------------------------------

    def execute(self, sql: str) -> Result:
        """Execute one SQL statement; non-SELECT statements return empty results.

        The engine's only statement path: plan-cache lookup, parse, plan
        (SELECTs), run, budget charge.  Failures are never cached: planning
        errors such as :class:`~repro.errors.UndefinedTableError` are
        semantic signals to the From-clause extractor and must be recomputed
        against the live catalog every time.

        On a traced database the same sequence runs inside one ``query``
        span (phase timings, tables, row counts, cache outcome) and feeds
        the statement metrics.  Failed statements count too: the paper's
        invocation budgets include failed probes.
        """
        tracer = self.tracer
        traced = tracer.enabled
        metrics = tracer.metrics
        with tracer.span("statement", kind="query") as span:
            started = time.perf_counter()
            try:
                cache = self.plan_cache
                entry = None
                if cache is not None:
                    key = (sql, self.catalog_version, self.catalog_digest())
                    entry = cache.get(key, self.plan_cache_scope)
                if entry is None:
                    statement, plan = parse_statement(sql), None
                else:
                    statement, plan = entry
                kind = _STATEMENT_KINDS.get(type(statement), "other")
                if traced:
                    span.name = kind
                    span.set_tags(
                        statement=kind,
                        parse_seconds=round(time.perf_counter() - started, 9),
                    )
                    if cache is not None:
                        span.set_tag("plan_cache", "miss" if entry is None else "hit")

                if kind != "select":
                    if entry is None and cache is not None:
                        # Cache the parse keyed at the *pre-execution*
                        # version: DDL bumps the version as it runs, so its
                        # own entry can never replay against the catalog it
                        # just changed.
                        cache.put(key, (statement, None), self.plan_cache_scope)
                    result = self._dispatch(statement)
                    if traced and kind in ("insert", "update", "delete"):
                        affected = (
                            len(statement.rows)
                            if isinstance(statement, Insert)
                            else (result.rows[0][0] if result.rows else 0)
                        )
                        span.set_tag("rows_affected", affected)
                        if metrics is not None:
                            metrics.counter("dml_statements_total").inc()
                            metrics.counter("dml_rows_affected_total").inc(affected)
                    return result

                plan_started = time.perf_counter()
                if plan is None:
                    plan = plan_select(statement, self.catalog)
                    if cache is not None:
                        cache.put(key, (statement, plan), self.plan_cache_scope)
                if traced:
                    span.set_tags(
                        plan_seconds=round(time.perf_counter() - plan_started, 9),
                        tables=[bound.schema.name for bound in plan.tables],
                    )
                rows_by_binding = {
                    bound.binding: self.table(bound.schema.name).rows
                    for bound in plan.tables
                }
                profile = {} if traced or self.budget is not None else None
                exec_started = time.perf_counter()
                result = execute_plan(
                    plan, rows_by_binding, tick=self.check_deadline, profile=profile
                )
                if self.budget is not None:
                    self.budget.charge_rows_scanned(profile["rows_scanned"])
                if traced:
                    span.set_tag(
                        "execute_seconds",
                        round(time.perf_counter() - exec_started, 9),
                    )
                    span.set_tags(**profile)
                    if metrics is not None:
                        metrics.counter("rows_scanned_total").inc(
                            profile["rows_scanned"]
                        )
                        metrics.counter("rows_emitted_total").inc(
                            profile["rows_emitted"]
                        )
                return result
            except Exception:
                if metrics is not None:
                    metrics.counter("query_errors_total").inc()
                raise
            finally:
                if metrics is not None:
                    metrics.counter("queries_total").inc()
                    metrics.histogram("query_latency_seconds").observe(
                        time.perf_counter() - started
                    )

    def _dispatch(self, statement) -> Result:
        if isinstance(statement, CreateTable):
            columns = tuple(
                Column(col.name, type_from_def(col)) for col in statement.columns
            )
            foreign_keys = tuple(
                ForeignKey(local, ref_table, ref_cols)
                for local, ref_table, ref_cols in statement.foreign_keys
            )
            self.create_table(
                TableSchema(
                    name=statement.name,
                    columns=columns,
                    primary_key=statement.primary_key,
                    foreign_keys=foreign_keys,
                )
            )
            return Result.empty()
        if isinstance(statement, DropTable):
            self.drop_table(statement.name)
            return Result.empty()
        if isinstance(statement, RenameTable):
            self.rename_table(statement.old_name, statement.new_name)
            return Result.empty()
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Update):
            return self._execute_update(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        raise DatabaseError(f"unsupported statement type {type(statement).__name__}")

    def _execute_insert(self, statement: Insert) -> Result:
        data = self.table(statement.table)
        schema = data.schema
        column_order = statement.columns or schema.column_names
        indices = [schema.column_index(col) for col in column_order]
        for value_row in statement.rows:
            values = [evaluate(expr, ()) for expr in value_row]
            full = [None] * len(schema.columns)
            for idx, value in zip(indices, values):
                full[idx] = value
            data.insert(full)
        return Result.empty()

    def _single_table_predicate(self, table: str, where) -> Callable[[tuple], bool]:
        schema = self.catalog.get(table)
        bound = BoundTable(binding=table.lower(), schema=schema, slot_offset=0)
        scope = _Scope([bound])
        resolved = _resolve(where, scope)
        return lambda row: predicate_holds(resolved, row)

    def _execute_update(self, statement: Update) -> Result:
        data = self.table(statement.table)
        schema = data.schema
        predicate = (
            self._single_table_predicate(statement.table, statement.where)
            if statement.where is not None
            else (lambda row: True)
        )
        bound = BoundTable(binding=statement.table.lower(), schema=schema, slot_offset=0)
        scope = _Scope([bound])
        assignments = [
            (schema.column_index(column), _resolve(expr, scope))
            for column, expr in statement.assignments
        ]

        def updater(row: tuple) -> tuple:
            new_row = list(row)
            for index, expr in assignments:
                new_row[index] = evaluate(expr, row)
            return tuple(new_row)

        count = data.update_where(predicate, updater)
        return Result(["updated"], [(count,)])

    def _execute_delete(self, statement: Delete) -> Result:
        data = self.table(statement.table)
        predicate = (
            self._single_table_predicate(statement.table, statement.where)
            if statement.where is not None
            else (lambda row: True)
        )
        count = data.delete_where(predicate)
        return Result(["deleted"], [(count,)])

    def explain(self, sql: str) -> str:
        """Describe how the engine would execute a SELECT (no execution)."""
        from repro.engine.explain import explain_sql

        statement = parse_statement(sql)
        if not isinstance(statement, SelectStatement):
            raise DatabaseError("EXPLAIN supports SELECT statements only")
        return explain_sql(statement, self.catalog)

    # -- cloning / silos -----------------------------------------------------------

    def clone(self, with_data: bool = True) -> "Database":
        """An independent copy (the extraction silo of paper §3.2).

        O(tables): each table's rows are shared copy-on-write, so a silo's
        untouched tables keep the source's row-list identity.
        """
        clone = Database()
        clone.catalog = self.catalog.copy()
        clone.tracer = self.tracer
        for name, data in self._tables.items():
            clone._tables[name] = data.copy() if with_data else TableData(data.schema)
        return clone

    def replica(self, token: DatabaseSnapshot) -> "Database":
        """A fresh, untraced database in this lineage, positioned at ``token``.

        This is the probe scheduler's replica constructor: worker threads
        probe private replicas instead of the shared silo.  The replica
        shares this database's plan cache, cache scope and version clock, so
        compiled plans and catalog digests are reused across replicas.  Rows
        are adopted copy-on-write, so construction is O(tables).
        """
        db = Database()
        db._clock = self._clock
        db.plan_cache = self.plan_cache
        db.plan_cache_scope = self.plan_cache_scope
        db.restore(token)
        return db

    # -- transactional sandbox ----------------------------------------------

    def snapshot(self) -> DatabaseSnapshot:
        """Capture catalog and rows as a restorable token (copy-on-write).

        O(tables): row lists are shared with the live tables and only copied
        if a later mutation touches them.
        """
        return DatabaseSnapshot(
            schemas={name: data.schema for name, data in self._tables.items()},
            rows={name: data.share_rows() for name, data in self._tables.items()},
            version=self.catalog_version,
        )

    def restore(self, token: DatabaseSnapshot) -> None:
        """Restore the exact state captured by ``token``.

        Undoes DML *and* DDL: tables created after the snapshot are dropped,
        dropped tables reappear, renames are reversed.  The token stays
        valid — it can be restored again later.
        """
        self.catalog = Catalog(token.schemas.values())
        tables: dict[str, TableData] = {}
        for name, schema in token.schemas.items():
            data = TableData(schema)
            data.adopt_rows(token.rows[name])
            tables[name] = data
        self._tables = tables
        # Reinstate (not bump) the captured catalog version: the version
        # sequence is monotonic, so this value still names exactly the
        # catalog state being restored and plans compiled under it revive.
        self.catalog_version = token.version

    @contextmanager
    def sandbox(self):
        """Run a block against this database, then roll everything back.

        ``with db.sandbox():`` guarantees the database is byte-identical to
        its entry state on exit — on success, on any exception, and on a
        mid-block crash that unwinds the stack.
        """
        token = self.snapshot()
        try:
            yield token
        finally:
            self.restore(token)

    def fingerprint(self) -> str:
        """A stable content hash of the live state (schemas + rows).

        Rows are taken via :meth:`~repro.engine.storage.TableData.share_rows`
        (as a snapshot would), so each table's row digest is memoized on its
        frozen list and only tables rebound since the last call are hashed.
        """
        return _content_fingerprint(
            {name: data.schema for name, data in self._tables.items()},
            {name: data.share_rows() for name, data in self._tables.items()},
        )
