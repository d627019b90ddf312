"""From-clause identification (paper §4.1).

The *rename* strategy hides base tables from the application and watches
for an immediate "relation does not exist" error.  Paper §4.1 renames one
table per probe; here every table is renamed at once, each under its own
probe name, and the application runs.  The engine's
:class:`~repro.errors.UndefinedTableError` names the missing relation (as
Postgres's ``relation "x" does not exist`` does, and the name survives the
isolation boundary), so that table is referenced: its name is restored and
the application runs again.  The first run that does not error clears every
table still renamed, so a query over ``k`` of ``n`` tables costs ``k + 1``
probes instead of ``n``.  Executions that do not error are cut short by a
small timeout, which is what keeps the schema-scaling experiment (§6.2,
+1000 tables) below ten seconds.

An error naming a relation outside the renamed set (an application that
reports its own table names) cannot be read that way; the tables still
renamed are then tested one per probe, where any ``UndefinedTableError``
identifies the single renamed table.  Imperative applications are
identified the same way: their scans hit the renamed catalog and raise the
same error.
"""

from __future__ import annotations

from repro.core.session import ExtractionSession
from repro.errors import (
    ExecutableTimeoutError,
    ExtractionError,
    UndefinedTableError,
)

_PROBE_PREFIX = "unmasque_probe_"


def extract_tables(session: ExtractionSession) -> list[str]:
    """Identify ``T_E`` and record it on the session's query."""
    with session.module("from_clause"):
        tables = _extract_by_rename(session)
        if not tables:
            raise ExtractionError("no tables identified — application may not query this database")
        session.query.tables = tables
        return tables


def _extract_by_rename(session: ExtractionSession) -> list[str]:
    silo = session.silo
    names = [name.lower() for name in silo.table_names]
    probes = _probe_names(names)
    tables: list[str] = []
    with silo.sandbox():
        for name in names:
            silo.rename_table(name, probes[name])
        renamed = list(names)
        foreign = False
        while renamed:
            missing = _missing_relation(session)
            if missing is None:
                break
            if missing not in renamed:
                foreign = True
                break
            silo.rename_table(probes[missing], missing)
            renamed.remove(missing)
            tables.append(missing)
            _record(session, missing, True, f'joint rename probe named "{missing}"')
    if foreign:
        # The error named a relation that was not renamed: fall back to one
        # renamed table per probe, where any such error identifies it.
        for name in renamed:
            with silo.sandbox():
                silo.rename_table(name, probes[name])
                referenced = _missing_relation(session) is not None
            if referenced:
                tables.append(name)
            _record(session, name, referenced, "single-table rename probe")
    else:
        for name in renamed:
            _record(session, name, False, "joint rename probe ran without error")
    return sorted(tables)


def _probe_names(names: list[str]) -> dict[str, str]:
    """A distinct probe name per table, none of them a catalog name."""
    taken = set(names)
    probes: dict[str, str] = {}
    index = 0
    for name in names:
        while f"{_PROBE_PREFIX}{index}" in taken:
            index += 1
        probes[name] = f"{_PROBE_PREFIX}{index}"
        index += 1
    return probes


def _missing_relation(session: ExtractionSession) -> str | None:
    """The relation the application found missing, or None if it ran (or
    ran past the from-clause timeout) without an ``UndefinedTableError``."""
    try:
        session.run(timeout=session.config.from_clause_timeout)
    except UndefinedTableError as error:
        return error.table_name.lower()
    except ExecutableTimeoutError:
        pass  # ran past the deadline without erroring
    return None


def _record(session: ExtractionSession, table: str, referenced: bool, detail: str) -> None:
    provenance = session.provenance
    if not provenance.enabled:
        return
    if referenced:
        provenance.accept("from", table, "from_clause", detail=detail)
    else:
        provenance.reject("from", table, "from_clause", detail=detail)

