"""Bounded value domains for symbolic databases (Polygon-style).

Every column of every candidate table receives a *finite* set of interesting
values — the under-approximation that makes bounded search tractable:

* **join-clique columns** share a small typed key alphabet, so alignment and
  misalignment patterns both arise;
* **filtered columns** take the boundary universe of each predicate constant
  (the value, its typed predecessor and successor) — the XData insight
  generalized to the verifier;
* **grouping / aggregate-argument / ordering columns** take two distinct
  generic values, enough to separate SUM from MAX, collide or split groups,
  and invert ties;
* **every other column** is pinned to a single filler value (it cannot
  influence a single-block candidate, and pinning it collapses the search
  space).

CEGIS refinement widens domains with values harvested from earlier
counterexamples via ``extra``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.veriq import symbolic
from repro.engine.catalog import Catalog
from repro.veriq.analyze import ColKey, QueryProfile


@dataclass(frozen=True)
class VerifyBounds:
    """The explored bound: what "UNSAT within bounds" quantifies over."""

    #: maximum rows per table in a symbolic database
    max_rows: int = 2
    #: join-key alphabet size per clique
    join_keys: int = 2
    #: cap on interesting values per column
    max_values_per_column: int = 6
    #: cap on enumerated candidate rows per table
    max_row_candidates: int = 48
    #: cap on symbolic databases examined
    max_databases: int = 512
    #: cap on real application probes (post conflict-pruning)
    max_probes: int = 256

    def to_dict(self) -> dict:
        return {
            "max_rows": self.max_rows,
            "join_keys": self.join_keys,
            "max_values_per_column": self.max_values_per_column,
            "max_row_candidates": self.max_row_candidates,
            "max_databases": self.max_databases,
            "max_probes": self.max_probes,
        }


def build_domains(
    profile: QueryProfile,
    catalog: Catalog,
    bounds: VerifyBounds,
    extra: dict[ColKey, list] | None = None,
) -> dict[ColKey, list]:
    """Map every varying column to its finite value universe."""
    domains: dict[ColKey, list] = {}

    for clique in profile.join_cliques():
        for key in clique:
            col = catalog.get(key.table).column(key.column)
            domains[key] = symbolic.key_universe(col.type, bounds.join_keys)

    for key, atoms in profile.atoms.items():
        col = catalog.get(key.table).column(key.column)
        values = list(domains.get(key, ()))
        for atom in atoms:
            if atom.op in ("is_null", "is_not_null"):
                if col.nullable and None not in values:
                    values.append(None)
                for generic in symbolic.generic_values(col.type, 1):
                    values.append(generic)
                continue
            for constant in atom.values:
                values.extend(symbolic.boundary_values(col.type, constant))
        domains[key] = _dedupe(col.type, values, bounds.max_values_per_column)

    for key in profile.group_columns | profile.value_columns:
        if key in domains:
            continue
        col = catalog.get(key.table).column(key.column)
        domains[key] = symbolic.generic_values(col.type, 2)

    # Cardinality witness: every candidate table must be able to hold two
    # *distinct* rows, or cross-product-vs-join divergences (a dropped join
    # predicate) stay invisible.  PK uniqueness makes this a constraint on
    # the key itself, and it *couples* the key columns: any PK column pinned
    # to a single value forbids row pairs that tie on the remaining key
    # columns (exactly the databases an ordering witness needs), so every PK
    # column gets a small universe of its own.
    for table in profile.tables:
        schema = catalog.get(table)
        if schema.primary_key:
            for name in schema.primary_key:
                key = ColKey(table, name)
                if len(domains.get(key, ())) > 1:
                    continue
                col = schema.column(name)
                values = symbolic.key_universe(col.type, max(2, bounds.max_rows))
                if len(values) > 1:
                    domains[key] = values
        else:
            # no PK: duplicate template rows already vary the cardinality,
            # but give one non-FK column two values so *distinct* rows exist
            if any(
                len(domains.get(ColKey(table, col.name), ())) > 1
                for col in schema.columns
            ):
                continue
            fk_columns = {c for fk in schema.foreign_keys for c in fk.columns}
            witness = next(
                (c for c in schema.columns if c.name not in fk_columns),
                schema.columns[0],
            )
            values = symbolic.key_universe(witness.type, max(2, bounds.max_rows))
            if len(values) > 1:
                domains[ColKey(table, witness.name)] = values

    if extra:
        for key, values in extra.items():
            col = catalog.get(key.table).column(key.column)
            # extra (counterexample-harvested) values must survive the cap:
            # keep them first.
            merged = list(values) + list(domains.get(key, ()))
            domains[key] = _dedupe(
                col.type, merged, bounds.max_values_per_column + len(values)
            )

    # Never offer NULL to a NOT NULL column.
    for key in list(domains):
        col = catalog.get(key.table).column(key.column)
        if not col.nullable:
            domains[key] = [v for v in domains[key] if v is not None] or (
                symbolic.generic_values(col.type, 1)
            )
    return domains


def build_fillers(
    profile: QueryProfile,
    catalog: Catalog,
    domains: dict[ColKey, list],
) -> dict[ColKey, object]:
    """One pinned value per column: predicate-satisfying where possible."""
    fillers: dict[ColKey, object] = {}
    for table in profile.tables:
        schema = catalog.get(table)
        for col in schema.columns:
            key = ColKey(table, col.name)
            candidates = domains.get(key)
            if not candidates:
                generic = symbolic.generic_values(col.type, 1)
                fillers[key] = generic[0] if generic else None
                continue
            atoms = profile.atoms.get(key, [])
            satisfying = [
                v
                for v in candidates
                if v is not None and all(atom.holds(v) for atom in atoms)
            ]
            pool = satisfying or [v for v in candidates if v is not None] or candidates
            fillers[key] = pool[0]
    return fillers


def _dedupe(col_type, values: list, cap: int) -> list:
    coerced = []
    for value in values:
        if value is None:
            coerced.append(None)
            continue
        try:
            coerced.append(col_type.coerce(value))
        except Exception:
            continue
    seen: set = set()
    unique = [v for v in coerced if not (v in seen or seen.add(v))]
    return unique[:cap]
