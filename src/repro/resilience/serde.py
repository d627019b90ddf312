"""JSON codec for extraction state.

Checkpoints must round-trip everything a resumed pipeline needs: the partial
:class:`~repro.core.model.ExtractedQuery`, the single-row database ``D^1``,
captured results, and the session RNG state.  Values are plain JSON where
possible; the only non-JSON types appearing in extraction state are
``datetime.date`` and non-finite floats, encoded as small tagged dicts.
"""

from __future__ import annotations

import datetime
import math
from typing import Any, Optional

from repro.core.model import (
    ExtractedQuery,
    HavingPredicate,
    InListFilter,
    JoinClique,
    MultiRangeFilter,
    NullFilter,
    NumericFilter,
    OrderSpec,
    OutputColumn,
    ScalarFunction,
    TextFilter,
)
from repro.engine.result import Result
from repro.errors import CheckpointError
from repro.sgraph.schema_graph import ColumnNode

# -- scalar values --------------------------------------------------------------


def encode_value(value: Any):
    if isinstance(value, datetime.datetime):  # order matters: datetime is a date
        raise CheckpointError(f"cannot checkpoint datetime value {value!r}")
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    if isinstance(value, float) and not math.isfinite(value):
        return {"$float": repr(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CheckpointError(f"cannot checkpoint value of type {type(value).__name__}")


def decode_value(payload: Any):
    if isinstance(payload, dict):
        if "$date" in payload:
            return datetime.date.fromisoformat(payload["$date"])
        if "$float" in payload:
            return float(payload["$float"])
        raise CheckpointError(f"unknown tagged value {payload!r}")
    return payload


def _encode_column(column: Optional[ColumnNode]):
    if column is None:
        return None
    return [column.table, column.column]


def _decode_column(payload) -> Optional[ColumnNode]:
    if payload is None:
        return None
    return ColumnNode(payload[0], payload[1])


# -- filters --------------------------------------------------------------------


def encode_filter(predicate) -> dict:
    if isinstance(predicate, NumericFilter):
        return {
            "kind": "numeric",
            "column": _encode_column(predicate.column),
            "lo": encode_value(predicate.lo),
            "hi": encode_value(predicate.hi),
            "domain_lo": encode_value(predicate.domain_lo),
            "domain_hi": encode_value(predicate.domain_hi),
        }
    if isinstance(predicate, TextFilter):
        return {
            "kind": "text",
            "column": _encode_column(predicate.column),
            "pattern": predicate.pattern,
        }
    if isinstance(predicate, InListFilter):
        return {
            "kind": "in_list",
            "column": _encode_column(predicate.column),
            "values": [encode_value(v) for v in predicate.values],
        }
    if isinstance(predicate, MultiRangeFilter):
        return {
            "kind": "multi_range",
            "column": _encode_column(predicate.column),
            "intervals": [
                [encode_value(lo), encode_value(hi)] for lo, hi in predicate.intervals
            ],
            "domain_lo": encode_value(predicate.domain_lo),
            "domain_hi": encode_value(predicate.domain_hi),
        }
    if isinstance(predicate, NullFilter):
        return {
            "kind": "null",
            "column": _encode_column(predicate.column),
            "negated": predicate.negated,
        }
    raise CheckpointError(f"cannot checkpoint filter {type(predicate).__name__}")


def decode_filter(payload: dict):
    kind = payload.get("kind")
    column = _decode_column(payload["column"])
    if kind == "numeric":
        return NumericFilter(
            column=column,
            lo=decode_value(payload["lo"]),
            hi=decode_value(payload["hi"]),
            domain_lo=decode_value(payload["domain_lo"]),
            domain_hi=decode_value(payload["domain_hi"]),
        )
    if kind == "text":
        return TextFilter(column=column, pattern=payload["pattern"])
    if kind == "in_list":
        return InListFilter(
            column=column,
            values=tuple(decode_value(v) for v in payload["values"]),
        )
    if kind == "multi_range":
        return MultiRangeFilter(
            column=column,
            intervals=tuple(
                (decode_value(lo), decode_value(hi)) for lo, hi in payload["intervals"]
            ),
            domain_lo=decode_value(payload["domain_lo"]),
            domain_hi=decode_value(payload["domain_hi"]),
        )
    if kind == "null":
        return NullFilter(column=column, negated=payload["negated"])
    raise CheckpointError(f"unknown filter kind {kind!r} in checkpoint")


# -- output columns / scalar functions ------------------------------------------


def encode_function(fn: Optional[ScalarFunction]):
    if fn is None:
        return None
    return {
        "deps": [_encode_column(c) for c in fn.deps],
        "coefficients": [
            [list(subset), encode_value(coeff)] for subset, coeff in fn.coefficients
        ],
    }


def decode_function(payload) -> Optional[ScalarFunction]:
    if payload is None:
        return None
    return ScalarFunction(
        deps=tuple(_decode_column(c) for c in payload["deps"]),
        coefficients=tuple(
            (tuple(subset), decode_value(coeff))
            for subset, coeff in payload["coefficients"]
        ),
    )


def encode_output(output: OutputColumn) -> dict:
    return {
        "name": output.name,
        "position": output.position,
        "function": encode_function(output.function),
        "aggregate": output.aggregate,
        "count_star": output.count_star,
    }


def decode_output(payload: dict) -> OutputColumn:
    return OutputColumn(
        name=payload["name"],
        position=payload["position"],
        function=decode_function(payload["function"]),
        aggregate=payload["aggregate"],
        count_star=payload["count_star"],
    )


# -- whole query ----------------------------------------------------------------


def encode_query(query: ExtractedQuery) -> dict:
    return {
        "tables": list(query.tables),
        "join_cliques": [
            [_encode_column(c) for c in clique.sorted_columns()]
            for clique in query.join_cliques
        ],
        "filters": [encode_filter(f) for f in query.filters],
        "outputs": [encode_output(o) for o in query.outputs],
        "group_by": [_encode_column(c) for c in query.group_by],
        "order_by": [
            {"output_name": o.output_name, "descending": o.descending}
            for o in query.order_by
        ],
        "limit": query.limit,
        "having": [
            {
                "aggregate": h.aggregate,
                "column": _encode_column(h.column),
                "lo": encode_value(h.lo),
                "hi": encode_value(h.hi),
                "domain_lo": encode_value(h.domain_lo),
                "domain_hi": encode_value(h.domain_hi),
            }
            for h in query.having
        ],
        "ungrouped_aggregation": query.ungrouped_aggregation,
    }


def decode_query(payload: dict) -> ExtractedQuery:
    return ExtractedQuery(
        tables=list(payload["tables"]),
        join_cliques=[
            JoinClique(columns=frozenset(_decode_column(c) for c in columns))
            for columns in payload["join_cliques"]
        ],
        filters=[decode_filter(f) for f in payload["filters"]],
        outputs=[decode_output(o) for o in payload["outputs"]],
        group_by=[_decode_column(c) for c in payload["group_by"]],
        order_by=[
            OrderSpec(output_name=o["output_name"], descending=o["descending"])
            for o in payload["order_by"]
        ],
        limit=payload["limit"],
        having=[
            HavingPredicate(
                aggregate=h["aggregate"],
                column=_decode_column(h["column"]),
                lo=decode_value(h["lo"]),
                hi=decode_value(h["hi"]),
                domain_lo=decode_value(h["domain_lo"]),
                domain_hi=decode_value(h["domain_hi"]),
            )
            for h in payload["having"]
        ],
        ungrouped_aggregation=payload["ungrouped_aggregation"],
    )


# -- results and rows -----------------------------------------------------------


def encode_result(result: Optional[Result]):
    if result is None:
        return None
    return {
        "columns": list(result.columns),
        "rows": [[encode_value(v) for v in row] for row in result.rows],
    }


def decode_result(payload) -> Optional[Result]:
    if payload is None:
        return None
    return Result(
        payload["columns"],
        [tuple(decode_value(v) for v in row) for row in payload["rows"]],
    )


def encode_rows_by_table(rows: dict[str, tuple]) -> dict:
    return {table: [encode_value(v) for v in row] for table, row in rows.items()}


def decode_rows_by_table(payload: dict) -> dict[str, tuple]:
    return {
        table: tuple(decode_value(v) for v in row) for table, row in payload.items()
    }


def encode_tables(rows: dict[str, list[tuple]]) -> dict:
    return {
        table: [[encode_value(v) for v in row] for row in table_rows]
        for table, table_rows in rows.items()
    }


def decode_tables(payload: dict) -> dict[str, list[tuple]]:
    return {
        table: [tuple(decode_value(v) for v in row) for row in table_rows]
        for table, table_rows in payload.items()
    }


def encode_guards(guards: dict[ColumnNode, tuple]) -> list:
    return [
        [_encode_column(column), encode_value(lo), encode_value(hi)]
        for column, (lo, hi) in guards.items()
    ]


def decode_guards(payload: list) -> dict[ColumnNode, tuple]:
    return {
        _decode_column(column): (decode_value(lo), decode_value(hi))
        for column, lo, hi in payload
    }


def encode_rng_state(state) -> list:
    return [state[0], list(state[1]), state[2]]


def decode_rng_state(payload) -> tuple:
    return (payload[0], tuple(payload[1]), payload[2])
