"""Hidden-query workloads used in the paper's evaluation.

Also the one place that resolves a workload name: its query registry
(:func:`workload_modules`, :func:`find_query`) and its synthetic instance
(:func:`build_instance`).  The CLI, the ``serve`` layer and the chaos
runner all go through these.
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.model import HiddenQuery

__all__ = [
    "WORKLOADS",
    "HiddenQuery",
    "build_instance",
    "find_query",
    "workload_modules",
]

#: every bundled workload, in listing order
WORKLOADS = ("tpch", "tpcds", "job", "regal", "having")


def workload_modules() -> dict:
    """Workload name -> its query module (each exposes ``QUERIES``)."""
    from repro.workloads import (
        having_queries,
        job_queries,
        regal_queries,
        tpcds_queries,
        tpch_queries,
    )

    return {
        "tpch": tpch_queries,
        "tpcds": tpcds_queries,
        "job": job_queries,
        "regal": regal_queries,
        "having": having_queries,
    }


def find_query(workload: str, name: str) -> Optional[HiddenQuery]:
    """Exact, then case-insensitive, lookup in a workload's query registry."""
    queries = workload_modules()[workload].QUERIES
    query = queries.get(name)
    if query is not None:
        return query
    lowered = name.lower()
    for key, candidate in queries.items():
        if key.lower() == lowered:
            return candidate
    return None


def build_instance(workload: str, scale: float, seed: int):
    """Deterministically build a workload's synthetic database instance."""
    from repro.datagen import imdb, tpcds, tpch

    if workload == "job":
        return imdb.build_database(movies=max(50, int(scale * 100_000)), seed=seed)
    if workload == "tpcds":
        return tpcds.build_database(sales=max(500, int(scale * 1_000_000)), seed=seed)
    return tpch.build_database(scale=scale, seed=seed)
