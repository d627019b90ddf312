"""Inconclusive joint probes fall back to per-item probes.

The application here misbehaves on every joint probe of a screen — a probe
that mutates several screened items at once (filter columns, projection
units, group-by attributes, and the projection screen's joint jitter guard):
it raises an engine error, returns no rows, or returns two rows.  None of
those outcomes may clear a group, so the screens must split down to the
per-item probes, whose results are untouched, and still extract the golden
SQL — identically at every ``--jobs`` and isolation level.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps import SQLExecutable
from repro.core import ExtractionConfig, UnmasqueExtractor, grouptest, projections
from repro.core.session import ProbeSurface
from repro.engine.result import Result
from repro.errors import ExecutionError

from tests.test_golden_corpus import GOLDEN_DIR, _queries

MODES = ("error", "empty", "two_rows")


@pytest.fixture()
def adversary(monkeypatch):
    """Install a misbehaving application for joint probes; returns a dict
    whose ``mode`` selects the misbehaviour and ``fired`` counts it."""
    state = {"mode": "error", "fired": 0}
    joint = threading.local()
    lock = threading.Lock()

    def flagged(real):
        def wrapper(*args, **kwargs):
            joint.active = True
            try:
                return real(*args, **kwargs)
            finally:
                joint.active = False

        return wrapper

    real_invoke = ProbeSurface._invoke

    def invoke(self, timeout):
        if not getattr(joint, "active", False):
            return real_invoke(self, timeout)
        with lock:
            state["fired"] += 1
        if state["mode"] == "error":
            raise ExecutionError("application failed on a multi-item mutation")
        result = real_invoke(self, timeout)
        if state["mode"] == "empty":
            return Result(result.columns, [])
        return Result(result.columns, list(result.rows) * 2)

    monkeypatch.setattr(grouptest, "_joint_probe", flagged(grouptest._joint_probe))
    monkeypatch.setattr(projections, "_guard_probe", flagged(projections._guard_probe))
    monkeypatch.setattr(ProbeSurface, "_invoke", invoke)
    return state


def _golden(workload, name):
    return (GOLDEN_DIR / f"{workload}_{name.lower()}.sql").read_text().strip()


def _extract(db, workload, name, **config):
    app = SQLExecutable(_queries(workload)[name].sql, name=f"adversary-{name}")
    return UnmasqueExtractor(
        db, app, ExtractionConfig(run_checker=False, **config)
    ).extract()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["Q3", "Q6", "Q12"])
def test_inconclusive_joint_probes_fall_back_to_single_probes(
    tpch_db, adversary, mode, name
):
    adversary["mode"] = mode
    outcome = _extract(tpch_db, "tpch", name)
    assert adversary["fired"] > 0
    assert outcome.sql == _golden("tpch", name)


@pytest.mark.parametrize("mode", MODES)
def test_fallback_is_jobs_and_isolation_invariant(tpch_db, adversary, mode):
    adversary["mode"] = mode
    observed = {}
    for isolate in ("none", "process"):
        for jobs in (1, 2, 4):
            outcome = _extract(tpch_db, "tpch", "Q6", jobs=jobs, isolate=isolate)
            observed[(jobs, isolate)] = (
                outcome.sql,
                outcome.stats.total_invocations,
            )
    assert set(observed.values()) == {
        (_golden("tpch", "Q6"), observed[(1, "none")][1])
    }, observed
