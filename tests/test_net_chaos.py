"""The net chaos profile: per-fault mid-pipeline cells fast, full matrix slow."""

import io

import pytest

from repro.isolation.agent import WorkerAgent
from repro.isolation.remote import PeerHealthRegistry
from repro.resilience.chaos import (
    FENCING_CLASSES,
    RECONNECT_CLASSES,
    _fault_cell,
    _remote_config,
    net_cells,
    run_matrix,
)
from repro.resilience.chaos import extract as _extract
from repro.resilience.netfaults import (
    NET_FAULT_CLASSES,
    NetFaultPlan,
    faulty_transport_factory,
)

QUERY = "Q6"
SCALE = 0.0005
SEED = 11
CHAOS_SEED = 1337


@pytest.fixture(scope="module")
def net_agent():
    agent = WorkerAgent()
    agent.start()
    yield agent
    agent.stop()


@pytest.fixture(scope="module")
def baseline_sql():
    outcome = _extract(QUERY, "tpch", SCALE, SEED)
    assert outcome.verdict == "ok"
    return outcome.sql


@pytest.fixture(scope="module")
def run_frames(net_agent, baseline_sql):
    """Fault-free remote run: pins parity AND censuses the run frames."""
    census = NetFaultPlan("delay", at_op=1 << 30, seed=CHAOS_SEED)
    registry = PeerHealthRegistry((net_agent.address,))
    outcome = _extract(
        QUERY, "tpch", SCALE, SEED,
        config=_remote_config(net_agent.address, registry,
                              faulty_transport_factory(census)),
    )
    assert outcome.sql == baseline_sql, "remote loopback diverged from inline"
    assert census.op_count > 4
    return census.op_count


class TestFastCells:
    @pytest.mark.parametrize("fault", NET_FAULT_CLASSES)
    def test_mid_pipeline_cell_survives(self, fault, net_agent, baseline_sql,
                                        run_frames):
        cell = _fault_cell(
            fault, "mid", max(2, run_frames // 2), net_agent, QUERY, "tpch",
            SCALE, SEED, CHAOS_SEED, baseline_sql,
        )
        assert cell["ok"], cell["outcome"]
        assert cell["fault"] == fault


def test_proof_obligation_classes_are_in_the_taxonomy():
    assert set(FENCING_CLASSES) <= set(NET_FAULT_CLASSES)
    assert set(RECONNECT_CLASSES) <= set(NET_FAULT_CLASSES)
    assert not set(FENCING_CLASSES) & set(RECONNECT_CLASSES)


@pytest.mark.slow
def test_full_matrix_survives_with_byte_identical_sql(tmp_path):
    out = io.StringIO()
    report = run_matrix(
        "net", net_cells, QUERY, scale=SCALE, seed=SEED,
        workdir=tmp_path / "chaos", out=out,
    )
    assert report["survived"], out.getvalue()
    # one clean cell + every fault class at early/mid/late
    assert len(report["cells"]) == 1 + len(NET_FAULT_CLASSES) * 3
    assert all(cell["ok"] for cell in report["cells"])
    assert report["baseline_sql"].strip().lower().startswith("select")
    assert (tmp_path / "chaos" / "net_chaos_matrix.json").exists()
    # the exactly-once proofs are visible in the surviving outcomes
    by_fault = {}
    for cell in report["cells"]:
        by_fault.setdefault(cell["fault"], []).append(cell["outcome"])
    assert any("fenced" in o for o in by_fault["partition"])
    assert any("duplicates dropped" in o for o in by_fault["duplicate"])
    assert any("reconnects" in o for o in by_fault["torn_frame"])
