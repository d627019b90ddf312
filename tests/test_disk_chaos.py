"""The disk chaos profile: per-leg cells fast, the full matrix as slow."""

import io

import pytest

from repro.resilience.chaos import (
    CRASH_CLASSES,
    _journal_leg,
    _ledger_leg,
    disk_cells,
    run_matrix,
)
from repro.resilience.diskfaults import DISK_FAULT_CLASSES


class TestJournalLeg:
    @pytest.mark.parametrize("fault", DISK_FAULT_CLASSES)
    def test_every_fault_class_survives(self, fault, tmp_path):
        cell = _journal_leg(fault, tmp_path)
        assert cell["ok"], cell["outcome"]
        assert cell["site"] == "journal"
        assert cell["fault"] == fault


class TestLedgerLeg:
    @pytest.mark.parametrize("fault", DISK_FAULT_CLASSES)
    def test_every_fault_class_survives(self, fault, tmp_path):
        cell = _ledger_leg(fault, tmp_path)
        assert cell["ok"], cell["outcome"]
        assert cell["site"] == "ledger"


def test_crash_classes_are_a_subset_of_the_taxonomy():
    assert set(CRASH_CLASSES) <= set(DISK_FAULT_CLASSES)
    assert set(DISK_FAULT_CLASSES) - set(CRASH_CLASSES) == {"enospc", "eio"}


@pytest.mark.slow
def test_full_matrix_survives_with_byte_identical_sql(tmp_path):
    out = io.StringIO()
    report = run_matrix("disk", disk_cells, "Q6", workdir=tmp_path / "chaos",
                        out=out)
    assert report["survived"], out.getvalue()
    assert len(report["cells"]) == len(DISK_FAULT_CLASSES) * 3
    assert all(cell["ok"] for cell in report["cells"])
    assert report["baseline_sql"].strip().lower().startswith("select")
