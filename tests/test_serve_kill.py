"""The serve-kill acceptance proof, as a (slow) test.

Drives a real ``repro serve`` subprocess through the full chaos protocol:
SIGKILL with jobs in flight, restart against the same journal, repeat, and
require every job to converge to SQL byte-identical to a fault-free inline
extraction.  Excluded from tier-1 (`-m slow`); CI runs it explicitly.
"""

import functools
import io

import pytest

from repro.resilience.chaos import run_matrix, serve_kill_cells

pytestmark = pytest.mark.slow


class TestServeKill:
    def test_sigkill_recover_converges_to_baseline_sql(self, tmp_path):
        report = run_matrix(
            "serve-kill",
            functools.partial(
                serve_kill_cells, serve_jobs=2, kills=2, workers=2,
                timeout=480.0,
            ),
            query="Q6",
            scale=0.0005,
            seed=11,
            workdir=tmp_path,
            out=io.StringIO(),
        )
        *jobs, drain = report["cells"]
        assert drain["site"] == "drain"
        assert report["survived"], report["cells"]
        assert drain["exit"] == 0  # the final SIGTERM drained cleanly
        assert len(jobs) == 2
        for job in jobs:
            assert job["state"] == "done"
            assert job["ok"]
        # at least one kill actually landed mid-flight (attempt > 1 proves
        # a job was recovered from the journal rather than rerun by luck)
        if drain["kills"]:
            assert any(job["attempts"] > 1 for job in jobs)
