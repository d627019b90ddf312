"""The survival-matrix runner contract, driven through ``repro chaos``.

No extraction runs: ``chaos.extract`` returns a fixed outcome and each
profile's cell generator is replaced by a stub, so these tests pin the
runner itself — one row per cell, the verdict fold, the exit code and the
matrix artifact — identically for every matrix profile.
"""

import io
import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.resilience import chaos
from repro.serve import killer

BASELINE = "select 1"

PROFILES = [
    ("disk", "disk_cells"),
    ("net", "net_cells"),
    ("serve-kill", "serve_kill_cells"),
]


@pytest.fixture(autouse=True)
def no_extraction(monkeypatch):
    monkeypatch.setattr(
        chaos, "extract",
        lambda *args, **kwargs: SimpleNamespace(sql=BASELINE, verdict="ok"),
    )


def stub_cells(*oks):
    def cells(run, **profile_args):
        assert run.baseline_sql == BASELINE
        for index, ok in enumerate(oks):
            yield {"fault": f"fault{index}", "site": "site", "ok": ok,
                   "outcome": f"outcome {index}", "attempts": index}
    return cells


def run_profile(profile, workdir, *extra):
    out = io.StringIO()
    code = main(["chaos", "--profile", profile, "--query", "Q6",
                 "--serve-dir", str(workdir), *extra], out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("profile, generator", PROFILES)
class TestRunnerContract:
    def test_all_ok_survives(self, profile, generator, monkeypatch, tmp_path):
        monkeypatch.setattr(chaos, generator, stub_cells(True, True, True))
        code, output = run_profile(profile, tmp_path)
        assert code == 0
        assert "matrix      : 3/3 cells passed" in output
        assert output.endswith("verdict     : SURVIVED\n")

    def test_one_failing_cell_diverges(self, profile, generator, monkeypatch,
                                       tmp_path):
        monkeypatch.setattr(chaos, generator, stub_cells(True, False, True))
        code, output = run_profile(profile, tmp_path)
        assert code == 1
        assert "matrix      : 2/3 cells passed" in output
        assert output.endswith("verdict     : DIVERGED\n")

    def test_every_cell_prints_one_row(self, profile, generator, monkeypatch,
                                       tmp_path):
        monkeypatch.setattr(chaos, generator, stub_cells(True, False, True))
        _, output = run_profile(profile, tmp_path)
        rows = [line for line in output.splitlines()
                if line.startswith("fault")]
        assert rows == [
            "fault0      : ok  site       outcome 0",
            "fault1      : FAIL site       outcome 1",
            "fault2      : ok  site       outcome 2",
        ]

    def test_matrix_json_round_trips(self, profile, generator, monkeypatch,
                                     tmp_path):
        monkeypatch.setattr(chaos, generator, stub_cells(True, False))
        run_profile(profile, tmp_path)
        path = tmp_path / f"{profile}_chaos_matrix.json"
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "survived": False,
            "fault_classes": ["fault0", "fault1"],
            "sites": ["site"],
            "cells": [
                {"fault": "fault0", "site": "site", "ok": True,
                 "outcome": "outcome 0", "attempts": 0},
                {"fault": "fault1", "site": "site", "ok": False,
                 "outcome": "outcome 1", "attempts": 1},
            ],
            "baseline_sql": BASELINE,
            "workdir": str(tmp_path),
        }


def test_empty_matrix_does_not_survive(tmp_path):
    report = chaos.run_matrix("empty", stub_cells(), "Q6", workdir=tmp_path,
                              out=io.StringIO())
    assert report["cells"] == []
    assert not report["survived"]


class TestServeKillDrain:
    """The closing SIGTERM is a matrix cell: a failed drain is a divergence."""

    @pytest.fixture
    def stub_server(self, monkeypatch):
        exits = []

        class StubServer:
            def __init__(self, journal, checkpoint_root, workers):
                self.proc = SimpleNamespace(pid=4242, poll=lambda: None)
                self.lines = []

            def wait_ready(self):
                return 1

            def kill(self):
                raise AssertionError("no job is in flight to kill")

            def terminate(self):
                return exits[0]

        job_numbers = iter(range(1, 100))
        monkeypatch.setattr(killer, "Server", StubServer)
        monkeypatch.setattr(
            killer, "post_json",
            lambda port, path, payload: {"job_id": f"job-{next(job_numbers):06d}"},
        )
        monkeypatch.setattr(killer, "progress_count", lambda journal: 0)
        monkeypatch.setattr(
            killer, "job_states",
            lambda journal, job_ids: {
                job_id: {"state": "done", "sql": BASELINE, "attempt": 1}
                for job_id in job_ids
            },
        )
        return exits

    def test_nonzero_drain_exit_diverges(self, stub_server, tmp_path):
        stub_server.append(1)
        code, output = run_profile("serve-kill", tmp_path, "--serve-jobs", "2",
                                   "--kills", "1")
        assert code == 1
        assert output.count("sigkill     : ok  job-00000") == 2
        assert "sigterm     : FAIL drain      exit 1" in output
        assert output.endswith("verdict     : DIVERGED\n")

    def test_clean_drain_survives(self, stub_server, tmp_path):
        stub_server.append(0)
        code, output = run_profile("serve-kill", tmp_path, "--serve-jobs", "2",
                                   "--kills", "1")
        assert code == 0
        assert "matrix      : 3/3 cells passed" in output
        assert "sigterm     : ok  drain      exit 0" in output
        assert output.endswith("verdict     : SURVIVED\n")
