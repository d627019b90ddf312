"""ExtractionService integration: admission, breaker, drain, recovery, HTTP.

Most tests inject a deterministic fake ``runner`` (the service's seam for
exactly this) so breaker and drain behaviour is tested without real
extractions; the final class runs one real job end-to-end over HTTP.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ExtractionPaused, WorkerCrashedError
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import JobState
from repro.serve.service import ExtractionService
from repro.serve.tenants import TenantPolicy


def make_service(tmp_path, runner, **kwargs):
    kwargs.setdefault("queue_capacity", 8)
    kwargs.setdefault("workers", 1)
    return ExtractionService(
        tmp_path / "journal.sqlite",
        tmp_path / "checkpoints",
        runner=runner,
        **kwargs,
    )


def ok_runner(job_id, request, remaining):
    return {"sql": f"SELECT * FROM {request.query}", "verdict": "ok",
            "invocations": 10, "seconds": 0.01}


def crash_runner(job_id, request, remaining):
    raise WorkerCrashedError("segfault", "worker died (simulated)")


def wait_terminal(service, job_id, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        record = service.journal.job(job_id)
        if record and record["state"] in JobState.TERMINAL | {"checkpointed"}:
            return record
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never reached a terminal state")


class TestAdmission:
    def test_submit_runs_to_done(self, tmp_path):
        service = make_service(tmp_path, ok_runner)
        try:
            service.start()
            reply = service.submit({"query": "Q6"})
            assert reply["state"] == "queued"
            record = wait_terminal(service, reply["job_id"])
            assert record["state"] == "done"
            assert record["sql"] == "SELECT * FROM Q6"
            assert record["invocations"] == 10
        finally:
            service.drain(timeout=5.0)
            service.close()

    def test_invalid_payload_is_rejected_without_a_job(self, tmp_path):
        service = make_service(tmp_path, ok_runner)
        try:
            reply = service.submit({"query": "Q6", "bogus": 1})
            assert reply["rejected"] == "invalid"
            assert reply["http_status"] == 400
            assert "job_id" not in reply
            assert service.journal.counts() == {}
        finally:
            service.close()

    def test_queue_full_burst_sheds_load_with_structured_rejections(self, tmp_path):
        gate = threading.Event()

        def slow_runner(job_id, request, remaining):
            gate.wait(10.0)
            return ok_runner(job_id, request, remaining)

        service = make_service(
            tmp_path, slow_runner, queue_capacity=2, workers=1
        )
        try:
            service.start()
            replies = [service.submit({"query": f"Q{i}"}) for i in range(8)]
            accepted = [r for r in replies if "state" in r]
            rejected = [r for r in replies if r.get("rejected")]
            # 2 queue slots + at most 1 in a worker's hands
            assert 2 <= len(accepted) <= 3
            assert len(accepted) + len(rejected) == 8
            for reply in rejected:
                assert reply["rejected"] == "queue_full"
                assert reply["http_status"] == 429
                # journaled for the audit trail, terminal immediately
                assert service.journal.job(reply["job_id"])["state"] == "rejected"
            counts = service.journal.counts()
            assert counts["rejected"] == len(rejected)
            gate.set()
            for reply in accepted:
                assert wait_terminal(service, reply["job_id"])["state"] == "done"
        finally:
            gate.set()
            service.drain(timeout=5.0)
            service.close()

    def test_draining_service_refuses_submissions(self, tmp_path):
        service = make_service(tmp_path, ok_runner)
        try:
            service.start()
            service.drain(timeout=5.0)
            reply = service.submit({"query": "Q6"})
            assert reply["rejected"] == "draining"
            assert reply["http_status"] == 503
        finally:
            service.close()

    def test_tenant_rejections_surface_through_submit(self, tmp_path):
        gate = threading.Event()

        def slow_runner(job_id, request, remaining):
            gate.wait(10.0)
            return ok_runner(job_id, request, remaining)

        service = make_service(
            tmp_path, slow_runner,
            tenant_policy=TenantPolicy(max_queued=1),
        )
        try:
            service.start()
            first = service.submit({"query": "Q6", "tenant": "acme"})
            assert "job_id" in first and "rejected" not in first
            second = service.submit({"query": "Q6", "tenant": "acme"})
            assert second["rejected"] == "tenant_queue_full"
            other = service.submit({"query": "Q6", "tenant": "other"})
            assert "job_id" in other and "rejected" not in other
        finally:
            gate.set()
            service.drain(timeout=5.0)
            service.close()

    def test_deadline_already_exceeded_fails_without_running(self, tmp_path):
        ran = []

        def recording_runner(job_id, request, remaining):
            ran.append(job_id)
            return ok_runner(job_id, request, remaining)

        service = make_service(tmp_path, recording_runner)
        try:
            reply = service.submit(
                {"query": "Q6", "deadline_seconds": 0.001}
            )
            time.sleep(0.05)  # let the admission deadline lapse
            service.start()
            record = wait_terminal(service, reply["job_id"])
            assert record["state"] == "failed"
            assert record["error"] == "deadline_exceeded"
            assert ran == []
        finally:
            service.drain(timeout=5.0)
            service.close()


class TestBreaker:
    def test_opens_after_k_consecutive_worker_crashes(self, tmp_path):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown_seconds=60.0, clock=lambda: now[0]
        )
        service = make_service(tmp_path, crash_runner, breaker=breaker)
        try:
            service.start()
            for index in range(3):
                reply = service.submit({"query": f"Q{index}"})
                record = wait_terminal(service, reply["job_id"])
                assert record["state"] == "failed"
                assert "WorkerCrashedError" in record["error"]
            assert breaker.state == CircuitBreaker.OPEN
            reply = service.submit({"query": "Q9"})
            assert reply["rejected"] == "breaker_open"
            assert reply["http_status"] == 503
            # the refusal is journaled and the flip is in the events table
            assert service.journal.job(reply["job_id"])["state"] == "rejected"
            events = service.journal.events_list("breaker")
            assert any("closed -> open" in e["detail"] for e in events)
            assert service.status()["breaker"]["state"] == "open"
        finally:
            service.drain(timeout=5.0)
            service.close()

    def test_half_open_probe_success_closes_the_breaker(self, tmp_path):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=lambda: now[0]
        )
        outcomes = [crash_runner, ok_runner]

        def scripted_runner(job_id, request, remaining):
            return outcomes.pop(0)(job_id, request, remaining)

        service = make_service(tmp_path, scripted_runner, breaker=breaker)
        try:
            service.start()
            first = service.submit({"query": "Q1"})
            wait_terminal(service, first["job_id"])
            assert breaker.state == CircuitBreaker.OPEN
            assert service.submit({"query": "Q2"})["rejected"] == "breaker_open"
            now[0] = 11.0  # cooldown elapses -> half-open
            probe = service.submit({"query": "Q3"})
            assert probe["probe"] is True
            record = wait_terminal(service, probe["job_id"])
            assert record["state"] == "done"
            assert record["extras"]["breaker_probe"] is True
            assert breaker.state == CircuitBreaker.CLOSED
            flips = [t["to"] for t in breaker.transitions]
            assert flips == ["open", "half_open", "closed"]
        finally:
            service.drain(timeout=5.0)
            service.close()

    def test_half_open_probe_failure_reopens(self, tmp_path):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=lambda: now[0]
        )
        service = make_service(tmp_path, crash_runner, breaker=breaker)
        try:
            service.start()
            first = service.submit({"query": "Q1"})
            wait_terminal(service, first["job_id"])
            now[0] = 11.0
            probe = service.submit({"query": "Q2"})
            assert probe["probe"] is True
            wait_terminal(service, probe["job_id"])
            assert breaker.state == CircuitBreaker.OPEN
        finally:
            service.drain(timeout=5.0)
            service.close()

    def test_half_open_admits_exactly_one_probe(self, tmp_path):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=10.0, clock=lambda: now[0]
        )
        gate = threading.Event()

        def scripted_runner(job_id, request, remaining):
            if request.query == "Q1":
                return crash_runner(job_id, request, remaining)
            gate.wait(10.0)
            return ok_runner(job_id, request, remaining)

        service = make_service(tmp_path, scripted_runner, breaker=breaker)
        try:
            service.start()
            wait_terminal(service, service.submit({"query": "Q1"})["job_id"])
            now[0] = 11.0
            probe = service.submit({"query": "Q2"})
            assert probe["probe"] is True
            blocked = service.submit({"query": "Q3"})
            assert blocked["rejected"] == "breaker_open"
            gate.set()
            wait_terminal(service, probe["job_id"])
            assert breaker.state == CircuitBreaker.CLOSED
        finally:
            gate.set()
            service.drain(timeout=5.0)
            service.close()


class TestDrainAndRecovery:
    def test_drain_checkpoints_inflight_jobs(self, tmp_path):
        started = threading.Event()
        service = None

        def pausing_runner(job_id, request, remaining):
            started.set()
            # model a pipeline hitting pause_check at a module boundary
            deadline = time.time() + 10.0
            while time.time() < deadline:
                if service.draining:
                    raise ExtractionPaused("where_clause")
                time.sleep(0.01)
            return ok_runner(job_id, request, remaining)

        service = make_service(tmp_path, pausing_runner)
        try:
            service.start()
            reply = service.submit({"query": "Q6"})
            assert started.wait(5.0)
            assert service.drain(timeout=10.0)
            record = service.journal.job(reply["job_id"])
            assert record["state"] == "checkpointed"
            assert record["module"] == "where_clause"
        finally:
            service.close()

    def test_restart_recovers_and_resumes_to_done(self, tmp_path):
        attempts = []

        def flaky_then_ok(job_id, request, remaining):
            attempts.append(job_id)
            if len(attempts) == 1:
                raise ExtractionPaused("setup")  # simulated interruption
            return ok_runner(job_id, request, remaining)

        first = make_service(tmp_path, flaky_then_ok)
        first.start()
        reply = first.submit({"query": "Q6"})
        record = wait_terminal(first, reply["job_id"])
        assert record["state"] == "checkpointed"
        first.drain(timeout=5.0)
        first.close()

        second = make_service(tmp_path, flaky_then_ok)
        try:
            recovered = second.start()
            assert recovered == [reply["job_id"]]
            record = wait_terminal(second, reply["job_id"])
            assert record["state"] == "done"
            assert record["attempt"] == 2
            events = second.journal.events_list("recovered")
            assert len(events) == 1
        finally:
            second.drain(timeout=5.0)
            second.close()

    def test_queued_jobs_survive_a_restart_untouched(self, tmp_path):
        never_started = make_service(tmp_path, ok_runner)
        reply = never_started.submit({"query": "Q6"})  # queued, workers not up
        never_started.close()

        service = make_service(tmp_path, ok_runner)
        try:
            recovered = service.start()
            assert recovered == []  # queued jobs need no state repair
            record = wait_terminal(service, reply["job_id"])
            assert record["state"] == "done"
        finally:
            service.drain(timeout=5.0)
            service.close()

    def test_status_shape(self, tmp_path):
        service = make_service(tmp_path, ok_runner)
        try:
            service.start()
            reply = service.submit({"query": "Q6"})
            wait_terminal(service, reply["job_id"])
            status = service.status()
            assert status["draining"] is False
            assert status["queue"]["capacity"] == 8
            assert status["jobs"].get("done") == 1
            assert status["breaker"]["state"] == "closed"
            assert status["workers"]["configured"] == 1
            assert status["counters"]["serve_jobs_submitted_total"] == 1
            assert status["counters"]["serve_jobs_done_total"] == 1
            view = service.job_view(reply["job_id"])
            assert view["state"] == "done"
            assert [t["state"] for t in view["transitions"]] == [
                "queued", "running", "done",
            ]
            assert service.job_view("job-999999") is None
        finally:
            service.drain(timeout=5.0)
            service.close()


def _http(port, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestHTTPApi:
    @pytest.fixture
    def served(self, tmp_path):
        from repro.serve.api import create_server

        service = make_service(tmp_path, ok_runner, workers=2)
        service.start()
        httpd = create_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            yield service, httpd.server_address[1]
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout=5.0)
            service.close()

    def test_submit_status_and_job_views(self, served):
        service, port = served
        status, reply = _http(port, "POST", "/jobs", {"query": "Q6"})
        assert status == 202
        assert reply["state"] == "queued"
        job_id = reply["job_id"]
        wait_terminal(service, job_id)

        status, view = _http(port, "GET", f"/jobs/{job_id}")
        assert status == 200
        assert view["state"] == "done"
        assert view["transitions"][-1]["state"] == "done"

        status, snapshot = _http(port, "GET", "/status")
        assert status == 200
        assert snapshot["jobs"]["done"] == 1

        status, health = _http(port, "GET", "/healthz")
        assert status == 200 and health["ok"] is True

    def test_http_error_statuses(self, served):
        service, port = served
        status, reply = _http(port, "POST", "/jobs", {"bogus": True})
        assert status == 400 and reply["rejected"] == "invalid"
        status, _ = _http(port, "GET", "/jobs/job-999999")
        assert status == 404
        status, _ = _http(port, "GET", "/nope")
        assert status == 404

    def test_real_extraction_end_to_end(self, tmp_path):
        from repro.serve.api import create_server
        from repro.workloads import tpch_queries

        service = ExtractionService(
            tmp_path / "journal.sqlite",
            tmp_path / "checkpoints",
            workers=1,
        )
        service.start()
        httpd = create_server(service, port=0)
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            status, reply = _http(port, "POST", "/jobs", {
                "query": "Q6", "scale": 0.0005, "seed": 11,
            })
            assert status == 202
            record = wait_terminal(service, reply["job_id"], timeout=120.0)
            assert record["state"] == "done"
            assert record["verdict"] == "ok"
            assert record["invocations"] > 0
            # the extracted SQL round-trips through the journal and the API
            _, view = _http(port, "GET", f"/jobs/{reply['job_id']}")
            assert view["sql"] == record["sql"]
            assert "SELECT" in record["sql"].upper()
            modules = [
                t["detail"] for t in view["transitions"]
                if t["detail"].startswith("module:")
            ]
            assert "module:from_clause" in modules
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout=10.0)
            service.close()

    def test_certified_job_surfaces_the_verdict(self, tmp_path):
        """A job submitted with ``"certify": true`` runs the bounded verifier
        and its verdict — certificate plus the explored bound — lands in the
        journal record and the ``/jobs/<id>`` view."""
        service = ExtractionService(
            tmp_path / "journal.sqlite",
            tmp_path / "checkpoints",
            workers=1,
        )
        service.start()
        try:
            reply = service.submit({
                "query": "Q6", "scale": 0.0005, "seed": 11, "certify": True,
            })
            record = wait_terminal(service, reply["job_id"], timeout=180.0)
            assert record["state"] == "done"
            assert record["verdict"] == "ok"
            certify = record["extras"]["certify"]
            assert certify["verdict"] == "certificate"
            assert certify["bound"]["max_rows"] == 2
        finally:
            service.drain(timeout=10.0)
            service.close()

    def test_ledgered_job_records_cache_extras(self, tmp_path):
        """A serve job's ledger row carries the same ``caches`` extras as a
        CLI run, so ``repro trace-diff`` can read its cache hit rates."""
        from repro.obs.ledger import RunLedger

        service = ExtractionService(
            tmp_path / "journal.sqlite",
            tmp_path / "checkpoints",
            workers=1,
            ledger_path=tmp_path / "ledger.sqlite",
        )
        service.start()
        try:
            reply = service.submit({"query": "Q6", "scale": 0.0005, "seed": 11})
            record = wait_terminal(service, reply["job_id"], timeout=120.0)
            assert record["state"] == "done"
        finally:
            service.drain(timeout=10.0)
            service.close()
        with RunLedger(tmp_path / "ledger.sqlite") as ledger:
            run = ledger.run()
        assert run["status"] == "completed"
        assert run["label"] == f"serve:{reply['job_id']}"
        plan_cache = run["extras"]["caches"]["plan_cache"]
        assert plan_cache["hits"] > 0
