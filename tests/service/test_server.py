"""ServiceServer endpoints, including every failure path the API promises."""

from __future__ import annotations

import gc
import json
import math
import threading
import time
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import server as server_module
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceServer
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine
from repro.sim.metrics import RunResult


def _payload(benchmark="gcc", instructions=400, **extra) -> dict:
    body = {
        "kind": "run",
        "config": SimulationConfig(
            benchmark=benchmark, n_instructions=instructions
        ).to_dict(),
    }
    body.update(extra)
    return body


@pytest.fixture()
def server(tmp_path):
    engine = SimEngine(fast=True, store=tmp_path / "store")
    with ServiceServer(engine=engine, journal=tmp_path / "wal") as server:
        yield server


@pytest.fixture()
def idle_server(tmp_path, monkeypatch):
    """A live server whose scheduler never runs: every job stays queued."""
    server = ServiceServer(engine=SimEngine(store=tmp_path / "store"))
    monkeypatch.setattr(server.scheduler, "start", lambda: None)
    server.start()
    yield server
    server.stop()


def _post(server, body_bytes):
    return server.dispatch("POST", "/v1/jobs", body_bytes)


def _long_poll(server, job_id, wait):
    return server.dispatch("GET", f"/v1/jobs/{job_id}?wait={wait}", None)


class TestFailurePaths:
    def test_malformed_json_is_400_not_traceback(self, server):
        status, payload, _ = _post(server, b"{definitely not json")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_empty_body_is_400(self, server):
        status, payload, _ = _post(server, b"")
        assert status == 400

    def test_structurally_broken_job_is_400(self, server):
        status, payload, _ = _post(server, json.dumps({"kind": "zap"}).encode())
        assert status == 400
        assert "unknown job kind" in payload["error"]

    def test_unknown_policy_is_422_with_message(self, server):
        body = _payload()
        body["config"]["dcache"] = {"name": "warp-drive", "params": {}}
        status, payload, _ = _post(server, json.dumps(body).encode())
        assert status == 422
        assert "warp-drive" in payload["error"]

    def test_unknown_benchmark_is_422_with_message(self, server):
        status, payload, _ = _post(
            server, json.dumps(_payload(benchmark="nope")).encode()
        )
        assert status == 422
        assert "unknown benchmark" in payload["error"]

    def test_unknown_job_is_404(self, server):
        status, payload, _ = server.dispatch("GET", "/v1/jobs/job-missing", None)
        assert status == 404

    def test_unknown_result_key_is_404(self, server):
        status, _, _ = server.dispatch("GET", "/v1/results/" + "0" * 32, None)
        assert status == 404

    def test_malformed_result_key_is_404_not_500(self, server):
        for key in ("zz", "DEADBEEF", "a.b", "%2e%2e"):
            status, _, _ = server.dispatch("GET", f"/v1/results/{key}", None)
            assert status == 404, key

    def test_duplicate_job_id_is_409_and_journal_stays_clean(self, server):
        body = json.dumps(_payload(id="job-dup")).encode()
        status, _, _ = _post(server, body)
        assert status == 202
        status, payload, _ = _post(server, body)
        assert status == 409
        assert "duplicate" in payload["error"]
        # The journal must not carry a second submit for the id.
        text = server.journal.path.read_text()
        assert text.count('"job-dup"') <= 2  # one submit + at most one finish

    def test_unroutable_job_id_is_400(self, server):
        status, payload, _ = _post(
            server, json.dumps(_payload(id="my job/../x")).encode()
        )
        assert status == 400
        assert "id must be" in payload["error"]

    @pytest.mark.parametrize(
        "query",
        ["wait=soon", "wait=-1", "wait=nan", "wait=inf", "wait=-inf",
         "wait=1e999", "wait=", "wait=0x10", "wait=1&wait=2"],
    )
    def test_hostile_wait_is_400(self, server, query):
        _, receipt, _ = _post(server, json.dumps(_payload()).encode())
        status, payload, _ = server.dispatch(
            "GET", f"/v1/jobs/{receipt['id']}?{query}", None
        )
        assert status == 400
        assert "wait" in payload["error"]

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(raw=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
    def test_any_wait_value_is_answered_200_or_400(self, server, raw):
        # One finished job serves every example: a valid window then
        # returns at once, so only the parameter handling is exercised.
        job_id = "wait-fuzz"
        if server.board.get(job_id) is None:
            _post(server, json.dumps(_payload(id=job_id)).encode())
            _long_poll(server, job_id, 60)
        try:
            value = float(raw)
            valid = math.isfinite(value) and value >= 0
        except ValueError:
            valid = False
        status, payload, _ = _long_poll(server, job_id, quote(raw, safe=""))
        assert status == (200 if valid else 400)
        if valid:
            assert payload["status"] == "done"

    def test_unknown_endpoint_is_404(self, server):
        status, _, _ = server.dispatch("GET", "/v2/nothing", None)
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _, headers = server.dispatch("DELETE", "/v1/jobs", None)
        assert status == 405
        assert "Allow" in headers

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        engine = SimEngine(fast=True)
        with ServiceServer(engine=engine, queue_limit=1) as server:
            # Occupy the single slot with a job the scheduler will chew on.
            status, first, _ = _post(
                server, json.dumps(_payload(instructions=200_000)).encode()
            )
            assert status == 202
            status, payload, headers = _post(
                server, json.dumps(_payload(instructions=201_000)).encode()
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "full" in payload["error"]
            server.board.cancel(first["id"])

    def test_rejected_job_does_not_resurrect_after_restart(self, tmp_path):
        engine = SimEngine(fast=True)
        wal = tmp_path / "wal"
        with ServiceServer(engine=engine, queue_limit=1, journal=wal) as server:
            status, first, _ = _post(
                server, json.dumps(_payload(instructions=200_000)).encode()
            )
            assert status == 202
            status, _, _ = _post(
                server, json.dumps(_payload(instructions=201_000)).encode()
            )
            assert status == 429
            server.board.cancel(first["id"])
        from repro.service.journal import JobJournal

        assert JobJournal(wal).replay() == []


class TestHappyPath:
    def test_submit_poll_result_round_trip(self, server):
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        job_id = receipt["id"]
        deadline = time.time() + 60
        while time.time() < deadline:
            status, job, _ = server.dispatch("GET", f"/v1/jobs/{job_id}", None)
            assert status == 200
            if job["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.02)
        assert job["status"] == "done"
        (key,) = receipt["units"]
        assert job["results"][key]["benchmark"] == "gcc"
        status, result, _ = server.dispatch("GET", f"/v1/results/{key}", None)
        assert status == 200
        assert result["result"] == job["results"][key]

    def test_jobs_listing(self, server):
        _post(server, json.dumps(_payload()).encode())
        status, payload, _ = server.dispatch("GET", "/v1/jobs", None)
        assert status == 200
        assert len(payload["jobs"]) == 1
        assert payload["jobs"][0]["kind"] == "run"

    def test_policies_endpoint_matches_registry(self, server):
        status, payload, _ = server.dispatch("GET", "/v1/policies", None)
        assert status == 200
        assert payload["policies"]["gated"]["defaults"]["threshold"] == 100

    def test_healthz_and_metrics(self, server):
        status, health, _ = server.dispatch("GET", "/healthz", None)
        assert status == 200 and health["status"] == "ok"
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert status == 200
        for field in (
            "queue_depth",
            "pending_units",
            "jobs_per_s",
            "job_latency_s",
            "engine",
            "coalesce_rate",
        ):
            assert field in metrics

    def test_cancel_endpoint(self, server):
        status, receipt, _ = _post(
            server, json.dumps(_payload(instructions=500_000)).encode()
        )
        job_id = receipt["id"]
        status, payload, _ = server.dispatch(
            "POST", f"/v1/jobs/{job_id}/cancel", None
        )
        assert status == 200
        assert payload["status"] == "cancelled"
        # Idempotent.
        status, payload, _ = server.dispatch(
            "POST", f"/v1/jobs/{job_id}/cancel", None
        )
        assert status == 200 and payload["status"] == "cancelled"

    def test_draining_healthz_is_503(self, tmp_path):
        server = ServiceServer(engine=SimEngine(fast=True))
        server.start()
        server._draining.set()
        status, payload, _ = server.dispatch("GET", "/healthz", None)
        assert status == 503 and payload["status"] == "draining"
        status, _, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 503
        server.stop()


class TestLongPoll:
    def test_returns_within_ms_of_completion(self, server):
        _, receipt, _ = _post(
            server, json.dumps(_payload(instructions=20_000)).encode()
        )
        start = time.monotonic()
        status, job, _ = _long_poll(server, receipt["id"], 30)
        returned = time.time()
        assert status == 200 and job["status"] == "done"
        assert time.monotonic() - start < 15
        assert returned - job["finished_at"] < 0.1
        (key,) = receipt["units"]
        assert job["results"][key]["benchmark"] == "gcc"

    def test_woken_client_sees_the_journal_finish_record(self, server, tmp_path):
        _, receipt, _ = _post(server, json.dumps(_payload()).encode())
        _, job, _ = _long_poll(server, receipt["id"], 30)
        assert job["status"] == "done"
        events = [
            json.loads(line)
            for line in (tmp_path / "wal").read_text().splitlines()
        ]
        assert {"v": 1, "event": "done", "id": receipt["id"]} in events

    def test_queued_job_returns_at_the_window(self, idle_server):
        _, receipt, _ = _post(idle_server, json.dumps(_payload()).encode())
        start = time.monotonic()
        status, job, _ = _long_poll(idle_server, receipt["id"], 0.3)
        assert 0.3 <= time.monotonic() - start < 2.0
        assert status == 200 and job["status"] == "queued"

    def test_window_is_capped(self, idle_server, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_WAIT_S", 0.2)
        _, receipt, _ = _post(idle_server, json.dumps(_payload()).encode())
        start = time.monotonic()
        status, job, _ = _long_poll(idle_server, receipt["id"], 5)
        assert 0.2 <= time.monotonic() - start < 2.0
        assert status == 200 and job["status"] == "queued"

    def test_unknown_job_is_404_without_waiting(self, server):
        start = time.monotonic()
        status, _, _ = _long_poll(server, "nope", 10)
        assert status == 404
        assert time.monotonic() - start < 1.0

    def test_drain_releases_a_blocked_long_poll(self, idle_server):
        _, receipt, _ = _post(idle_server, json.dumps(_payload()).encode())
        box = {}

        def poll():
            box["response"] = _long_poll(idle_server, receipt["id"], 30)
            box["at"] = time.monotonic()

        thread = threading.Thread(target=poll, daemon=True)
        thread.start()
        time.sleep(0.2)
        assert thread.is_alive()
        stop_at = time.monotonic()
        idle_server.stop()
        thread.join(5.0)
        assert not thread.is_alive()
        assert box["at"] - stop_at < 1.0
        status, job, _ = box["response"]
        assert status == 200 and job["status"] == "queued"

    def test_client_wait_times_out_close_to_its_deadline(self, idle_server):
        client = ServiceClient(idle_server.url)
        receipt = client.submit_run(
            SimulationConfig(benchmark="gcc", n_instructions=400)
        )
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            client.wait(receipt["id"], timeout=0.5)
        assert 0.5 <= time.monotonic() - start < 1.5

    def test_client_wait_is_one_request_per_job(self, server):
        client = ServiceClient(server.url)
        calls = []
        fetch = client.job

        def counted(job_id, **kwargs):
            calls.append(kwargs)
            return fetch(job_id, **kwargs)

        client.job = counted
        receipt = client.submit_run(
            SimulationConfig(benchmark="gcc", n_instructions=5_000)
        )
        assert client.wait(receipt["id"])["status"] == "done"
        assert len(calls) == 1
        assert 0 < calls[0]["wait_s"] < client.timeout


class TestResultRetention:
    @staticmethod
    def _run_results() -> int:
        gc.collect()
        return sum(1 for obj in gc.get_objects() if isinstance(obj, RunResult))

    def test_server_retains_no_run_result_per_completed_unit(self):
        before = self._run_results()
        with ServiceServer() as server:
            client = ServiceClient(server.url)
            for seed in (1, 2, 3):
                receipt = client.submit_run(
                    SimulationConfig(benchmark="gcc", n_instructions=400, seed=seed)
                )
                client.wait(receipt["id"])
            # The executor may still be unwinding the last unit's frame.
            deadline = time.monotonic() + 5
            while self._run_results() > before and time.monotonic() < deadline:
                time.sleep(0.05)
            assert self._run_results() <= before
            assert len(server.engine) == 0
            assert server.engine.max_cached_runs == 0


class TestOverHttp:
    def test_real_http_round_trip_and_coalescing(self, server):
        client = ServiceClient(server.url)
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        first = client.submit_run(config)
        second = client.submit_run(config)
        assert second["coalesced"] + second["cached"] == 1
        job = client.wait(first["id"], timeout=60)
        other = client.wait(second["id"], timeout=60)
        (key,) = first["units"]
        assert job["results"][key] == other["results"][key]

    def test_http_validation_error_carries_server_message(self, server):
        client = ServiceClient(server.url, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(_payload(benchmark="nope"))
        assert excinfo.value.status == 422
        assert "unknown benchmark" in str(excinfo.value)

    def test_oversized_body_is_413(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=b"x",
            method="POST",
            headers={"Content-Length": str(64 * 1024 * 1024)},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413


class TestRobustnessMetrics:
    """Satellite: /v1/metrics surfaces the hardened paths' counters."""

    def _wait_terminal(self, server, job_id, timeout=60.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, job, _ = server.dispatch("GET", f"/v1/jobs/{job_id}", None)
            assert status == 200
            if job["status"] in ("done", "failed", "cancelled", "poisoned"):
                return job
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} not terminal after {timeout}s")

    def test_metrics_expose_robustness_counters(self, server):
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert status == 200
        for field in (
            "retries_total",
            "quarantined_units",
            "pool_rebuilds",
            "store_corrupt_entries",
        ):
            assert metrics[field] == 0

    def test_store_corruption_surfaces_in_metrics(self, server):
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        self._wait_terminal(server, receipt["id"])
        (key,) = receipt["units"]
        store = server.engine.store
        store._key_path(key).write_text("{torn", encoding="utf-8")
        assert store.get_payload(key) is None  # quarantined on read
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert metrics["store_corrupt_entries"] == 1

    def test_unit_quarantine_surfaces_in_metrics(self, server):
        def boom(*args, **kwargs):
            raise RuntimeError("executor death")

        server.engine.run_many = boom
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        job = self._wait_terminal(server, receipt["id"])
        assert job["status"] == "poisoned"
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        assert metrics["quarantined_units"] == 1
        # max_unit_failures=3: two retries absorbed before quarantine.
        assert metrics["retries_total"] >= 2

    def test_new_stats_keys_do_not_skew_cache_hit_rate(self, server):
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202
        self._wait_terminal(server, receipt["id"])
        status, metrics, _ = server.dispatch("GET", "/metrics", None)
        engine = metrics["engine"]
        lookups = (
            engine["memory_hits"] + engine["store_hits"] + engine["computed"]
        )
        # One computed lookup, zero hits: the robustness counters must
        # not appear in the hit-rate denominator.
        assert lookups == 1
        assert metrics["engine_cache_hit_rate"] == 0.0


class TestInjectedServiceFaults:
    """Failpoints at the HTTP boundary and the journal's write path."""

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        from repro import faults

        faults.clear()
        yield
        faults.clear()

    def test_journal_write_failure_rejects_job_with_503(self, server):
        from repro import faults

        faults.install("journal.append=error:n=1")
        status, payload, headers = _post(
            server, json.dumps(_payload()).encode()
        )
        assert status == 503
        assert "not admitted" in payload["error"]
        assert headers.get("Retry-After") == "1"
        faults.clear()
        # The rejected job left no trace: a retry admits cleanly and
        # the journal replays nothing spurious after a restart.
        status, receipt, _ = _post(server, json.dumps(_payload()).encode())
        assert status == 202

    def test_injected_5xx_responses_are_absorbed_by_client_retries(self, server):
        from repro import faults

        faults.install("server.response=error:n=1")
        client = ServiceClient(server.url, retries=3, backoff=0.01)
        assert client.healthz()["status"] == "ok"

    def test_injected_dropped_connection_is_absorbed_by_client_retries(self, server):
        from repro import faults

        faults.install("server.response=drop:n=1")
        client = ServiceClient(server.url, retries=3, backoff=0.01)
        assert client.healthz()["status"] == "ok"
