"""Trace propagation client → server → scheduler → fork workers, and
the observability endpoints (/v1/trace, /metrics?format=prom)."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import trace as obs_trace
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    obs_trace.clear_recorder()
    obs_trace.clear_current()


@pytest.fixture()
def server(tmp_path):
    engine = SimEngine(fast=True, store=tmp_path / "store")
    with ServiceServer(engine=engine) as server:
        yield server


def _submit(server, headers=None, benchmark="gcc", instructions=400):
    body = json.dumps(
        {
            "kind": "run",
            "config": SimulationConfig(
                benchmark=benchmark, n_instructions=instructions
            ).to_dict(),
        }
    ).encode()
    return server.dispatch("POST", "/v1/jobs", body, headers)


def _wait_done(server, job_id, timeout=30.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job, _ = server.dispatch("GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if job["status"] in ("done", "failed", "cancelled", "poisoned"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


class TestHeaderPropagation:
    def test_header_trace_id_reaches_every_span(self, server):
        ctx = obs_trace.TraceContext(
            trace_id="f" * 16, span_id="1234abcd", t_ms=1
        )
        status, receipt, _ = _submit(
            server, headers={obs_trace.HEADER: ctx.header()}
        )
        assert status == 202
        job = _wait_done(server, receipt["id"])
        assert job["status"] == "done"
        assert job["trace_id"] == "f" * 16
        spans = {s.name: s for s in server.spans.spans()}
        for name in ("client.submit", "server.admit", "job.wait", "unit.exec"):
            assert name in spans, f"missing span {name}"
            assert spans[name].trace_id == "f" * 16
        # The tree: admit and unit.exec parent to the client's root span.
        assert spans["client.submit"].span_id == "1234abcd"
        assert spans["server.admit"].parent_id == "1234abcd"
        assert spans["unit.exec"].parent_id == "1234abcd"

    def test_submission_without_header_still_gets_a_trace(self, server):
        status, receipt, _ = _submit(server)
        assert status == 202
        job = _wait_done(server, receipt["id"])
        assert len(job["trace_id"]) == 16
        names = [s.name for s in server.spans.spans()]
        assert "server.admit" in names
        assert "client.submit" not in names  # no client send time to trust

    def test_malformed_header_is_ignored_not_rejected(self, server):
        status, receipt, _ = _submit(
            server, headers={obs_trace.HEADER: "garbage"}
        )
        assert status == 202
        job = _wait_done(server, receipt["id"])
        assert job["status"] == "done"


class TestForkWorkerSpans:
    def test_chunk_spans_come_back_from_fork_workers(self, tmp_path):
        engine = SimEngine(fast=True, workers=2, store=tmp_path / "store")
        with ServiceServer(engine=engine) as server:
            client = ServiceClient(server.url)
            configs = [
                SimulationConfig(benchmark=b, n_instructions=500)
                for b in ("gcc", "art")
            ]
            receipt = client.submit_batch(configs)
            job = client.wait(receipt["id"])
            assert job["status"] == "done"
            trace_id = client.trace_id_for(receipt["id"])
            chunks = [
                s for s in server.spans.spans() if s.name == "engine.chunk"
            ]
            assert chunks, "no chunk spans recorded"
            assert all(s.trace_id == trace_id for s in chunks)
            # Worker pids ride in attrs; the parent is the unit.exec span.
            unit = next(
                s for s in server.spans.spans() if s.name == "unit.exec"
            )
            for chunk in chunks:
                assert chunk.parent_id == unit.span_id
                assert chunk.attrs["worker_pid"] > 0
                assert chunk.attrs["configs"] >= 1

    def test_single_unit_job_runs_outside_the_server_process(self, server):
        # The default workers=1 engine still executes on its fork pool,
        # so the kernel never holds the server's GIL.
        status, receipt, _ = _submit(server)
        assert status == 202
        assert _wait_done(server, receipt["id"])["status"] == "done"
        (chunk,) = [s for s in server.spans.spans() if s.name == "engine.chunk"]
        assert chunk.attrs["worker_pid"] not in (0, os.getpid())


class TestTraceEndpoint:
    def test_v1_trace_returns_chrome_json(self, server):
        _, receipt, _ = _submit(server)
        _wait_done(server, receipt["id"])
        status, payload, _ = server.dispatch("GET", "/v1/trace")
        assert status == 200
        assert payload["displayTimeUnit"] == "ms"
        assert payload["reproLastSeq"] >= len(payload["traceEvents"]) > 0
        event = payload["traceEvents"][0]
        assert event["ph"] == "X" and "trace_id" in event["args"]

    def test_since_is_incremental(self, server):
        _, receipt, _ = _submit(server)
        _wait_done(server, receipt["id"])
        _, payload, _ = server.dispatch("GET", "/v1/trace")
        last = payload["reproLastSeq"]
        status, tail, _ = server.dispatch("GET", f"/v1/trace?since={last}")
        assert status == 200
        assert tail["traceEvents"] == []
        status, tail, _ = server.dispatch("GET", f"/v1/trace?since={last - 1}")
        assert len(tail["traceEvents"]) == 1

    def test_bad_since_is_400(self, server):
        status, payload, _ = server.dispatch("GET", "/v1/trace?since=soon")
        assert status == 400
        assert "since" in payload["error"]


class TestPrometheusEndpoint:
    def test_prom_format_is_text_with_content_type(self, server):
        _, receipt, _ = _submit(server)
        _wait_done(server, receipt["id"])
        status, body, headers = server.dispatch(
            "GET", "/metrics?format=prom"
        )
        assert status == 200
        assert isinstance(body, str)
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        assert "repro_jobs_submitted_total 1" in body
        assert 'repro_unit_exec_seconds_bucket{le="+Inf"} 1' in body

    def test_json_metrics_keep_histograms_and_span_counters(self, server):
        _, receipt, _ = _submit(server)
        _wait_done(server, receipt["id"])
        status, metrics, _ = server.dispatch("GET", "/metrics")
        assert status == 200
        for key in ("job_latency_s", "queue_wait_s", "unit_exec_s",
                    "chunk_exec_s"):
            hist = metrics["histograms"][key]
            assert len(hist["counts"]) == len(hist["bounds"]) + 1
        assert metrics["spans_recorded"] >= 4
        assert metrics["spans_dropped"] == 0
        assert metrics["unit_exec_s"]["samples"] >= 1
        assert metrics["queue_wait_s"]["p99"] is not None

    def test_each_event_is_observed_once(self, server):
        _, receipt, _ = _submit(server)
        _wait_done(server, receipt["id"])
        _, metrics, _ = server.dispatch("GET", "/metrics")
        hists = metrics["histograms"]
        assert hists["queue_wait_s"]["count"] == 1
        assert hists["unit_exec_s"]["count"] == 1
        assert hists["chunk_exec_s"]["count"] == sum(
            1 for span in server.spans.spans() if span.name == "engine.chunk"
        )

    def test_chunk_histogram_is_cumulative_past_ring_capacity(self, server):
        extra = obs_trace.DEFAULT_CAPACITY + 100
        for _ in range(extra):
            obs_trace.record_span("engine.chunk", 0.0, 0.03)
        status, metrics, _ = server.dispatch("GET", "/metrics")
        assert status == 200
        assert metrics["spans_dropped"] >= 100
        hist = metrics["histograms"]["chunk_exec_s"]
        assert hist["count"] == extra
        assert hist["sum"] == pytest.approx(0.03 * extra)
        _, body, _ = server.dispatch("GET", "/metrics?format=prom")
        assert f"repro_chunk_exec_seconds_count {extra}" in body
        assert "cumulative since boot" in body

    def test_unknown_format_falls_back_to_json(self, server):
        status, payload, _ = server.dispatch("GET", "/metrics?format=yaml")
        assert status == 200
        assert isinstance(payload, dict)


class TestJobPayloadTraceId:
    def test_jobs_listing_carries_trace_ids(self, server):
        _, receipt, _ = _submit(server)
        _wait_done(server, receipt["id"])
        status, listing, _ = server.dispatch("GET", "/v1/jobs")
        assert status == 200
        assert all(len(job["trace_id"]) == 16 for job in listing["jobs"])
