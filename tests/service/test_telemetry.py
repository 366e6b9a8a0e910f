"""Telemetry: latency percentiles (p99), wait/exec observations, histograms."""

from __future__ import annotations

import pytest

from repro.obs.trace import Span
from repro.service.telemetry import HISTOGRAM_BOUNDS, Telemetry, percentile


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 0.99) is None

    def test_p99_tracks_the_tail(self):
        # Nearest-rank with 50 samples: p99 selects the last value.
        values = [0.01] * 49 + [5.0]
        assert percentile(values, 0.99) == 5.0
        assert percentile(values, 0.50) == 0.01


class TestObservations:
    def test_queue_wait_feeds_window_and_histogram(self):
        telemetry = Telemetry()
        telemetry.observe_queue_wait(0.02)
        telemetry.observe_queue_wait(-1.0)  # clock skew clamps to zero
        snap = telemetry.snapshot()
        assert snap["queue_wait_s"]["samples"] == 2
        assert snap["queue_wait_s"]["p99"] == 0.02
        hist = snap["histograms"]["queue_wait_s"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.02)

    def test_unit_exec_weights_batch_size(self):
        telemetry = Telemetry()
        telemetry.observe_unit_exec(0.04, units=3)
        telemetry.observe_unit_exec(0.04, units=0)  # ignored
        snap = telemetry.snapshot()
        # One per-unit sample in the percentile window, three histogram
        # observations (a 3-unit batch is three units of work).
        assert snap["unit_exec_s"]["samples"] == 1
        assert snap["histograms"]["unit_exec_s"]["count"] == 3

    def test_job_latency_histogram_counts_only_done(self):
        telemetry = Telemetry()
        telemetry.observe_job_finished("done", 0.3)
        telemetry.observe_job_finished("failed", 0.1)
        snap = telemetry.snapshot()
        assert snap["histograms"]["job_latency_s"]["count"] == 1
        assert snap["job_latency_s"]["p99"] == 0.3

    def test_snapshot_reports_p99_for_every_latency_block(self):
        telemetry = Telemetry()
        telemetry.observe_job_finished("done", 0.3)
        telemetry.observe_queue_wait(0.01)
        telemetry.observe_unit_exec(0.2)
        snap = telemetry.snapshot()
        for block in ("job_latency_s", "queue_wait_s", "unit_exec_s"):
            assert set(snap[block]) == {"p50", "p95", "p99", "samples"}

    def test_histogram_bounds_are_the_shared_constant(self):
        telemetry = Telemetry()
        snap = telemetry.snapshot()
        for payload in snap["histograms"].values():
            assert tuple(payload["bounds"]) == HISTOGRAM_BOUNDS


def _span(name, duration_s, **attrs):
    return Span(name=name, trace_id="t", span_id="s", start_s=0.0,
                duration_s=duration_s, attrs=attrs)


class TestSpanSink:
    def test_each_span_name_feeds_its_histogram(self):
        telemetry = Telemetry()
        telemetry.observe_span(_span("job.wait", 0.02))
        telemetry.observe_span(_span("unit.exec", 0.3, units=3))
        telemetry.observe_span(_span("engine.chunk", 0.1))
        telemetry.observe_span(_span("server.admit", 0.001))  # no histogram
        snap = telemetry.snapshot()
        hists = snap["histograms"]
        assert hists["queue_wait_s"]["count"] == 1
        assert hists["queue_wait_s"]["sum"] == pytest.approx(0.02)
        # A 3-unit batch is three per-unit observations of a third each.
        assert hists["unit_exec_s"]["count"] == 3
        assert hists["unit_exec_s"]["sum"] == pytest.approx(0.3)
        assert snap["unit_exec_s"]["p50"] == pytest.approx(0.1)
        assert hists["chunk_exec_s"]["count"] == 1
        assert hists["job_latency_s"]["count"] == 0
