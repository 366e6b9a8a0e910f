"""Service telemetry: counters, rates, latency percentiles, histograms.

One :class:`Telemetry` instance is shared by the HTTP layer (request
counts), the board hooks (job lifecycle, coalescing/cache admission
stats) and the span recorder: :meth:`Telemetry.observe_span` is the
recorder's sink, so the scheduler's ``job.wait`` and ``unit.exec``
spans and the engine's ``engine.chunk`` spans reach the histograms
through the one call that records them.
Everything is behind one lock and cheap enough to update on every
event; ``/metrics`` serialises a snapshot and ``/metrics?format=prom``
re-renders the same snapshot as Prometheus text exposition.

Latency *percentiles* are computed over a bounded window of the most
recent observations, so they track current behaviour instead of the
whole process history; throughput is reported both since boot and over
a sliding recent window.  Latency *histograms* (:class:`Histogram`)
are cumulative since boot with fixed explicit bucket bounds — the form
a scraper can rate() and aggregate across restarts, and the form the
Prometheus exporter needs (p50/p95 snapshots cannot be aggregated).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import Span

__all__ = ["HISTOGRAM_BOUNDS", "Histogram", "Telemetry", "percentile"]

#: Sliding window for "recent" throughput, seconds.
_RATE_WINDOW_S = 60.0

#: Shared explicit bucket upper bounds (seconds) for every service
#: latency histogram; the last implicit bucket is +Inf.
HISTOGRAM_BOUNDS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def percentile(values, fraction: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` (``None`` when empty)."""
    data = sorted(values)
    if not data:
        return None
    rank = max(0, min(len(data) - 1, int(round(fraction * (len(data) - 1)))))
    return data[rank]


class Histogram:
    """A fixed-bound latency histogram (counts are *not* cumulative).

    ``counts`` has one entry per bound plus the +Inf bucket; the
    Prometheus exporter computes the cumulative ``le`` sums, JSON
    consumers get the raw per-bucket counts.  Not thread-safe on its
    own — :class:`Telemetry` updates it under its lock.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = HISTOGRAM_BOUNDS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, n: int = 1) -> None:
        self.counts[bisect_left(self.bounds, value)] += n
        self.sum += value * n
        self.count += n

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": round(self.sum, 6),
            "count": self.count,
        }


class Telemetry:
    """Thread-safe service metrics."""

    def __init__(self, latency_window: int = 1024) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self.counters: Dict[str, int] = {
            "http_requests": 0,
            "http_errors": 0,
            "jobs_submitted": 0,
            "jobs_done": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "jobs_rejected": 0,
            "jobs_poisoned": 0,
            "units_requested": 0,
            "units_cached": 0,
            "units_coalesced": 0,
            "units_executed": 0,
            "unit_retries": 0,
            "units_quarantined": 0,
            "journal_errors": 0,
        }
        self._job_latencies = deque(maxlen=latency_window)
        self._unit_latencies = deque(maxlen=latency_window)
        self._wait_latencies = deque(maxlen=latency_window)
        self._finish_times = deque(maxlen=4096)
        self._rejection_times = deque(maxlen=4096)
        self._hist_job = Histogram()
        self._hist_unit = Histogram()
        self._hist_wait = Histogram()
        self._hist_chunk = Histogram()

    # ------------------------------------------------------------------
    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def observe_rejection(self) -> None:
        """Record one 429 admission rejection (drives the rolling counter).

        Load generators read the rolling figure to tell "the queue was
        full a minute ago" from "the queue is full *now*"; the plain
        ``jobs_rejected`` counter only ever grows.
        """
        with self._lock:
            self.counters["jobs_rejected"] += 1
            self._rejection_times.append(time.monotonic())

    def observe_job_finished(self, status: str, latency_s: Optional[float]) -> None:
        """Record one job reaching a terminal state."""
        with self._lock:
            key = f"jobs_{status}"
            self.counters[key] = self.counters.get(key, 0) + 1
            self._finish_times.append(time.monotonic())
            if latency_s is not None and status == "done":
                self._job_latencies.append(latency_s)
                self._hist_job.observe(latency_s)

    def observe_queue_wait(self, wait_s: float) -> None:
        """Record one job's queue wait (submission → scheduler claim)."""
        wait_s = max(0.0, wait_s)
        with self._lock:
            self._wait_latencies.append(wait_s)
            self._hist_wait.observe(wait_s)

    def observe_unit_exec(self, per_unit_s: float, units: int = 1) -> None:
        """Record a batch execution as ``units`` per-unit observations."""
        if units < 1:
            return
        per_unit_s = max(0.0, per_unit_s)
        with self._lock:
            self._unit_latencies.append(per_unit_s)
            self._hist_unit.observe(per_unit_s, n=units)

    def observe_span(self, span: Span) -> None:
        """Span-recorder sink: feed the histogram a span's name maps to."""
        if span.name == "job.wait":
            self.observe_queue_wait(span.duration_s)
        elif span.name == "unit.exec":
            units = int(span.attrs.get("units", 1))
            self.observe_unit_exec(span.duration_s / max(units, 1), units=units)
        elif span.name == "engine.chunk":
            with self._lock:
                self._hist_chunk.observe(span.duration_s)

    # ------------------------------------------------------------------
    @staticmethod
    def _latency_block(window) -> Dict[str, Any]:
        return {
            "p50": percentile(window, 0.50),
            "p95": percentile(window, 0.95),
            "p99": percentile(window, 0.99),
            "samples": len(window),
        }

    def snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` document (queue/engine fields added by caller)."""
        with self._lock:
            now = time.monotonic()
            uptime = max(now - self._started_mono, 1e-9)
            completed = (
                self.counters["jobs_done"]
                + self.counters["jobs_failed"]
                + self.counters["jobs_cancelled"]
                + self.counters["jobs_poisoned"]
            )
            recent = [t for t in self._finish_times if now - t <= _RATE_WINDOW_S]
            rejected_recent = sum(
                1 for t in self._rejection_times if now - t <= _RATE_WINDOW_S
            )
            window = min(uptime, _RATE_WINDOW_S)
            requested = self.counters["units_requested"]
            served_without_pool = (
                self.counters["units_cached"] + self.counters["units_coalesced"]
            )
            return {
                "uptime_s": round(uptime, 3),
                "counters": dict(self.counters),
                "jobs_per_s": round(completed / uptime, 4),
                "jobs_per_s_recent": round(len(recent) / window, 4),
                "job_latency_s": self._latency_block(self._job_latencies),
                "queue_wait_s": self._latency_block(self._wait_latencies),
                "unit_exec_s": self._latency_block(self._unit_latencies),
                "histograms": {
                    "job_latency_s": self._hist_job.as_dict(),
                    "queue_wait_s": self._hist_wait.as_dict(),
                    "unit_exec_s": self._hist_unit.as_dict(),
                    "chunk_exec_s": self._hist_chunk.as_dict(),
                },
                "coalesce_rate": (
                    round(served_without_pool / requested, 4) if requested else None
                ),
                "rejections_recent": rejected_recent,
                "rejected_per_s_recent": round(rejected_recent / window, 4),
            }
