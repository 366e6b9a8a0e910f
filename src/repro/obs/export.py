"""Exporters: Chrome-trace-event JSON and Prometheus text exposition.

:func:`chrome_trace` turns recorded spans into the Chrome trace event
format (JSON object form) that ``chrome://tracing`` and Perfetto load
directly: one complete (``"ph": "X"``) event per span, microsecond
timestamps, span attributes under ``args``.  Extra top-level keys
(``reproLastSeq``, ``reproDropped``) ride along for incremental
collection — viewers ignore unknown keys by design.

:func:`prometheus_text` renders a ``/v1/metrics`` JSON document as
Prometheus text exposition format v0.0.4: every counter as
``repro_<name>_total``, the service gauges, per-priority queue depth as
a labelled gauge, and each histogram as the canonical cumulative
``_bucket{le=...}`` / ``_sum`` / ``_count`` triple.  Histogram payloads
use the shape :class:`repro.service.telemetry.Histogram` emits:
``{"bounds": [...], "counts": [...], "sum": s, "count": n}`` with one
more count than bounds (the +Inf bucket), *non*-cumulative — the
cumulative sums happen here, which is what makes bucket monotonicity a
pure exporter property the tests can pin.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .trace import Span

__all__ = ["chrome_trace", "prometheus_text"]

#: /v1/metrics scalar fields exported as gauges: (json key, prom name).
_GAUGES = (
    ("uptime_s", "repro_uptime_seconds"),
    ("queue_depth", "repro_queue_depth"),
    ("pending_units", "repro_pending_units"),
    ("jobs_per_s", "repro_jobs_per_second"),
    ("jobs_per_s_recent", "repro_jobs_per_second_recent"),
    ("rejected_per_s_recent", "repro_rejected_per_second_recent"),
    ("coalesce_rate", "repro_coalesce_rate"),
    ("engine_cache_hit_rate", "repro_engine_cache_hit_rate"),
    ("pool_rebuilds", "repro_pool_rebuilds"),
    ("store_corrupt_entries", "repro_store_corrupt_entries"),
    ("quarantined_units", "repro_quarantined_units"),
)

#: /v1/metrics histogram names -> Prometheus metric names.
_HISTOGRAMS = (
    ("job_latency_s", "repro_job_latency_seconds",
     "End-to-end job latency, submit to terminal state."),
    ("queue_wait_s", "repro_queue_wait_seconds",
     "Job wait in the priority queue before the scheduler claimed it."),
    ("unit_exec_s", "repro_unit_exec_seconds",
     "Per-unit engine execution time (batch time / units in batch)."),
    ("chunk_exec_s", "repro_chunk_exec_seconds",
     "Engine chunk wall time, cumulative since boot."),
)


def chrome_trace(
    spans: Iterable[Span],
    last_seq: int = 0,
    dropped: int = 0,
) -> Dict[str, Any]:
    """Spans as a Chrome-trace JSON object (Perfetto-loadable)."""
    events: List[Dict[str, Any]] = []
    for span in spans:
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": "repro",
            "ts": round(span.start_s * 1e6, 3),
            "dur": round(span.duration_s * 1e6, 3),
            "pid": span.pid,
            "tid": span.tid,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "reproLastSeq": last_seq,
        "reproDropped": dropped,
    }


def _num(value: Any) -> str:
    """A Prometheus sample value (int unchanged, float via repr)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _bound_label(bound: float) -> str:
    return "%g" % bound


def _histogram_lines(
    name: str, help_text: str, payload: Dict[str, Any]
) -> List[str]:
    bounds: Sequence[float] = payload.get("bounds", ())
    counts: Sequence[int] = payload.get("counts", ())
    if len(counts) != len(bounds) + 1:
        return []
    lines = [
        f"# HELP {name} {help_text}",
        f"# TYPE {name} histogram",
    ]
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        lines.append(
            f'{name}_bucket{{le="{_bound_label(bound)}"}} {cumulative}'
        )
    cumulative += counts[-1]
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{name}_sum {_num(float(payload.get('sum', 0.0)))}")
    lines.append(f"{name}_count {cumulative}")
    return lines


def prometheus_text(metrics: Dict[str, Any]) -> str:
    """A ``/v1/metrics`` JSON document as Prometheus text exposition."""
    lines: List[str] = []

    counters = metrics.get("counters", {})
    for key in sorted(counters):
        name = f"repro_{key}_total"
        lines.append(f"# HELP {name} Service counter {key}.")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_num(counters[key])}")

    for key, name in _GAUGES:
        value = metrics.get(key)
        if value is None:
            continue
        lines.append(f"# HELP {name} Service gauge {key}.")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_num(value)}")

    draining = metrics.get("draining")
    if draining is not None:
        lines.append("# HELP repro_draining Whether the server is draining.")
        lines.append("# TYPE repro_draining gauge")
        lines.append(f"repro_draining {_num(bool(draining))}")

    by_priority = metrics.get("queue_depth_by_priority")
    if by_priority:
        name = "repro_queue_depth_by_priority"
        lines.append(f"# HELP {name} Queue depth per priority class.")
        lines.append(f"# TYPE {name} gauge")
        for priority in sorted(by_priority):
            label = json.dumps(str(priority))
            lines.append(
                f"{name}{{priority={label}}} {_num(by_priority[priority])}"
            )

    histograms = metrics.get("histograms", {})
    for key, name, help_text in _HISTOGRAMS:
        payload: Optional[Dict[str, Any]] = histograms.get(key)
        if payload:
            lines.extend(_histogram_lines(name, help_text, payload))

    return "\n".join(lines) + "\n"
