"""Span-based tracing: ids, propagation context, and the span ring.

The model is deliberately small — a :class:`Span` is one named, timed
interval tagged with a ``trace_id`` shared by every span of one request
and a ``span_id``/``parent_id`` pair forming the tree.  Spans are
collected in a bounded in-process :class:`SpanRecorder` ring buffer;
when the ring is full the oldest spans fall off (``dropped`` counts
them) and every recorded span carries a monotonically increasing
``seq``, so ``spans(since=seq)`` supports incremental collection
(``repro trace --follow``).

Like :mod:`repro.faults`, recording is a fast no-op until armed: with no
recorder installed :func:`record_span` returns after one global load and
one ``is None`` test, so production code can call it unconditionally.

Trace context crosses the HTTP boundary in one header::

    X-Repro-Trace: <trace_id>-<span_id>-<t_ms>

where ``t_ms`` is the sender's epoch-millisecond send time — the server
uses it to record an honest ``client.submit`` root span without a
client-side collector.  On one host (the CI topology) the clocks are
the same clock; across hosts the root span absorbs the clock skew and
the server-side children remain exact.

Inside the server process the *current* context travels through a
thread-local (:func:`set_current` / :func:`get_current`): the scheduler
sets it around engine calls so engine chunk spans can parent themselves
to the unit-execution span without threading arguments through every
layer.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "HEADER",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "clear_current",
    "clear_recorder",
    "format_header",
    "get_current",
    "install_recorder",
    "new_span_id",
    "new_trace_id",
    "parse_header",
    "record_span",
    "recorder",
    "set_current",
]

#: The propagation header.
HEADER = "X-Repro-Trace"

#: Default ring capacity: enough for several loadgen minutes of spans.
DEFAULT_CAPACITY = 8192


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (64 random bits)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id (32 random bits)."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class TraceContext:
    """One hop of propagated context (the parsed header)."""

    trace_id: str
    span_id: str
    t_ms: int

    def header(self) -> str:
        return format_header(self.trace_id, self.span_id, self.t_ms)


def format_header(trace_id: str, span_id: str, t_ms: int) -> str:
    """Encode ``X-Repro-Trace`` header value."""
    return f"{trace_id}-{span_id}-{int(t_ms)}"


def parse_header(value: Optional[str]) -> Optional[TraceContext]:
    """Decode a header value; ``None`` for anything malformed.

    A bad header must never fail a request — tracing is advisory.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) != 3:
        return None
    trace_id, span_id, raw_ms = parts
    if not trace_id or not span_id:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
        t_ms = int(raw_ms)
    except ValueError:
        return None
    if t_ms < 0:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id, t_ms=t_ms)


@dataclass
class Span:
    """One named, timed interval of one trace."""

    name: str
    trace_id: str
    span_id: str
    start_s: float
    duration_s: float
    parent_id: Optional[str] = None
    pid: int = 0
    tid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Recorder-assigned, monotonically increasing; 0 until recorded.
    seq: int = 0

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "seq": self.seq,
        }
        if self.parent_id:
            payload["parent_id"] = self.parent_id
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class SpanRecorder:
    """A bounded, thread-safe ring of finished spans.

    ``sink`` (optional) is called with every span as it is recorded,
    outside the ring's lock: how the service feeds its cumulative
    latency histograms from the same single record call, independent
    of how much of the ring has been evicted.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[Callable[[Span], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.sink = sink
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped = 0

    def record(self, span: Span) -> int:
        """Append ``span`` (evicting the oldest at capacity); its seq."""
        with self._lock:
            self._seq += 1
            span.seq = self._seq
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)
        if self.sink is not None:
            self.sink(span)
        return span.seq

    def spans(self, since: Optional[int] = None) -> List[Span]:
        """Buffered spans in record order; only ``seq > since`` if given."""
        with self._lock:
            if since is None:
                return list(self._spans)
            return [span for span in self._spans if span.seq > since]

    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_RECORDER: Optional[SpanRecorder] = None
_CURRENT = threading.local()


def install_recorder(
    capacity: int = DEFAULT_CAPACITY,
    sink: Optional[Callable[[Span], None]] = None,
) -> SpanRecorder:
    """Install (and return) a fresh process-global recorder."""
    global _RECORDER
    rec = SpanRecorder(capacity, sink=sink)
    _RECORDER = rec
    return rec


def clear_recorder() -> None:
    """Disarm recording in this process (idempotent)."""
    global _RECORDER
    _RECORDER = None


def recorder() -> Optional[SpanRecorder]:
    """The installed recorder, or ``None``."""
    return _RECORDER


def record_span(
    name: str,
    start_s: float,
    duration_s: float,
    trace_id: Optional[str] = None,
    span_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    attrs: Optional[Dict[str, Any]] = None,
) -> Optional[Span]:
    """Record one finished span; the production fast path.

    With no recorder installed this returns ``None`` after a single
    global read — callers sprinkle it through hot layers unconditionally.
    """
    rec = _RECORDER
    if rec is None:
        return None
    span = Span(
        name=name,
        trace_id=trace_id or new_trace_id(),
        span_id=span_id or new_span_id(),
        parent_id=parent_id,
        start_s=start_s,
        duration_s=max(0.0, duration_s),
        pid=os.getpid(),
        tid=threading.get_ident() & 0xFFFF,
        attrs=dict(attrs) if attrs else {},
    )
    rec.record(span)
    return span


def set_current(trace_id: str, span_id: str) -> None:
    """Bind the calling thread's current span context."""
    _CURRENT.ctx = (trace_id, span_id)


def get_current() -> Optional[tuple]:
    """The calling thread's ``(trace_id, span_id)``, or ``None``."""
    return getattr(_CURRENT, "ctx", None)


def clear_current() -> None:
    """Unbind the calling thread's context (idempotent)."""
    _CURRENT.ctx = None
