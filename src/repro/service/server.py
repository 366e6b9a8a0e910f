"""Simulation-as-a-service: the stdlib HTTP server.

``repro serve`` turns the engine into an always-on job service with no
dependencies beyond the standard library
(:class:`http.server.ThreadingHTTPServer`).  The API:

=======  =========================  ===========================================
Method   Path                       Meaning
=======  =========================  ===========================================
POST     ``/v1/jobs``               Submit a run/sweep/batch job (202)
GET      ``/v1/jobs``               List retained jobs
GET      ``/v1/jobs/<id>``          Status + partial results (404 unknown);
                                    ``?wait=S`` long-polls: blocks until
                                    the job is terminal or S seconds
                                    pass (S capped at ``MAX_WAIT_S``)
POST     ``/v1/jobs/<id>/cancel``   Cancel (idempotent)
DELETE   ``/v1/jobs/<id>``          Alias for cancel
GET      ``/v1/results/<key>``      One result by canonical cache key
GET      ``/v1/policies``           The policy registry
GET      ``/healthz``               Liveness (503 while draining)
GET      ``/metrics``               Queue depth (total and per priority),
                                    cache/coalesce rate, jobs/sec,
                                    rolling 429 rate, latency percentiles
                                    and histograms;
                                    ``?format=prom`` renders the same
                                    snapshot as Prometheus text exposition
GET      ``/v1/metrics``            Alias for ``/metrics``
GET      ``/v1/trace``              Recent spans as Chrome-trace JSON
                                    (Perfetto-loadable);
                                    ``?since=SEQ`` returns only newer spans
=======  =========================  ===========================================

Submissions may carry an ``X-Repro-Trace: <trace>-<span>-<t_ms>``
header (minted by :class:`repro.service.client.ServiceClient`); the
server then records an honest ``client.submit`` root span and threads
the trace id through the job, its units, the scheduler spans and the
engine's chunk spans — all collected in a bounded in-process ring
served by ``/v1/trace``.

Error mapping: malformed JSON or structure, or a ``wait`` that is not
one finite non-negative number → 400; unknown
policy/benchmark/node → 422 with the registry's message; queue full →
429 with a ``Retry-After`` header; oversized body → 413.  All
responses are JSON.

The HTTP handlers only parse and serialise; every decision lives in
:meth:`ServiceServer.dispatch`, which tests (and the in-process bench
mode) call directly.  Shutdown is a graceful drain: stop accepting,
let the in-flight execution finish (bounded), journal everything, shut
the engine pool down.
"""

from __future__ import annotations

import json
import logging
import math
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs

from repro import faults
from repro.obs import export as obs_export
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.core.registry import get_policy_info, policy_names
from repro.sim.engine import SimEngine

from .jobs import Job, JobError, parse_job_payload
from .journal import JobJournal
from .queue import JobBoard, QueueFull
from .scheduler import Scheduler
from .telemetry import Telemetry

__all__ = ["MAX_WAIT_S", "ServiceServer", "policies_payload"]

log = logging.getLogger("repro.service")

#: Largest accepted request body; a sweep spec is a few KB, so this is
#: generous while still bounding a hostile upload.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest a ``GET /v1/jobs/<id>?wait=S`` long-poll holds its request;
#: larger S values are clipped to it and the client simply asks again.
MAX_WAIT_S = 20.0

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)$")
_CANCEL_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)/cancel$")
# Result keys are lowercase-hex store digests; anything else is a 404
# at the routing layer (not a ValueError deep in the store).
_RESULT_PATH = re.compile(r"^/v1/results/([0-9a-f]+)$")


def policies_payload() -> Dict[str, Any]:
    """The policy registry as JSON (shared with ``repro policies``)."""
    payload: Dict[str, Any] = {}
    for name in policy_names():
        info = get_policy_info(name)
        payload[name] = {
            "defaults": {key: value for key, value in info.defaults.items()},
            "aliases": list(info.aliases),
            "scheduler_extra_latency": info.scheduler_extra_latency,
            "description": info.description,
        }
    return payload


class ServiceServer:
    """The job-queue service wired together: board, scheduler, HTTP.

    Args:
        engine: The engine executing every unit (its worker pool, result
            store and fast/reference setting are the service's).  The
            default keeps no in-memory LRU: the board's result LRU and
            the store answer every repeat before the engine sees it, so
            an engine LRU would only hold a second copy of each result.
        host / port: Bind address; port ``0`` picks an ephemeral port
            (tests and the bench harness use this).
        queue_limit: Live jobs admitted before 429.
        journal: Write-ahead journal path (or instance); ``None``
            disables persistence across restarts.
    """

    def __init__(
        self,
        engine: Optional[SimEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 256,
        journal: Union[JobJournal, str, Path, None] = None,
        retention_jobs: int = 1024,
        retention_results: int = 4096,
    ) -> None:
        self.engine = engine if engine is not None else SimEngine(max_cached_runs=0)
        self.telemetry = Telemetry()
        self.board = JobBoard(
            store=self.engine.store,
            queue_limit=queue_limit,
            retention_jobs=retention_jobs,
            retention_results=retention_results,
        )
        self.journal = (
            JobJournal(journal)
            if isinstance(journal, (str, Path))
            else journal
        )
        self.board.on_job_finished = self._job_finished
        # Tracing is always on server-side: the ring is bounded and a
        # span record is a deque append, negligible next to a unit
        # execution.  Installing here makes this server the process's
        # span sink (the scheduler and engine record through the module
        # global), which is exactly right for the one-server-per-process
        # production topology and for in-process chaos/tests.  Every
        # span also feeds the telemetry histograms as it is recorded,
        # so each event is instrumented by one call and the histograms
        # stay cumulative however far the ring has evicted.
        self.spans = obs_trace.install_recorder(sink=self.telemetry.observe_span)
        self.scheduler = Scheduler(self.board, self.engine, self.telemetry)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(self))
        self._httpd.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None
        self._replayed = 0

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def replayed_jobs(self) -> int:
        """Jobs resumed from the journal at the last :meth:`start`."""
        return self._replayed

    # ------------------------------------------------------------------
    def _job_finished(self, job: Job) -> None:
        latency = None
        submitted = getattr(job, "submitted_at", None)
        finished = getattr(job, "finished_at", None)
        if submitted is not None and finished is not None:
            latency = max(0.0, finished - submitted)
        self.telemetry.observe_job_finished(job.status, latency)
        if self.journal is not None:
            try:
                self.journal.record_finish(job)
            except (OSError, ValueError):  # pragma: no cover - disk full etc.
                log.exception("journal write failed for job %s", job.id)

    def _resume_from_journal(self) -> None:
        if self.journal is None:
            return
        jobs = self.journal.replay()
        self.journal.compact(jobs)
        self._replayed = 0
        for job in jobs:
            try:
                self.board.submit(job)
                self._replayed += 1
            except (QueueFull, ValueError):
                log.exception("could not resume journaled job %s", job.id)
        if self._replayed:
            log.info("resumed %d unfinished job(s) from the journal", self._replayed)

    # ------------------------------------------------------------------
    def start(self) -> "ServiceServer":
        """Replay the journal, start the scheduler and the HTTP thread."""
        self._resume_from_journal()
        self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Graceful drain (idempotent): stop accepting, finish, shut down."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._draining.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        self.scheduler.stop(timeout=drain_timeout)
        if self.journal is not None:
            self.journal.close()
        # terminate(), not close(): a drain timeout may have abandoned a
        # long chunk on a worker, and exit must not leave it orphaned.
        self.engine.terminate()
        log.info("service stopped")

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(
        self, drain_timeout: float = 10.0, ready_file: Union[str, Path, None] = None
    ) -> None:
        """Blocking entry point for ``repro serve``.

        Installs SIGTERM/SIGINT handlers that trigger the graceful
        drain, then blocks until one arrives.  ``ready_file`` (when
        given) receives the bound URL once the server is accepting —
        how a supervising process (the chaos driver, a test harness)
        discovers an ephemeral ``--port 0`` without scraping logs.
        """
        done = threading.Event()

        def _drain(signum, frame):  # noqa: ANN001 - signal signature
            log.info("signal %s: draining", signum)
            done.set()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _drain)
        self.start()
        log.info("repro service listening on %s", self.url)
        if ready_file is not None:
            Path(ready_file).write_text(self.url + "\n", encoding="utf-8")
        try:
            done.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.stop(drain_timeout=drain_timeout)

    # ------------------------------------------------------------------
    # Routing (transport-free; tests call this directly)
    # ------------------------------------------------------------------
    def dispatch(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Any] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Handle one request; returns ``(status, payload, headers)``.

        ``payload`` is a JSON-serialisable dict for every endpoint but
        ``/metrics?format=prom``, which returns pre-rendered text.
        ``headers`` (when given) is any mapping with ``.get`` — the
        HTTP handler passes the request headers so the trace context
        in ``X-Repro-Trace`` propagates; tests may omit it.
        """
        self.telemetry.bump("http_requests")
        try:
            status, payload, out_headers = self._route(method, path, body, headers)
        except Exception as error:  # noqa: BLE001 - must answer, not die
            log.exception("unhandled error for %s %s", method, path)
            status = 500
            payload = {"error": f"internal error: {type(error).__name__}"}
            out_headers = {}
        if status >= 400:
            self.telemetry.bump("http_errors")
        return status, payload, out_headers

    def _route(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        request_headers: Optional[Any] = None,
    ) -> Tuple[int, Any, Dict[str, str]]:
        path, _, query = path.partition("?")
        params = parse_qs(query, keep_blank_values=True) if query else {}
        if path == "/healthz":
            if self._draining.is_set():
                return 503, {"status": "draining"}, {}
            return 200, {
                "status": "ok",
                "uptime_s": self.telemetry.snapshot()["uptime_s"],
                "queue_depth": self.board.depth(),
            }, {}
        if path in ("/metrics", "/v1/metrics"):
            metrics = self._metrics()
            if params.get("format", [""])[0] == "prom":
                return 200, obs_export.prometheus_text(metrics), {
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8"
                }
            return 200, metrics, {}
        if path == "/v1/trace":
            since: Optional[int] = None
            raw_since = params.get("since", [""])[0]
            if raw_since:
                try:
                    since = int(raw_since)
                except ValueError:
                    return 400, {"error": f"bad since value {raw_since!r}"}, {}
            spans = self.spans.spans(since=since)
            return 200, obs_export.chrome_trace(
                spans,
                last_seq=self.spans.last_seq(),
                dropped=self.spans.dropped,
            ), {}
        if path == "/v1/policies":
            return 200, {"policies": policies_payload()}, {}
        if path == "/v1/jobs":
            if method == "POST":
                ctx = obs_trace.parse_header(
                    request_headers.get(obs_trace.HEADER)
                    if request_headers is not None
                    else None
                )
                return self._submit(body, ctx)
            if method == "GET":
                jobs = [job.summary() for job in self.board.jobs()]
                return 200, {"jobs": jobs, "queue_depth": self.board.depth()}, {}
            return 405, {"error": "method not allowed"}, {"Allow": "GET, POST"}
        match = _CANCEL_PATH.match(path)
        if match and method == "POST":
            return self._cancel(match.group(1))
        match = _JOB_PATH.match(path)
        if match:
            if method == "GET":
                try:
                    wait_s = _wait_param(params.get("wait"))
                except ValueError as error:
                    return 400, {"error": str(error)}, {}
                if wait_s:
                    self.board.wait_finished(match.group(1), wait_s)
                payload = self.board.job_payload(match.group(1))
                if payload is None:
                    return 404, {"error": f"unknown job {match.group(1)!r}"}, {}
                return 200, payload, {}
            if method == "DELETE":
                return self._cancel(match.group(1))
            return 405, {"error": "method not allowed"}, {"Allow": "GET, DELETE"}
        match = _RESULT_PATH.match(path)
        if match and method == "GET":
            key = match.group(1)
            result = self.board.result_payload(key)
            if result is None:
                return 404, {"error": f"no result for key {key!r}"}, {}
            return 200, {"key": key, "result": result}, {}
        return 404, {"error": f"no such endpoint: {method} {path}"}, {}

    def _submit(
        self, body: Optional[bytes], ctx: Optional[obs_trace.TraceContext] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        admit_start = time.time()
        if self._draining.is_set():
            return 503, {"error": "server is draining"}, {"Retry-After": "5"}
        if not body:
            return 400, {"error": "empty request body"}, {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            return 400, {"error": f"request body is not valid JSON: {error}"}, {}
        try:
            job = parse_job_payload(payload)
        except JobError as error:
            return error.status, {"error": str(error)}, {}
        if self.board.get(job.id) is not None:
            # Checked before the WAL write so a duplicate id (possibly
            # with a different payload) never shadows the original's
            # journal entry; board.submit re-checks under its lock.
            return 409, {"error": f"duplicate job id {job.id!r}"}, {}
        self.telemetry.bump("jobs_submitted")
        self.telemetry.bump("units_requested", len(job.configs))
        # Write-ahead: the journal must know the job before the client
        # is told it was admitted.  A failed WAL write therefore rejects
        # the job (503, retryable) — admitting work the journal cannot
        # replay would silently drop it on the next restart.
        if self.journal is not None:
            try:
                self.journal.record_submit(job)
            except OSError as error:
                self.telemetry.bump("journal_errors")
                log.warning("journal write failed; job not admitted: %s", error)
                return 503, {
                    "error": f"journal write failed; job not admitted: {error}"
                }, {"Retry-After": "1"}
        # Trace identity rides on the job as runtime attributes (never
        # journaled): the board tags units with it at admission, the
        # scheduler parents its spans to it.  A client-minted context
        # wins; otherwise the server mints a root of its own.
        job.trace_id = ctx.trace_id if ctx else obs_trace.new_trace_id()
        job.root_span_id = ctx.span_id if ctx else obs_trace.new_span_id()
        try:
            receipt = self.board.submit(job)
        except QueueFull as error:
            self.telemetry.observe_rejection()
            self._void_journal_entry(job, "queue full")
            return 429, {"error": str(error)}, {
                "Retry-After": str(int(max(1, error.retry_after)))
            }
        except ValueError as error:
            # Duplicate client-supplied id: the board never admitted it.
            # No compensating WAL event — a terminal event for this id
            # would pop the *original* job's submit on replay.  The
            # duplicate submit line is harmless: replaying it while the
            # original is unfinished is exactly the idempotent-retry
            # semantics the journal promises, and after the original
            # finishes its results are served from the store instantly.
            self.telemetry.bump("jobs_rejected")
            return 409, {"error": str(error)}, {}
        self.telemetry.bump("units_cached", receipt.cached)
        self.telemetry.bump("units_coalesced", receipt.coalesced)
        admit_end = time.time()
        attrs = {
            "job_id": job.id,
            "units": len(job.configs),
            "cached": receipt.cached,
            "coalesced": receipt.coalesced,
            "priority": job.priority,
        }
        if ctx is not None:
            # The root span starts at the client's send time (same-host
            # clocks in the CI topology; across hosts the root absorbs
            # the skew and the server-side children stay exact).
            root_start = min(ctx.t_ms / 1000.0, admit_start)
            obs_trace.record_span(
                "client.submit", root_start, admit_end - root_start,
                trace_id=job.trace_id, span_id=job.root_span_id, attrs=attrs,
            )
            obs_trace.record_span(
                "server.admit", admit_start, admit_end - admit_start,
                trace_id=job.trace_id, parent_id=job.root_span_id, attrs=attrs,
            )
        else:
            obs_trace.record_span(
                "server.admit", admit_start, admit_end - admit_start,
                trace_id=job.trace_id, span_id=job.root_span_id, attrs=attrs,
            )
        obs_log.event(
            "job.submitted", trace_id=job.trace_id, job_id=job.id,
            units=len(job.configs), cached=receipt.cached,
            coalesced=receipt.coalesced,
        )
        return 202, receipt.to_dict(), {}

    def _void_journal_entry(self, job: Job, reason: str) -> None:
        """Append a terminal event for a write-ahead'd job that was rejected.

        The WAL records the submit before admission; without a matching
        terminal event a restart's replay would resurrect — and a
        compaction preserve — a job the client saw rejected.
        """
        job.status = "cancelled"
        job.error = reason
        if self.journal is not None:
            self.journal.record_finish(job)

    def _cancel(self, job_id: str) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        job = self.board.cancel(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        return 200, job.summary(), {}

    def _metrics(self) -> Dict[str, Any]:
        metrics = self.telemetry.snapshot()
        engine_stats = dict(self.engine.stats)
        counters = metrics.get("counters", {})
        # Only the lookup-outcome counters — the engine's recovery
        # stats (pool rebuilds, chunk retries) are not lookups and must
        # not dilute the hit rate.
        lookups = (
            engine_stats.get("memory_hits", 0)
            + engine_stats.get("store_hits", 0)
            + engine_stats.get("computed", 0)
        )
        metrics["queue_depth"] = self.board.depth()
        metrics["queue_depth_by_priority"] = {
            str(priority): depth
            for priority, depth in self.board.priority_depths().items()
        }
        metrics["pending_units"] = self.board.pending_units()
        metrics["engine"] = engine_stats
        metrics["engine_cache_hit_rate"] = (
            round(
                (engine_stats["memory_hits"] + engine_stats["store_hits"]) / lookups, 4
            )
            if lookups
            else None
        )
        # Robustness surface: every recovery the stack performed, in
        # one place, so a chaos campaign (or an operator) can see
        # faults being absorbed rather than surfacing.
        metrics["retries_total"] = (
            engine_stats.get("chunk_retries", 0) + counters.get("unit_retries", 0)
        )
        metrics["quarantined_units"] = counters.get("units_quarantined", 0)
        metrics["pool_rebuilds"] = engine_stats.get("pool_rebuilds", 0)
        store = self.engine.store
        metrics["store_corrupt_entries"] = (
            store.stats.get("corrupt_entries", 0) if store is not None else 0
        )
        metrics["draining"] = self._draining.is_set()
        metrics["spans_recorded"] = self.spans.last_seq()
        metrics["spans_dropped"] = self.spans.dropped
        return metrics


def _wait_param(values: Optional[list]) -> Optional[float]:
    """The ``?wait=`` long-poll window in seconds, capped at ``MAX_WAIT_S``.

    ``None`` when absent.  Raises :class:`ValueError` (a 400) unless it
    is given once and is a finite, non-negative number.
    """
    if values is None:
        return None
    if len(values) != 1:
        raise ValueError("wait may be given only once")
    try:
        wait_s = float(values[0])
    except ValueError:
        wait_s = math.nan
    if not math.isfinite(wait_s) or wait_s < 0:
        raise ValueError(
            f"bad wait value {values[0]!r}: expected finite, non-negative seconds"
        )
    return min(wait_s, MAX_WAIT_S)


def _make_handler(service: ServiceServer):
    """A request-handler class bound to one :class:`ServiceServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-service/1"

        def _respond(self) -> None:
            body: Optional[bytes] = None
            length = self.headers.get("Content-Length")
            if length is not None:
                try:
                    size = int(length)
                except ValueError:
                    self._send(400, {"error": "bad Content-Length"}, {})
                    return
                if size > MAX_BODY_BYTES:
                    # The body is not read; the connection must close or
                    # the unread bytes would be parsed as the next request.
                    self.close_connection = True
                    self._send(
                        413,
                        {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"},
                        {},
                    )
                    return
                body = self.rfile.read(size) if size else b""
            # The server.response failpoint fires before dispatch, so an
            # injected failure never half-executes a submit: "drop"
            # closes the connection unanswered (the client sees a
            # transport error), "error" answers 503 (retryable).
            hit = faults.check("server.response")
            if hit is not None:
                if hit.action == "drop":
                    self.close_connection = True
                    return
                if hit.action == "error":
                    self._send(
                        503,
                        {"error": "injected fault: server.response"},
                        {"Retry-After": "1"},
                    )
                    return
            status, payload, headers = service.dispatch(
                self.command, self.path, body, self.headers
            )
            self._send(status, payload, headers)

        def _send(self, status: int, payload: Any, headers: Dict[str, str]) -> None:
            if isinstance(payload, str):
                # Pre-rendered text (Prometheus exposition); the route
                # supplies the content type.
                data = payload.encode("utf-8")
                content_type = headers.pop(
                    "Content-Type", "text/plain; charset=utf-8"
                )
            else:
                data = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            try:
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
                pass

        do_GET = do_POST = do_DELETE = _respond

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            log.info("%s - %s", self.address_string(), format % args)

    return Handler
