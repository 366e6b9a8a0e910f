"""The scheduler: drains the job board through the engine's pool.

One scheduler thread pops jobs off the :class:`~repro.service.queue.JobBoard`
in priority order, claims their still-pending units, and executes them
with :meth:`SimEngine.run_many` — which shards the batch into
trace-affine chunks over the persistent fork pool, exactly as a local
sweep would (the service adds no second scheduling layer; it reuses the
engine's).  Even a single-unit job runs on the pool (``isolate=True``):
the kernel then never holds the server's GIL, so submissions and
long-polls are answered while a unit executes, and the pace of the
service follows the kernel rather than contention between threads.

Per-job control:

* **cancellation** — every job carries a :class:`threading.Event`; the
  engine checks it between configurations/chunks and raises
  :class:`~repro.sim.engine.RunCancelled`.  Units another live job
  still needs are recovered: results the engine already wrote to the
  store complete on the spot, the rest return to pending and the
  waiting jobs are requeued.
* **timeout** — ``timeout_s`` arms a timer that sets the same event,
  so a runaway job cannot hold the pool; the job finishes
  ``cancelled`` with a timeout message.
* **failure** — an execution error returns the claimed units to
  pending and requeues their jobs (the engine already absorbs worker
  crashes internally, so an error reaching the scheduler is unusual);
  a unit that keeps failing is *quarantined* after ``max_unit_failures``
  attempts — its jobs finish in the distinct terminal state
  ``"poisoned"`` with the last error's message — so a poison
  configuration cannot pin the scheduler in a retry loop.  The
  scheduler thread itself never dies.

Graceful drain: :meth:`Scheduler.stop` closes the board (no more
pops), lets the in-flight execution finish within ``timeout`` seconds,
then cancels it — queued jobs stay in the journal for the next boot.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

from repro import faults
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.sim.engine import RunCancelled, SimEngine

from .jobs import Job
from .queue import JobBoard, Unit
from .telemetry import Telemetry

__all__ = ["Scheduler"]


class Scheduler:
    """Single executor thread between the board and the engine pool.

    Args:
        max_unit_failures: Execution failures a unit absorbs (with
            retries in between) before it is quarantined and its jobs
            finish ``poisoned``.
    """

    def __init__(
        self,
        board: JobBoard,
        engine: SimEngine,
        telemetry: Optional[Telemetry] = None,
        max_unit_failures: int = 3,
    ) -> None:
        if max_unit_failures < 1:
            raise ValueError("max_unit_failures must be at least 1")
        self.board = board
        self.engine = engine
        self.telemetry = telemetry
        self.max_unit_failures = max_unit_failures
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._current_lock = threading.Lock()
        self._current: Optional[Job] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Drain and stop: finish (or cancel) the in-flight execution."""
        self._stop.set()
        self.board.close()
        thread = self._thread
        if thread is None:
            return
        thread.join(timeout)
        if thread.is_alive():
            with self._current_lock:
                job = self._current
            if job is not None:
                job.cancel.set()  # type: ignore[attr-defined]
            thread.join(5.0)
        self._thread = None

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            job = self.board.pop(timeout=0.25)
            if job is None:
                continue
            with self._current_lock:
                self._current = job
            try:
                self._execute(job)
            finally:
                with self._current_lock:
                    self._current = None

    def _execute(self, job: Job) -> None:
        cancel: threading.Event = job.cancel  # type: ignore[attr-defined]
        timer: Optional[threading.Timer] = None
        if job.timeout_s is not None:
            elapsed = time.time() - getattr(job, "submitted_at", time.time())
            remaining = job.timeout_s - elapsed
            if remaining <= 0:
                cancel.set()
            else:
                timer = threading.Timer(remaining, cancel.set)
                timer.daemon = True
                timer.start()
        # The queue-wait span: submission to this claim.  Both ends come
        # from the board's own wall-clock stamps, so the span is exact
        # even when the scheduler was busy with earlier jobs.  The
        # server's span sink turns it into the queue-wait histogram.
        submitted_at = getattr(job, "submitted_at", None)
        started_at = getattr(job, "started_at", None)
        if submitted_at is not None and started_at is not None:
            obs_trace.record_span(
                "job.wait", submitted_at, started_at - submitted_at,
                trace_id=getattr(job, "trace_id", None),
                parent_id=getattr(job, "root_span_id", None),
                attrs={"job_id": job.id},
            )
        try:
            if cancel.is_set():
                self.board.finish_cancelled(job)
                return
            units = self.board.claim(job)
            if not units:
                # All units already done, or running on behalf of other
                # jobs — completion is event-driven from there.
                return
            self._run_units(job, units, cancel)
        finally:
            if timer is not None:
                timer.cancel()

    def _run_units(self, job: Job, units: List[Unit], cancel: threading.Event) -> None:
        configs = [unit.config for unit in units]
        started = time.monotonic()
        started_wall = time.time()
        trace_id = getattr(job, "trace_id", None) or obs_trace.new_trace_id()
        exec_span = obs_trace.new_span_id()
        # Bind the thread-local context so the engine's chunk spans can
        # parent themselves to this unit-execution span without any API
        # change through run_many.
        obs_trace.set_current(trace_id, exec_span)
        try:
            # The scheduler.unit failpoint models executor death before
            # the engine ever runs ("raise", exercising the unit
            # retry/quarantine path) and a timeout storm ("timeout",
            # tripping the same cancel event a deadline would).
            hit = faults.check("scheduler.unit")
            if hit is not None:
                if hit.action == "timeout":
                    cancel.set()
                elif hit.action == "raise":
                    raise faults.FaultInjected("scheduler.unit")
            results = self.engine.run_many(configs, cancel=cancel, isolate=True)
        except RunCancelled:
            self._recover_cancelled(job, units)
            self.board.finish_cancelled(job)
            obs_log.event("job.cancelled", trace_id=trace_id, job_id=job.id)
            return
        except Exception as error:  # noqa: BLE001 - the thread must survive
            message = f"{type(error).__name__}: {error}"
            retried = quarantined = 0
            for unit in units:
                outcome = self.board.note_unit_failure(
                    unit.key, message, limit=self.max_unit_failures
                )
                if outcome == "retried":
                    retried += 1
                elif outcome == "quarantined":
                    quarantined += 1
            if self.telemetry is not None:
                if retried:
                    self.telemetry.bump("unit_retries", retried)
                if quarantined:
                    self.telemetry.bump("units_quarantined", quarantined)
            obs_log.event(
                "job.units_failed", trace_id=trace_id, job_id=job.id,
                error=message, retried=retried, quarantined=quarantined,
            )
            return
        finally:
            obs_trace.clear_current()
        elapsed = time.monotonic() - started
        per_unit = elapsed / max(len(units), 1)
        if self.telemetry is not None:
            self.telemetry.bump("units_executed", len(units))
        obs_trace.record_span(
            "unit.exec", started_wall, elapsed,
            trace_id=trace_id, span_id=exec_span,
            parent_id=getattr(job, "root_span_id", None),
            attrs={"job_id": job.id, "units": len(units)},
        )
        obs_log.event(
            "job.units_executed", trace_id=trace_id, job_id=job.id,
            units=len(units), elapsed_s=round(elapsed, 6),
        )
        for unit, result in zip(units, results):
            self.board.complete_unit(unit.key, result, elapsed=per_unit)

    def _recover_cancelled(self, job: Job, units: List[Unit]) -> None:
        """Salvage a cancelled execution's units for other waiting jobs.

        The engine writes results back incrementally, so units that
        finished before the cancellation are completed from the store;
        the rest go back to pending and any co-attached jobs requeue.
        """
        store = self.engine.store
        unfinished: List[str] = []
        for unit in units:
            result = store.get_by_key(unit.key) if store is not None else None
            if result is not None:
                self.board.complete_unit(unit.key, result)
            else:
                unfinished.append(unit.key)
        if unfinished:
            self.board.release_units(unfinished)
