"""Priority job queue with request coalescing.

The :class:`JobBoard` is the service's shared state: admitted jobs, the
priority heap the scheduler pops from, and the *unit table* that makes
coalescing work.

A **unit** is one unique configuration, keyed by the canonical digest
the engine's on-disk store already uses
(:meth:`~repro.sim.store.ResultStore.key_for`).  Every job references
units; several jobs referencing the same key share one unit, so

* a configuration that is already **done** (result in the board's LRU
  or the result store) is served immediately — the job's unit count
  drops without touching the worker pool;
* a configuration that is **running** on behalf of another job is not
  re-executed — the late job simply attaches and completes when the
  unit does;
* only genuinely new configurations become **pending** work for the
  scheduler.

All mutation happens under one lock; the scheduler blocks on a
condition variable instead of polling.  Completion is event-driven:
when a unit finishes, every attached job's pending set shrinks, and
jobs whose pending set empties are finished (and reported through the
``on_job_finished`` hook, which the server wires to the journal and
telemetry).  Clients long-polling a job (:meth:`JobBoard.wait_finished`)
block on a second condition that is signalled once that hook has run.

Completed results are held once, as their JSON text: the wire form is
what every reader wants, and the text is a quarter of the size of the
decoded dict.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.sim.config import SimulationConfig
from repro.sim.metrics import RunResult
from repro.sim.store import ResultStore

from .jobs import Job, TERMINAL_STATES

__all__ = ["JobBoard", "QueueFull", "SubmitReceipt", "Unit"]


class QueueFull(Exception):
    """Admission rejected: the queue is at capacity (HTTP 429).

    Attributes:
        retry_after: Suggested client back-off in seconds, derived from
            the queue depth and the recent per-unit execution time.
    """

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"job queue is full ({depth} jobs queued); retry in {retry_after:.0f}s"
        )
        self.depth = depth
        self.retry_after = retry_after


@dataclass
class Unit:
    """One unique configuration shared by every job that references it."""

    key: str
    config: SimulationConfig
    status: str = "pending"  # pending | running | done | failed
    error: Optional[str] = None
    jobs: Set[str] = field(default_factory=set)
    #: Execution failures so far (drives retry-then-quarantine).
    failures: int = 0
    #: Trace ids of every job that requested this unit (coalesced jobs
    #: share the execution, so a unit can belong to several traces).
    trace_ids: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class SubmitReceipt:
    """What admission tells the client about its job.

    ``unit_keys`` is parallel to the job's configurations (duplicates
    repeated), so a client can map results back to its request order.
    """

    job_id: str
    status: str
    unit_keys: List[str]
    coalesced: int
    cached: int
    queue_depth: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.job_id,
            "status": self.status,
            "units": list(self.unit_keys),
            "coalesced": self.coalesced,
            "cached": self.cached,
            "queue_depth": self.queue_depth,
        }


class JobBoard:
    """Jobs, units and the priority heap, behind one lock.

    Args:
        store: Optional result store; completed units fall back to it
            when the in-memory result LRU has evicted them, and results
            already on disk satisfy new units at admission.
        queue_limit: Maximum queued-or-running jobs before admission
            returns :class:`QueueFull`.
        retention_jobs: Terminal jobs kept for status queries (oldest
            pruned first).
        retention_results: Completed unit results kept in memory (as
            JSON text).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        queue_limit: int = 256,
        retention_jobs: int = 1024,
        retention_results: int = 4096,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.store = store
        self.queue_limit = queue_limit
        self.retention_jobs = retention_jobs
        self.retention_results = retention_results
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._finished = threading.Condition(self._lock)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._units: Dict[str, Unit] = {}
        self._results: "OrderedDict[str, str]" = OrderedDict()
        self._heap: List = []
        self._seq = 0
        self._closed = False
        #: Recent per-unit execution seconds (drives Retry-After).
        self._unit_seconds = 2.0
        #: Called with every job that reaches a terminal state.
        self.on_job_finished: Optional[Callable[[Job], None]] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> SubmitReceipt:
        """Admit one parsed job; serve/coalesce/queue its units.

        Raises:
            QueueFull: when the live-job count is at the limit.
        """
        finished: Optional[Job] = None
        with self._lock:
            if self._closed:
                raise QueueFull(self.depth(), 5.0)
            live = sum(
                1 for j in self._jobs.values() if j.status not in TERMINAL_STATES
            )
            if live >= self.queue_limit:
                retry = max(1.0, self.depth() * self._unit_seconds)
                raise QueueFull(live, min(retry, 120.0))
            if job.id in self._jobs:
                raise ValueError(f"duplicate job id {job.id!r}")

            unit_keys = [ResultStore.key_for(config) for config in job.configs]
            job.unit_keys = unit_keys  # type: ignore[attr-defined]
            job.pending = set()  # type: ignore[attr-defined]
            job.cancel = threading.Event()  # type: ignore[attr-defined]
            job.submitted_at = time.time()  # type: ignore[attr-defined]
            job.finished_at = None  # type: ignore[attr-defined]
            job.reported = False  # type: ignore[attr-defined]
            coalesced = cached = 0
            trace_id = getattr(job, "trace_id", None)
            seen: Set[str] = set()
            for key, config in zip(unit_keys, job.configs):
                if key in seen:
                    continue
                seen.add(key)
                unit = self._units.get(key)
                if unit is not None and unit.status in ("pending", "running"):
                    unit.jobs.add(job.id)
                    if trace_id:
                        unit.trace_ids.add(trace_id)
                    job.pending.add(key)
                    coalesced += 1
                    continue
                if self._result_available(key):
                    cached += 1
                    continue
                unit = Unit(key=key, config=config)
                unit.jobs.add(job.id)
                if trace_id:
                    unit.trace_ids.add(trace_id)
                self._units[key] = unit
                job.pending.add(key)

            self._jobs[job.id] = job
            self._prune_jobs()
            if not job.pending:
                self._finish(job, "done")
                finished = job
            else:
                job.status = "queued"
                self._push(job)
                self._work.notify_all()
            receipt = SubmitReceipt(
                job_id=job.id,
                status=job.status,
                unit_keys=unit_keys,
                coalesced=coalesced,
                cached=cached,
                queue_depth=self.depth(),
            )
        if finished is not None:
            self._notify(finished)
        return receipt

    def _result_available(self, key: str) -> bool:
        if key in self._results:
            self._results.move_to_end(key)
            return True
        if self.store is not None:
            payload = self.store.get_payload(key)
            if payload is not None and "result" in payload:
                self._remember_result(key, json.dumps(payload["result"]))
                return True
        return False

    def _remember_result(self, key: str, text: str) -> None:
        self._results[key] = text
        self._results.move_to_end(key)
        while len(self._results) > self.retention_results:
            self._results.popitem(last=False)

    def _prune_jobs(self) -> None:
        terminal = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in TERMINAL_STATES
        ]
        excess = len(self._jobs) - self.retention_jobs
        for job_id in terminal:
            if excess <= 0:
                break
            del self._jobs[job_id]
            excess -= 1

    def _push(self, job: Job) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-job.priority, self._seq, job.id))

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next job by (priority, submission order); blocks up to ``timeout``.

        Returns ``None`` on timeout or after :meth:`close`.  The
        returned job is marked ``running``; jobs that reached a terminal
        state while queued (cancellation, coalesced completion) are
        skipped.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is None or job.status in TERMINAL_STATES:
                        continue
                    if job.status == "queued":
                        job.status = "running"
                        job.started_at = time.time()  # type: ignore[attr-defined]
                    return job
                if self._closed:
                    return None
                if deadline is None:
                    self._work.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._work.wait(remaining):
                        return None

    def claim(self, job: Job) -> List[Unit]:
        """Mark the job's pending units running; return them for execution.

        Units already running on behalf of another job are not returned
        (the job waits for them); units that became done meanwhile are
        resolved on the spot.
        """
        finished: Optional[Job] = None
        with self._lock:
            if job.status in TERMINAL_STATES:
                return []
            claimed: List[Unit] = []
            for key in sorted(job.pending):  # type: ignore[attr-defined]
                unit = self._units.get(key)
                if unit is None or unit.status == "done":
                    job.pending.discard(key)  # type: ignore[attr-defined]
                    continue
                if unit.status == "pending":
                    unit.status = "running"
                    claimed.append(unit)
            if not job.pending and job.status not in TERMINAL_STATES:
                self._finish(job, "done")
                finished = job
        if finished is not None:
            self._notify(finished)
        return claimed

    def complete_unit(self, key: str, result: RunResult, elapsed: Optional[float] = None) -> None:
        """Record a unit's result and resolve every attached job."""
        finished: List[Job] = []
        with self._lock:
            if elapsed is not None:
                # Exponential moving average; drives Retry-After hints.
                self._unit_seconds = 0.7 * self._unit_seconds + 0.3 * max(elapsed, 0.01)
            unit = self._units.pop(key, None)
            self._remember_result(key, result.to_json())
            if unit is None:
                return
            for job_id in unit.jobs:
                job = self._jobs.get(job_id)
                if job is None or job.status in TERMINAL_STATES:
                    continue
                job.pending.discard(key)  # type: ignore[attr-defined]
                if not job.pending:
                    self._finish(job, "done")
                    finished.append(job)
        for job in finished:
            self._notify(job)

    def fail_unit(self, key: str, error: str) -> None:
        """Fail a unit; every attached job fails with its message."""
        finished: List[Job] = []
        with self._lock:
            unit = self._units.pop(key, None)
            if unit is None:
                return
            for job_id in unit.jobs:
                job = self._jobs.get(job_id)
                if job is None or job.status in TERMINAL_STATES:
                    continue
                self._finish(job, "failed", error=error)
                finished.append(job)
            # Other pending units referenced only by the failed jobs are
            # abandoned work: drop them so the scheduler never runs them.
            self._drop_orphan_units()
        for job in finished:
            self._notify(job)

    def note_unit_failure(
        self, key: str, error: str, limit: int = 3
    ) -> Optional[str]:
        """One execution failure on a running unit: retry or quarantine.

        Below ``limit`` accumulated failures the unit returns to pending
        and its attached jobs requeue — a transient fault (worker death,
        injected chaos) re-executes.  At ``limit`` the unit is presumed
        *poison*: it is dropped and every attached job finishes in the
        distinct terminal state ``"poisoned"`` carrying the last error,
        so a config that reliably kills executors cannot pin the
        scheduler in a retry loop.  Returns ``"retried"``,
        ``"quarantined"``, or ``None`` when the key is not a running
        unit (already completed or released).
        """
        finished: List[Job] = []
        outcome: Optional[str] = None
        with self._lock:
            unit = self._units.get(key)
            if unit is None or unit.status != "running":
                return None
            unit.failures += 1
            unit.error = error
            if unit.failures < limit:
                unit.status = "pending"
                unit.jobs = {
                    job_id
                    for job_id in unit.jobs
                    if job_id in self._jobs
                    and self._jobs[job_id].status not in TERMINAL_STATES
                }
                if not unit.jobs:
                    del self._units[key]
                else:
                    for job_id in unit.jobs:
                        job = self._jobs[job_id]
                        if job.status in ("queued", "running"):
                            self._push(job)
                    self._work.notify_all()
                outcome = "retried"
            else:
                del self._units[key]
                message = (
                    f"unit {key} quarantined after {unit.failures} "
                    f"failed executions: {error}"
                )
                for job_id in unit.jobs:
                    job = self._jobs.get(job_id)
                    if job is None or job.status in TERMINAL_STATES:
                        continue
                    self._finish(job, "poisoned", error=message)
                    finished.append(job)
                self._drop_orphan_units()
                outcome = "quarantined"
        for job in finished:
            self._notify(job)
        return outcome

    def release_units(self, keys: List[str], *, requeue: bool = True) -> None:
        """Return running units to pending (a cancelled/aborted execution).

        Jobs still waiting on them are pushed back onto the heap so a
        later :meth:`pop` re-claims the work.
        """
        with self._lock:
            for key in keys:
                unit = self._units.get(key)
                if unit is None or unit.status != "running":
                    continue
                unit.status = "pending"
                unit.jobs = {
                    job_id
                    for job_id in unit.jobs
                    if job_id in self._jobs
                    and self._jobs[job_id].status not in TERMINAL_STATES
                }
                if not unit.jobs:
                    del self._units[key]
                    continue
                if requeue:
                    for job_id in unit.jobs:
                        job = self._jobs[job_id]
                        if job.status in ("queued", "running"):
                            self._push(job)
            if requeue:
                self._work.notify_all()

    def _drop_orphan_units(self) -> None:
        live = {
            job_id
            for job_id, job in self._jobs.items()
            if job.status not in TERMINAL_STATES
        }
        for key in list(self._units):
            unit = self._units[key]
            if unit.status != "pending":
                continue
            unit.jobs &= live
            if not unit.jobs:
                del self._units[key]

    # ------------------------------------------------------------------
    # Job control / inspection
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job; returns it, or ``None`` if unknown.

        The job finishes ``cancelled`` immediately (whether queued,
        waiting on coalesced units, or mid-execution) and its
        cancellation event is set — the scheduler notices at the next
        configuration/chunk boundary, salvages any units that finished
        before the cancellation, and requeues units other live jobs
        still need.  Terminal jobs are returned unchanged.
        """
        finished: Optional[Job] = None
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.status in TERMINAL_STATES:
                return job
            job.cancel.set()  # type: ignore[attr-defined]
            self._finish(job, "cancelled")
            finished = job
            self._drop_orphan_units()
        if finished is not None:
            self._notify(finished)
        return job

    def finish_cancelled(self, job: Job) -> None:
        """Scheduler callback: a running job's execution was cancelled."""
        finished = False
        with self._lock:
            if job.status not in TERMINAL_STATES:
                self._finish(job, "cancelled")
                finished = True
                self._drop_orphan_units()
        if finished:
            self._notify(job)

    def _finish(self, job: Job, status: str, error: Optional[str] = None) -> None:
        job.status = status
        job.error = error
        job.finished_at = time.time()  # type: ignore[attr-defined]

    def _notify(self, job: Job) -> None:
        """Run the finish hook, then wake the job's long-pollers.

        Waking after the hook means a client released by
        :meth:`wait_finished` sees the journal's finish record written.
        """
        hook = self.on_job_finished
        try:
            if hook is not None:
                hook(job)
        finally:
            with self._lock:
                job.reported = True  # type: ignore[attr-defined]
                self._finished.notify_all()

    def wait_finished(self, job_id: str, timeout: float) -> None:
        """Block until the job is terminal and reported, or ``timeout`` passes.

        Returns at once for an unknown job and after :meth:`close`, so
        a drain never leaves a long-poll hanging; the caller reads the
        job's state afterwards either way.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            while not self._closed:
                job = self._jobs.get(job_id)
                if job is None or job.reported:  # type: ignore[attr-defined]
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._finished.wait(remaining)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every retained job, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def depth(self) -> int:
        """Jobs admitted but not yet terminal."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values() if job.status not in TERMINAL_STATES
            )

    def pending_units(self) -> int:
        with self._lock:
            return sum(1 for unit in self._units.values() if unit.status == "pending")

    def priority_depths(self) -> Dict[int, int]:
        """Live-job count per priority level (highest priority first).

        The per-priority breakdown of :meth:`depth`: a load generator
        (or an operator) can see whether a deep queue is bulk
        background work or high-priority traffic actually backing up.
        """
        with self._lock:
            depths: Dict[int, int] = {}
            for job in self._jobs.values():
                if job.status not in TERMINAL_STATES:
                    depths[job.priority] = depths.get(job.priority, 0) + 1
            return dict(sorted(depths.items(), key=lambda item: -item[0]))

    def result_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """A completed unit's result dict, from the LRU or the store.

        A malformed key (not a store digest) is simply absent — the
        store's digest validation must not escape as an error from a
        lookup API.
        """
        with self._lock:
            text = self._results.get(key)
            if text is not None:
                self._results.move_to_end(key)
        if text is not None:
            return json.loads(text)
        if self.store is not None:
            try:
                payload = self.store.get_payload(key)
            except ValueError:
                return None
            if payload is not None and "result" in payload:
                with self._lock:
                    self._remember_result(key, json.dumps(payload["result"]))
                return payload["result"]
        return None

    def job_payload(self, job_id: str, include_results: bool = True) -> Optional[Dict[str, Any]]:
        """The full status document for ``GET /v1/jobs/<id>``."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            unit_keys = list(getattr(job, "unit_keys", []))
            pending = set(getattr(job, "pending", ()))
            payload: Dict[str, Any] = job.summary()
            payload["labels"] = list(job.labels)
            payload["unit_keys"] = unit_keys
            payload["pending_units"] = len(pending)
            payload["submitted_at"] = getattr(job, "submitted_at", None)
            payload["finished_at"] = getattr(job, "finished_at", None)
            payload["trace_id"] = getattr(job, "trace_id", None)
        if include_results:
            results: Dict[str, Any] = {}
            if job.status != "failed":
                for key in unit_keys:
                    if key in results or key in pending:
                        continue
                    result = self.result_payload(key)
                    if result is not None:
                        results[key] = result
            payload["results"] = results
        return payload

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop admission; wake blocked :meth:`pop` and long-poll callers."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
            self._finished.notify_all()
