"""JobBoard semantics: priority order, coalescing, cancellation, limits."""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.jobs import Job
from repro.service.queue import JobBoard, QueueFull
from repro.sim.config import SimulationConfig
from repro.sim.engine import execute_run_fast
from repro.sim.store import ResultStore


def _job(benchmark="gcc", priority=0, instructions=400, seed=1, job_id=None):
    config = SimulationConfig(
        benchmark=benchmark, n_instructions=instructions, seed=seed
    )
    job = Job(kind="run", configs=[config], labels=[benchmark], priority=priority)
    if job_id:
        job.id = job_id
    return job


class TestPriorityOrder:
    def test_fifo_within_one_priority(self):
        board = JobBoard()
        first = _job("gcc", instructions=400)
        second = _job("gcc", instructions=401)
        board.submit(first)
        board.submit(second)
        assert board.pop(timeout=0.1).id == first.id
        assert board.pop(timeout=0.1).id == second.id

    def test_higher_priority_pops_first(self):
        board = JobBoard()
        low = _job("gcc", priority=0, instructions=400)
        high = _job("art", priority=5, instructions=400)
        board.submit(low)
        board.submit(high)
        assert board.pop(timeout=0.1).id == high.id
        assert board.pop(timeout=0.1).id == low.id

    def test_pop_times_out_empty(self):
        board = JobBoard()
        assert board.pop(timeout=0.05) is None


class TestCoalescing:
    def test_identical_in_flight_jobs_share_one_unit(self):
        board = JobBoard()
        first = _job("gcc")
        duplicate = _job("gcc")
        r1 = board.submit(first)
        r2 = board.submit(duplicate)
        assert r1.unit_keys == r2.unit_keys
        assert r2.coalesced == 1
        assert board.pending_units() == 1

        popped = board.pop(timeout=0.1)
        units = board.claim(popped)
        assert len(units) == 1
        # The other job claims nothing — it waits on the same unit.
        other = board.pop(timeout=0.1)
        assert board.claim(other) == []

        result = execute_run_fast(units[0].config)
        board.complete_unit(units[0].key, result)
        assert first.status == "done"
        assert duplicate.status == "done"

    def test_completed_units_serve_from_store_without_pool(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        store.put(config, execute_run_fast(config))
        board = JobBoard(store=store)
        receipt = board.submit(_job("gcc"))
        assert receipt.cached == 1
        assert receipt.status == "done"
        assert board.pending_units() == 0

    def test_result_payload_round_trips(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        popped = board.pop(timeout=0.1)
        (unit,) = board.claim(popped)
        result = execute_run_fast(unit.config)
        board.complete_unit(unit.key, result)
        assert board.result_payload(unit.key) == result.to_dict()
        payload = board.job_payload(job.id)
        assert payload["status"] == "done"
        assert payload["results"][unit.key] == result.to_dict()


class TestQueueLimit:
    def test_queue_full_raises_with_retry_hint(self):
        board = JobBoard(queue_limit=2)
        board.submit(_job("gcc", instructions=400))
        board.submit(_job("gcc", instructions=401))
        with pytest.raises(QueueFull) as excinfo:
            board.submit(_job("gcc", instructions=402))
        assert excinfo.value.retry_after >= 1.0

    def test_terminal_jobs_free_capacity(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        store.put(config, execute_run_fast(config))
        board = JobBoard(store=store, queue_limit=1)
        receipt = board.submit(_job("gcc"))  # done instantly from the store
        assert receipt.status == "done"
        board.submit(_job("gcc", instructions=401))  # capacity is free again


class TestCancellation:
    def test_cancel_queued_job(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        cancelled = board.cancel(job.id)
        assert cancelled.status == "cancelled"
        assert board.pending_units() == 0
        assert board.pop(timeout=0.05) is None

    def test_cancel_unknown_job(self):
        assert JobBoard().cancel("job-nope") is None

    def test_cancel_keeps_units_other_jobs_need(self):
        board = JobBoard()
        first = _job("gcc")
        second = _job("gcc")
        board.submit(first)
        board.submit(second)
        board.cancel(first.id)
        assert first.status == "cancelled"
        assert second.status == "queued"
        # The shared unit must survive for the second job.
        assert board.pending_units() == 1

    def test_release_units_requeues_waiting_jobs(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        popped = board.pop(timeout=0.1)
        (unit,) = board.claim(popped)
        board.release_units([unit.key])
        again = board.pop(timeout=0.1)
        assert again.id == job.id
        assert len(board.claim(again)) == 1


class TestFailure:
    def test_failed_unit_fails_attached_jobs(self):
        board = JobBoard()
        first = _job("gcc")
        second = _job("gcc")
        board.submit(first)
        board.submit(second)
        popped = board.pop(timeout=0.1)
        (unit,) = board.claim(popped)
        board.fail_unit(unit.key, "worker exploded")
        assert first.status == "failed" and first.error == "worker exploded"
        assert second.status == "failed"

    def test_finished_hook_fires_for_every_terminal_job(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(benchmark="gcc", n_instructions=400)
        store.put(config, execute_run_fast(config))
        board = JobBoard(store=store)
        seen = []
        board.on_job_finished = lambda job: seen.append((job.id, job.status))
        done = _job("gcc")
        board.submit(done)  # instant store hit
        cancelled = _job("gcc", instructions=999)
        board.submit(cancelled)
        board.cancel(cancelled.id)
        assert (done.id, "done") in seen
        assert (cancelled.id, "cancelled") in seen


class TestResultRetention:
    def test_results_are_held_once_as_json_text(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cached = SimulationConfig(benchmark="art", n_instructions=400)
        store.put(cached, execute_run_fast(cached))
        board = JobBoard(store=store)
        board.submit(_job("art"))  # a store hit enters the LRU too
        job = _job("gcc")
        board.submit(job)
        (unit,) = board.claim(board.pop(timeout=0.1))
        result = execute_run_fast(unit.config)
        board.complete_unit(unit.key, result)
        assert len(board._results) == 2
        assert all(isinstance(text, str) for text in board._results.values())
        assert board._results[unit.key] == result.to_json()
        # Each read decodes a fresh dict: no caller can mutate the copy.
        first = board.result_payload(unit.key)
        first["benchmark"] = "mutated"
        assert board.result_payload(unit.key) == result.to_dict()


class TestWaitFinished:
    @staticmethod
    def _waiter(board, job_id, timeout):
        """Run wait_finished in a thread; the box gets its return time."""
        box = {}

        def run():
            board.wait_finished(job_id, timeout)
            box["at"] = time.monotonic()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, box

    def test_completion_wakes_a_waiter_at_once(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        (unit,) = board.claim(board.pop(timeout=0.1))
        result = execute_run_fast(unit.config)
        thread, box = self._waiter(board, job.id, 30.0)
        time.sleep(0.1)
        assert thread.is_alive()
        done_at = time.monotonic()
        board.complete_unit(unit.key, result)
        thread.join(5.0)
        assert not thread.is_alive()
        assert box["at"] - done_at < 0.5

    def test_unfinished_job_waits_out_the_window(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        start = time.monotonic()
        board.wait_finished(job.id, 0.2)
        assert 0.2 <= time.monotonic() - start < 2.0
        assert job.status == "queued"

    def test_unknown_and_terminal_jobs_return_immediately(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        board.cancel(job.id)
        start = time.monotonic()
        board.wait_finished("nope", 10.0)
        board.wait_finished(job.id, 10.0)
        assert time.monotonic() - start < 1.0

    def test_waiter_wakes_only_after_the_finish_hook(self):
        board = JobBoard()
        hooked = []

        def slow_hook(job):
            time.sleep(0.2)
            hooked.append(job.id)

        board.on_job_finished = slow_hook
        job = _job("gcc")
        board.submit(job)
        (unit,) = board.claim(board.pop(timeout=0.1))
        result = execute_run_fast(unit.config)
        seen = []

        def wait():
            board.wait_finished(job.id, 30.0)
            seen.append(list(hooked))

        thread = threading.Thread(target=wait, daemon=True)
        thread.start()
        board.complete_unit(unit.key, result)
        thread.join(5.0)
        assert seen == [[job.id]]

    def test_close_releases_waiters(self):
        board = JobBoard()
        job = _job("gcc")
        board.submit(job)
        thread, box = self._waiter(board, job.id, 30.0)
        time.sleep(0.1)
        closed_at = time.monotonic()
        board.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert box["at"] - closed_at < 0.5
        # A closed board answers every later long-poll at once.
        start = time.monotonic()
        board.wait_finished(job.id, 30.0)
        assert time.monotonic() - start < 0.5
