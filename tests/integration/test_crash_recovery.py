"""Crash-recovery matrix: real SIGKILLs at every layer, byte-identical results.

Three crash sites, one invariant: after recovery, every surviving result
is byte-identical to what a fault-free run produces.

* a **pool worker** SIGKILLed mid-chunk — the engine rebuilds the pool
  and re-executes the lost work;
* the **server process** kill -9'd mid-unit — a restart over the same
  store and journal resumes the job under its original id;
* the **journal's final line** torn by the crash — the server still
  boots and replays everything before the tear.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimEngine, execute_run_fast


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def _configs(benchmarks, instructions):
    return [
        SimulationConfig(benchmark=name, n_instructions=instructions, seed=1)
        for name in benchmarks
    ]


class TestPoolWorkerSigkill:
    def test_sigkilled_worker_mid_chunk_recovers_byte_identically(self, tmp_path):
        configs = _configs(["gcc", "art", "mcf", "equake"], 60_000)
        expected = [execute_run_fast(config).to_dict() for config in configs]
        engine = SimEngine(workers=2, fast=True, store=tmp_path / "store")
        results = []
        errors = []

        def run():
            try:
                results.extend(engine.run_many(configs))
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            # Wait for the pool to fork, then SIGKILL one live worker.
            deadline = time.monotonic() + 30.0
            victim = None
            while time.monotonic() < deadline and victim is None:
                pool = engine._pool
                processes = list((getattr(pool, "_processes", None) or {}).values())
                alive = [p for p in processes if p.is_alive() and p.pid]
                if alive:
                    victim = alive[0]
                else:
                    time.sleep(0.005)
            assert victim is not None, "worker pool never came up"
            os.kill(victim.pid, signal.SIGKILL)
        finally:
            thread.join(timeout=120.0)
            engine.close()
        assert not thread.is_alive(), "run_many wedged after worker SIGKILL"
        assert errors == []
        assert [r.to_dict() for r in results] == expected
        assert engine.stats["pool_rebuilds"] >= 1

    def test_workers_exit_when_their_parent_is_sigkilled(self):
        # A kill -9'd `repro serve` must not leave its pool behind.
        script = (
            "import time\n"
            "from repro.sim import SimEngine, SimulationConfig\n"
            "engine = SimEngine()\n"
            "engine.run_many([SimulationConfig(benchmark='gcc', n_instructions=500)],"
            " isolate=True)\n"
            "print(*[p.pid for p in engine._pool._processes.values()], flush=True)\n"
            "time.sleep(120)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(faults.__file__).resolve().parents[1])
        owner = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            workers = [int(pid) for pid in owner.stdout.readline().split()]
        finally:
            owner.kill()
            owner.wait()
        assert workers
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_running(pid) for pid in workers)


def _running(pid: int) -> bool:
    """Alive and not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


class TestServerKill9:
    def test_kill9_mid_unit_restart_resumes_byte_identically(self):
        # The chaos driver's kill -9 matrix *is* the test: submit to a
        # real `repro serve` subprocess, SIGKILL it mid-unit, restart
        # over the same store + journal, and assert the resumed job
        # completes with results identical to the fault-free baseline
        # and an exactly-empty journal replay after the clean stop.
        from repro.chaos import _kill9_trial

        trial = _kill9_trial(seed=0, n_instructions=1500, timeout_s=120.0)
        assert trial.violations == []
        assert trial.verified_results >= 1


class TestTornJournalBoot:
    def test_server_boots_past_torn_final_line_and_finishes_the_job(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.jobs import Job
        from repro.service.journal import JobJournal
        from repro.service.server import ServiceServer

        configs = _configs(["gcc"], 1500)
        expected = execute_run_fast(configs[0]).to_dict()

        # A journal whose writer died mid-append: one whole submit
        # event, then a torn line where the crash landed.
        journal_path = tmp_path / "jobs.wal"
        journal = JobJournal(journal_path)
        job = Job(kind="batch", configs=configs, labels=["gcc"])
        journal.record_submit(job)
        journal.close()
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"event":"submit","job":{"id":"job-torn"')

        engine = SimEngine(workers=1, fast=True, store=tmp_path / "store")
        server = ServiceServer(engine=engine, journal=journal_path)
        server.start()
        try:
            client = ServiceClient(server.url, retries=3, backoff=0.05)
            finished = client.wait(job.id, timeout=120.0)
            assert finished["status"] == "done"
            payloads = client.collect({"units": finished["unit_keys"]}, finished)
            assert payloads == [expected]
        finally:
            server.stop()
