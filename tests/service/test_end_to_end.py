"""Acceptance: a real `repro serve` process vs a local sweep.

The PR's acceptance criterion, verbatim: a sweep submitted through
``repro submit`` against a live ``repro serve`` returns results
byte-identical (``RunResult.to_dict()`` equality) to the same sweep run
locally, including when half the jobs are duplicates that get coalesced
and when the server is killed and restarted mid-queue (journal resume).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
BENCHMARKS = ["gcc", "art", "mcf"]
INSTRUCTIONS = "2500"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _repro(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=timeout,
    )


class _Server:
    """A `repro serve` subprocess on an ephemeral port."""

    def __init__(self, tmp_path: Path, log_name: str = "serve.log"):
        self.tmp_path = tmp_path
        self.log_path = tmp_path / log_name
        self.process = None
        self.url = None

    def start(self):
        self.log = open(self.log_path, "a")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--store", str(self.tmp_path / "store"),
                "--journal", str(self.tmp_path / "jobs.wal"),
            ],
            stdout=self.log,
            stderr=self.log,
            env=_env(),
        )
        deadline = time.time() + 30
        pattern = re.compile(r"listening on (http://[\d.]+:\d+)")
        while time.time() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                self.url = match.group(1)
                break
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server died at startup:\n{self.log_path.read_text()}"
                )
            time.sleep(0.05)
        else:
            raise TimeoutError("server never announced its address")
        # Wait for /healthz to answer.
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=2):
                    return self
            except OSError:
                time.sleep(0.05)
        raise TimeoutError("healthz never came up")

    def kill9(self):
        self.process.kill()
        self.process.wait(timeout=10)
        self.log.close()

    def stop(self):
        if self.process and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if not self.log.closed:
            self.log.close()


@pytest.fixture()
def local_sweep(tmp_path_factory):
    """The reference: the same sweep run locally via `repro sweep`."""
    result = _repro(
        "sweep",
        "--benchmarks", ",".join(BENCHMARKS),
        "--dcache", "gated",
        "--instructions", INSTRUCTIONS,
        "--json",
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _submit_args(extra=()):
    return [
        "submit",
        "--benchmarks", ",".join(BENCHMARKS),
        "--dcache", "gated",
        "--instructions", INSTRUCTIONS,
        *extra,
    ]


class TestLiveServer:
    def test_remote_sweep_is_byte_identical_with_coalesced_duplicates(
        self, tmp_path, local_sweep
    ):
        server = _Server(tmp_path)
        server.start()
        try:
            # Two identical sweeps in flight: the second must coalesce
            # (or hit the cache), and both must match the local run.
            first = _repro(*_submit_args(["--server", server.url, "--json"]))
            assert first.returncode == 0, first.stderr
            assert json.loads(first.stdout) == local_sweep  # byte-identical

            receipt = _repro(
                *_submit_args(["--server", server.url, "--no-wait", "--json"])
            )
            assert receipt.returncode == 0, receipt.stderr
            parsed = json.loads(receipt.stdout)
            assert parsed["coalesced"] + parsed["cached"] == len(BENCHMARKS)

            second = _repro(
                "result", parsed["id"], "--server", server.url, "--json"
            )
            assert second.returncode == 0, second.stderr
            assert json.loads(second.stdout) == [
                local_sweep[name] for name in BENCHMARKS
            ]

            # /healthz and /metrics over the real wire.
            with urllib.request.urlopen(server.url + "/metrics", timeout=5) as r:
                metrics = json.loads(r.read())
            assert metrics["counters"]["jobs_submitted"] == 2
            served = (
                metrics["counters"]["units_cached"]
                + metrics["counters"]["units_coalesced"]
            )
            assert served == len(BENCHMARKS)
        finally:
            server.stop()
        assert server.process.returncode == 0  # graceful SIGTERM drain

    def test_kill9_midqueue_then_restart_resumes_byte_identical(
        self, tmp_path, local_sweep
    ):
        server = _Server(tmp_path)
        server.start()
        # A long sweep (heavy instruction count) we kill mid-execution.
        heavy = [
            "submit",
            "--benchmarks", ",".join(BENCHMARKS),
            "--dcache", "gated",
            "--instructions", "120000",
            "--server", server.url,
            "--no-wait", "--json",
        ]
        receipt = _repro(*heavy)
        assert receipt.returncode == 0, receipt.stderr
        job_id = json.loads(receipt.stdout)["id"]
        time.sleep(0.6)  # let it start executing, not finish
        server.kill9()

        restarted = _Server(tmp_path, log_name="serve-restarted.log")
        restarted.start()
        try:
            log_text = (tmp_path / "serve-restarted.log").read_text()
            assert "resumed" in log_text  # journal replay happened
            fetched = _repro(
                "result", job_id, "--server", restarted.url, "--json",
                timeout=300,
            )
            assert fetched.returncode == 0, fetched.stderr
            local = _repro(
                "sweep",
                "--benchmarks", ",".join(BENCHMARKS),
                "--dcache", "gated",
                "--instructions", "120000",
                "--json",
                timeout=300,
            )
            assert local.returncode == 0, local.stderr
            local_results = json.loads(local.stdout)
            assert json.loads(fetched.stdout) == [
                local_results[name] for name in BENCHMARKS
            ]
        finally:
            restarted.stop()

    def test_cli_error_paths_exit_2(self, tmp_path):
        server = _Server(tmp_path)
        server.start()
        try:
            bad = _repro(
                "submit", "--benchmark", "gcc",
                "--dcache", "warp-drive",
                "--server", server.url,
            )
            assert bad.returncode == 2
            assert "warp-drive" in bad.stderr
        finally:
            server.stop()

    def test_unreachable_server_exits_2(self):
        result = _repro(
            "jobs", "--server", "http://127.0.0.1:9",
        )
        assert result.returncode == 2
        assert "cannot reach" in result.stderr
