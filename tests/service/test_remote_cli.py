"""`--server URL` on run/sweep/experiment: remote == local, exactly."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service.server import ServiceServer
from repro.sim.engine import SimEngine


@pytest.fixture()
def server(tmp_path):
    engine = SimEngine(fast=True, store=tmp_path / "store")
    with ServiceServer(engine=engine) as server:
        yield server


def run_cli(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


class TestRemoteExecution:
    def test_run_remote_matches_local(self, capsys, server):
        args = ["run", "--benchmark", "gcc", "--dcache", "gated",
                "--instructions", "600", "--json"]
        status, local = run_cli(capsys, *args)
        assert status == 0
        status, remote = run_cli(capsys, *args, "--server", server.url)
        assert status == 0
        assert json.loads(remote) == json.loads(local)

    def test_sweep_remote_matches_local(self, capsys, server):
        args = ["sweep", "--benchmarks", "gcc,art", "--dcache", "gated",
                "--instructions", "600", "--json"]
        status, local = run_cli(capsys, *args)
        assert status == 0
        status, remote = run_cli(capsys, *args, "--server", server.url)
        assert status == 0
        # Byte-identical payloads, benchmark order preserved.
        assert remote == local

    def test_experiment_remote_matches_local(self, capsys, server):
        args = ["experiment", "figure8", "--benchmarks", "gcc",
                "--instructions", "500", "--json"]
        status, local = run_cli(capsys, *args)
        assert status == 0
        status, remote = run_cli(capsys, *args, "--server", server.url)
        assert status == 0
        local_payload = json.loads(local)
        remote_payload = json.loads(remote)
        # The experiment's artefact is identical; the `runs` section may
        # order results differently (remote insertion vs local LRU).
        assert remote_payload["result"] == local_payload["result"]
        key = lambda run: (run["benchmark"], run["dcache_policy"], run["subarray_bytes"])
        assert sorted(remote_payload["runs"], key=key) == sorted(
            local_payload["runs"], key=key
        )
