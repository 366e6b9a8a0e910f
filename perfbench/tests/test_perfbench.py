"""Self-tests of the benchmark: contract, inputs, and tiny runs of every workload.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, run, service_workload  # noqa: E402
from repro.sim import ResultStore  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
DECLARED = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    assert list(run.WORKLOADS) == WORKLOADS
    names = WORKLOADS + [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = [metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(metric["bound"] for metric in SPEC["end_to_end"])}]


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    def draws(seed, count=64):
        stream = inputs.service_draws(seed)
        return [next(stream).cache_key() for _ in range(count)]

    assert inputs.sweep_grid(7) == inputs.sweep_grid(7)
    assert inputs.sweep_grid(7) != inputs.sweep_grid(8)
    assert draws(7) == draws(7)
    assert draws(7) != draws(8)
    assert inputs.sample_indices(7, 80, 4, "x") == inputs.sample_indices(7, 80, 4, "x")


def test_sweep_grid_is_the_paper_grid():
    grid = inputs.sweep_grid(3)
    assert len(grid) == 80
    assert len({config.cache_key() for config in grid}) == 80
    assert {config.dcache.name for config in grid} == {"gated"}
    assert {config.seed for config in grid} == {3}


def test_service_draws_contain_no_duplicate_unit_keys():
    stream = inputs.service_draws(11)
    keys = [ResultStore.key_for(next(stream)) for _ in range(3000)]
    assert len(keys) == len(set(keys))


def test_a_dropped_workload_says_why_and_prints_no_result(capsys):
    assert run.main(["--workload", "resume-warm", "--seed", "1", "--seconds", "1"]) == 2
    captured = capsys.readouterr()
    assert "resume-warm was dropped" in captured.err and captured.out == ""


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a run takes seconds, and undo run.py's env edits."""
    monkeypatch.setattr(inputs, "SWEEP_INSTRUCTIONS", 400)
    monkeypatch.setattr(inputs, "SERVICE_INSTRUCTIONS", 300)
    monkeypatch.setattr(service_workload, "MIN_JOBS", 4)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    for name in ("TMPDIR", "PYTHONPATH", "REPRO_TRACE_CACHE_DIR"):
        monkeypatch.setenv(name, os.environ.get(name, ""))
    handler = signal.getsignal(signal.SIGTERM)
    yield
    signal.signal(signal.SIGTERM, handler)


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks_and_prints_declared_metrics(tiny, capsys, workload, traced):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", str(traced)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if traced else "end_to_end"
    assert set(result["metrics"]) == {metric["name"] for metric in SPEC[section]}
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith(" "):
            printed[fields[0]] = float(fields[1])
    assert set(printed) <= DECLARED
    assert printed["failed_frac"] == 0
    if not traced:
        return
    computed = result["metrics"]["engine.computed"]["value"]
    assert computed == {"sweep-cold": 80, "service-closed": 1}[workload]
    if workload == "service-closed":
        assert result["metrics"]["service.units_executed_frac"]["value"] == 1
        assert result["metrics"]["service.rejected_429"]["value"] == 0
    # The counted rows of the layer table add up to the end-to-end wall.
    total = next(line for line in lines if line.startswith("layer accounting"))
    counted = next(line for line in lines if "sum of counted rows" in line)
    wall = float(total.rsplit("=", 1)[1].split()[0])
    assert float(counted.split()[-2]) == pytest.approx(wall, abs=1e-5)
