"""The ``sweep-cold`` workload: the engine, in process.

``sweep-cold`` is what a researcher sweeping a new seed pays: a fresh
``SimEngine(fast=True, workers=2, store=<empty dir>)`` runs the
paper-shaped grid from an empty trace cache, so every pass compiles
traces, forks the pool, runs the kernel and writes the store.

Its traced run also times the read side: fresh engines resuming the
grid from a store that holds its results, so every lookup is a store
hit and store reads, digest checks and ``RunResult.from_dict`` do all
the work.
"""

from __future__ import annotations

import itertools
import shutil
import time
from typing import Dict, List, Tuple

from repro.obs import export as obs_export
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.sim import ResultStore, RunResult, SimEngine
from repro.sim.engine import execute_run
from repro.sim.fastpath import (
    clear_trace_cache,
    compiled_trace_for,
    execute_run_fast,
    set_trace_cache_dir,
)

from . import inputs
from .common import (
    Outcome,
    Run,
    chrome_event,
    durations,
    median,
    percentile,
    time_cold_import,
    timed,
)

#: Pool size of the cold sweep: the host this benchmark targets has two CPUs.
WORKERS = 2

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Results checked against the reference kernel per sweep-cold run.
REFERENCE_SAMPLE = 2

#: Resume passes of the traced run's read-back.
READ_BACK_PASSES = 20

#: Kernel phases that partition a chunk's wall time ("cache" is not one:
#: it is measured inside fetch and issue_scan).
EXCLUSIVE_PHASES = ("compile", "quiet_skip", "fetch", "issue_scan")

#: Per-layer metrics of the service layers, which neither engine
#: workload calls.
SERVICE_LAYERS = (
    "client.submit_s", "client.wait_s", "client.polls_per_job",
    "server.admit_s", "queue.wait_s", "scheduler.unit_exec_s",
    "service.ipc_s", "service.residual_s", "service.units_executed_frac",
    "service.rejected_429",
)


def _fresh_trace_cache(run: Run) -> None:
    """Empty in-memory trace cache and a new, empty on-disk one."""
    clear_trace_cache(disk=False)
    set_trace_cache_dir(run.fresh_dir("traces"))


def _engine_stats_per_job(passes: List[dict], outcome: Outcome) -> None:
    for stat in ("computed", "store_hits", "chunk_retries", "pool_rebuilds"):
        total = sum(record["stats"][stat] for record in passes)
        outcome.put(f"engine.{stat}", total / max(len(passes), 1), "count")


def _headline(outcome: Outcome, passes: List[dict], per_pass_results: int,
              instructions: int, setup_times: List[float]) -> None:
    """End-to-end metrics of ``sweep-cold``, where a job is one pass.

    Throughput is the work of every pass over their summed wall time.
    Other tenants of a shared host slow its CPUs for spells of about
    ten seconds, so a long run's mean and percentiles take in both slow
    and fast spells, where its fastest pass depends on whether one fell
    wholly inside a fast spell.
    """
    walls = [record["wall"] for record in passes]
    per_s = len(walls) / sum(walls)
    outcome.put("setup_s", median(setup_times), "s")
    outcome.put("uops_per_s", per_pass_results * instructions * per_s, "1/s")
    outcome.put("results_per_s", per_pass_results * per_s, "1/s")
    outcome.put("jobs_per_s", per_s, "1/s")
    outcome.put("job_latency_p50_s", median(walls), "s")
    outcome.put("job_latency_p95_s", percentile(walls, 0.95), "s")


def _trace_overhead(outcome: Outcome, untraced: List[dict], traced: List[dict]) -> None:
    """Headline throughput lost to tracing: mean traced vs untraced pass."""
    mean = sum(record["wall"] for record in untraced) / len(untraced)
    mean_traced = sum(record["wall"] for record in traced) / len(traced)
    outcome.put("trace.overhead_frac", 1.0 - mean / mean_traced, "fraction")


def _measure(seconds: float, one_pass, check, minimum: int) -> List[dict]:
    """Run timed passes for ``seconds``; ``check`` verifies each, untimed.

    Results are dropped once checked (all but the last pass's), so a
    run's memory does not grow with its pass count.
    """
    passes: List[dict] = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        if passes:
            passes[-1]["results"] = None
        record = one_pass()
        check(record)
        passes.append(record)
    return passes


def compile_seconds(run: Run, grid) -> float:
    """Cold ``compiled_trace_for`` of every grid benchmark, forced to run length."""
    _fresh_trace_cache(run)
    total = 0.0
    for benchmark in sorted({config.benchmark for config in grid}):
        start = time.perf_counter()
        trace = compiled_trace_for(benchmark, seed=grid[0].seed)
        trace.ensure(grid[0].n_instructions)
        total += time.perf_counter() - start
    return total


def us_per_uop(configs) -> float:
    """Serial ``execute_run_fast`` on warm traces, microseconds per µop."""
    for config in configs:
        execute_run_fast(config)  # warm this process's trace cache
    start = time.perf_counter()
    for config in configs:
        execute_run_fast(config)
    elapsed = time.perf_counter() - start
    return elapsed * 1e6 / sum(config.n_instructions for config in configs)


def _micro_layers(run: Run, outcome: Outcome, grid) -> None:
    outcome.put("workloads.compile_s", compile_seconds(run, grid), "s")
    sample = [grid[i] for i in inputs.sample_indices(run.seed, len(grid), 8, "uop")]
    outcome.put("fastpath.us_per_uop", us_per_uop(sample), "us")


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def _cold_pass(run: Run, grid, traced: bool) -> dict:
    scratch = run.fresh_dir("pass")
    _fresh_trace_cache(run)
    puts: List[Tuple[float, float]] = []
    recorder = obs_trace.install_recorder() if traced else None
    if traced:
        obs_profile.install()  # forked workers inherit the armed profile
    try:
        wall_start = time.time()
        start = time.perf_counter()
        with SimEngine(fast=True, workers=WORKERS, store=scratch / "store") as engine:
            if traced:
                engine.store.put = timed(engine.store.put, puts)
            results = engine.run_many(grid)
        wall = time.perf_counter() - start
    finally:
        obs_trace.clear_recorder()
        obs_profile.clear()
    shutil.rmtree(scratch, ignore_errors=True)
    return {
        "wall": wall, "wall_start": wall_start, "results": results, "traced": traced,
        "stats": dict(engine.stats), "puts": puts,
        "chunks": [span for span in recorder.spans() if span.name == "engine.chunk"]
        if recorder is not None else [],
    }


def _check_cold_pass(grid, record: dict, outcome: Outcome) -> None:
    outcome.attempted += len(grid)
    if record["stats"]["computed"] != len(grid) or len(record["results"]) != len(grid):
        outcome.fail(
            f"sweep-cold pass computed {record['stats']['computed']} of "
            f"{len(grid)} configurations", len(grid))


def _check_reference(run: Run, grid, results, outcome: Outcome) -> None:
    """A seeded sample of results must be bit-identical to the reference kernel."""
    for index in inputs.sample_indices(run.seed, len(grid), REFERENCE_SAMPLE, "reference"):
        if execute_run(grid[index]).to_dict() != results[index].to_dict():
            outcome.fail(f"sweep-cold result {index} ({grid[index].benchmark}) "
                         "differs from the reference kernel")


def _cold_layers(passes: List[dict], outcome: Outcome) -> None:
    chunks = [span for record in passes for span in record["chunks"]]
    phase_s: Dict[str, float] = {}
    for name in EXCLUSIVE_PHASES + ("cache",):
        phase_s[name] = sum(span.attrs.get(f"phase_{name}_s", 0.0) for span in chunks)
    runs = max(sum(span.attrs.get("kernel_runs", 0) for span in chunks), 1)
    chunk_total = sum(span.duration_s for span in chunks)
    unattributed = chunk_total - sum(phase_s[name] for name in EXCLUSIVE_PHASES)
    capacity = WORKERS * sum(record["wall"] for record in passes)
    pool_ipc = capacity - chunk_total
    for name, seconds in phase_s.items():
        outcome.put(f"fastpath.phase.{name}_s", seconds / runs, "s")
    outcome.put("fastpath.unattributed_s", unattributed / runs, "s")
    outcome.put("engine.parallel_eff", chunk_total / capacity, "fraction")
    outcome.put("engine.chunk_s", median([span.duration_s for span in chunks]), "s")
    outcome.put("engine.pool_ipc_s", pool_ipc / WORKERS / len(passes), "s")
    puts = [call for record in passes for call in record["puts"]]
    outcome.put("store.put_s", median(durations(puts)), "s")
    _engine_stats_per_job(passes, outcome)

    outcome.table_total = (f"{WORKERS} workers x pass wall", capacity)
    outcome.table = [
        (f"fastpath.phase.{name}", phase_s[name], True) for name in EXCLUSIVE_PHASES
    ] + [
        ("fastpath.unattributed", unattributed, True),
        ("engine.pool_ipc (residual)", pool_ipc, True),
        ("fastpath.phase.cache", phase_s["cache"], False),
        ("store.put (parent process)", sum(durations(puts)), False),
    ]
    outcome.table_note = (
        "worker-seconds; the residual is pool start-up, pickling/IPC and idle "
        "workers; cache time lies inside fetch and issue_scan")
    for record in passes:
        outcome.spans.append(chrome_event(
            "sweep.pass", record["wall_start"], record["wall"], 0,
            {"configs": record["stats"]["computed"]}))
        for start, seconds in record["puts"]:
            outcome.spans.append(chrome_event("store.put", start, seconds, 0, {}))
    outcome.spans.extend(obs_export.chrome_trace(chunks)["traceEvents"])


def sweep_cold(run: Run) -> Outcome:
    outcome = Outcome(idle=SERVICE_LAYERS)
    setup_times: List[float] = []
    grid = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        time_cold_import(run.env)
        grid = inputs.sweep_grid(run.seed)
        setup_times.append(time.perf_counter() - start)

    check = lambda record: _check_cold_pass(grid, record, outcome)  # noqa: E731
    # The traced run alternates untraced and traced passes, so the host's
    # slow spells fall on both sides of the tracing-overhead comparison.
    kinds = itertools.cycle((False, True) if run.traced else (False,))
    passes = _measure(run.seconds, lambda: _cold_pass(run, grid, next(kinds)), check, 2)
    untraced = [record for record in passes if not record["traced"]]
    _headline(outcome, untraced, len(grid), inputs.SWEEP_INSTRUCTIONS, setup_times)
    if run.traced:
        traced = [record for record in passes if record["traced"]]
        _trace_overhead(outcome, untraced, traced)
        _cold_layers(traced, outcome)
        _micro_layers(run, outcome, grid)
        _read_back(run, grid, passes[-1]["results"], outcome)
    _check_reference(run, grid, passes[-1]["results"], outcome)
    return outcome


# ----------------------------------------------------------------------
# The read side, in the traced run
# ----------------------------------------------------------------------
def _warm_pass(store_dir, grid) -> dict:
    """A fresh engine resumes ``grid`` from ``store_dir``, its reads timed."""
    reads: List[Tuple[float, float]] = []
    decodes: List[Tuple[float, float]] = []
    original = RunResult.__dict__["from_dict"]
    start = time.perf_counter()
    engine = SimEngine(fast=True, store=store_dir)
    engine.store.get_payload = timed(engine.store.get_payload, reads)
    RunResult.from_dict = classmethod(timed(original.__func__, decodes))
    try:
        results = engine.run_many(grid)
    finally:
        RunResult.from_dict = original
    wall = time.perf_counter() - start
    return {"wall": wall, "results": results, "stats": dict(engine.stats),
            "reads": reads, "decodes": decodes}


def _read_back(run: Run, grid, results, outcome: Outcome) -> None:
    """Store a pass's results, then time fresh engines resuming the grid.

    Every resumed result must equal, by ``to_dict()``, what was stored,
    and none may be recomputed.
    """
    store_dir = run.fresh_dir("read-back")
    store = ResultStore(store_dir)
    for config, result in zip(grid, results):
        store.put(config, result)
    stored = [result.to_dict() for result in results]
    passes = [_warm_pass(store_dir, grid) for _ in range(READ_BACK_PASSES)]
    for record in passes:
        outcome.attempted += len(stored)
        wrong = sum(1 for result, expected in zip(record["results"], stored)
                    if result.to_dict() != expected)
        if record["stats"]["computed"] or wrong or len(record["results"]) != len(stored):
            outcome.fail(f"read-back recomputed {record['stats']['computed']} and "
                         f"returned {wrong} results unlike the stored ones",
                         max(wrong, record["stats"]["computed"], 1))
    reads = [call for record in passes for call in record["reads"]]
    decodes = [call for record in passes for call in record["decodes"]]
    residual = sum(record["wall"] for record in passes) - sum(durations(reads)) \
        - sum(durations(decodes))
    outcome.put("store.get_payload_s", median(durations(reads)), "s")
    outcome.put("metrics.from_dict_s", median(durations(decodes)), "s")
    outcome.put("engine.residual_s", residual / len(passes), "s")
