"""Simulation driver: configuration, engine, metrics, sweeps and storage.

The driver layer is organised around four pieces:

* :class:`~repro.sim.config.SimulationConfig` — one run's description,
  carrying declarative :class:`~repro.core.registry.PolicySpec` objects;
* :class:`~repro.sim.engine.SimEngine` — bounded result caching, an
  optional on-disk :class:`~repro.sim.store.ResultStore`, and parallel
  ``run_many``/``sweep`` fan-out;
* :class:`~repro.sim.metrics.RunResult` — fully JSON-serialisable run
  outcome;
* :mod:`~repro.sim.sweep` — benchmark sweeps and the Section 6.4
  profiling-based threshold selection.

The engine runs the batched fast-path kernel
(:func:`~repro.sim.fastpath.execute_run_fast`) by default; the
reference cycle loop (:func:`~repro.sim.engine.execute_run`) is the
bit-identity oracle, reached through ``SimEngine(fast=False)``.
"""

from repro.core.registry import PolicySpec

from .config import DEFAULT_INSTRUCTIONS, SimulationConfig
from .engine import RunCancelled, SimEngine, default_engine, execute_run, execute_run_fast
from .fastpath import CompiledTrace, clear_trace_cache, compile_workload
from .metrics import RunResult, arithmetic_mean, geometric_mean, slowdown
from .store import ResultStore
from .sweep import (
    BenchmarkThresholds,
    DCACHE_REPLAY_FACTOR,
    select_benchmark_thresholds,
    sweep_benchmarks,
)

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "PolicySpec",
    "SimulationConfig",
    "RunCancelled",
    "SimEngine",
    "default_engine",
    "execute_run",
    "execute_run_fast",
    "CompiledTrace",
    "compile_workload",
    "clear_trace_cache",
    "RunResult",
    "arithmetic_mean",
    "geometric_mean",
    "slowdown",
    "ResultStore",
    "BenchmarkThresholds",
    "DCACHE_REPLAY_FACTOR",
    "select_benchmark_thresholds",
    "sweep_benchmarks",
]
