"""Parameter sweeps and profiling-based threshold selection.

Helpers shared by the experiment modules:

* run a set of benchmarks under a policy pair and aggregate results
  (these are thin wrappers over :meth:`repro.sim.engine.SimEngine.sweep`,
  which handles caching, persistence and parallel fan-out);
* find the per-benchmark optimum gated-precharging threshold (Section 6.4)
  by profiling a baseline run's subarray gap distribution and picking the
  most aggressive threshold whose estimated slowdown stays within the 1%
  budget, then optionally validating with a full timing run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence

from repro.core.registry import PolicySpec
from repro.core.threshold import (
    CANDIDATE_THRESHOLDS,
    PERFORMANCE_BUDGET,
    ThresholdProfile,
    select_threshold,
)

from .config import SimulationConfig
from .engine import SimEngine, default_engine
from .metrics import RunResult

__all__ = [
    "sweep_benchmarks",
    "select_benchmark_thresholds",
    "BenchmarkThresholds",
    "DCACHE_REPLAY_FACTOR",
]

#: Effective cost multiplier per delayed data-cache access used by the
#: profiling-based threshold selection.  A delayed load costs the pull-up
#: cycle plus possibly a replay of its dependents, but the out-of-order
#: window hides much of a single-cycle delay, so the two effects roughly
#: cancel in this substrate (measured gated slowdowns stay well under the
#: profile estimate with a factor of 1).
DCACHE_REPLAY_FACTOR = 1.0

#: Instruction caches only slow the fetch-queue fill, so a delayed fetch
#: costs roughly the pull-up cycle.
ICACHE_REPLAY_FACTOR = 1.0


@dataclass(frozen=True)
class BenchmarkThresholds:
    """Per-benchmark optimum thresholds for the two L1 caches."""

    benchmark: str
    dcache_threshold: int
    icache_threshold: int


def sweep_benchmarks(
    base_config: SimulationConfig,
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[SimEngine] = None,
    workers: Optional[int] = None,
) -> Dict[str, RunResult]:
    """Run ``base_config`` for every benchmark in ``benchmarks``.

    Args:
        base_config: Template configuration; only the benchmark name is
            substituted.
        benchmarks: Benchmark names; defaults to all sixteen.
        engine: Engine to run on; defaults to the process-wide engine.
        workers: Worker processes; defaults to the engine's setting.

    Returns:
        Mapping from benchmark name to its :class:`RunResult`.
    """
    engine = default_engine() if engine is None else engine
    return engine.sweep(base_config, benchmarks=benchmarks, workers=workers)


def select_benchmark_thresholds(
    benchmark: str,
    base_config: SimulationConfig,
    budget: float = PERFORMANCE_BUDGET,
    candidates: Iterable[int] = CANDIDATE_THRESHOLDS,
    predecode_coverage: float = 0.7,
    engine: Optional[SimEngine] = None,
) -> BenchmarkThresholds:
    """Find the per-benchmark optimum thresholds from a profiling run.

    Mirrors the paper's statically-found per-benchmark optimum: the most
    aggressive threshold whose estimated performance degradation stays
    within ``budget``, estimated from the baseline run's subarray
    inter-access gap distribution.

    Args:
        benchmark: Benchmark to profile.
        base_config: Template configuration (its policies are ignored; the
            profile always comes from a static pull-up run).
        budget: Allowed slowdown (the paper uses 1%).
        candidates: Candidate thresholds.
        predecode_coverage: Fraction of delayed data-cache accesses hidden
            by predecoding (Section 6.3 measures ~80% accuracy on 1KB
            subarrays; a portion of that is in time to help).
        engine: Engine to run on; defaults to the process-wide engine.
    """
    engine = default_engine() if engine is None else engine
    profile_config = replace(
        base_config,
        benchmark=benchmark,
        dcache=PolicySpec("static"),
        icache=PolicySpec("static"),
    )
    baseline = engine.run(profile_config)

    dcache_profile = ThresholdProfile(
        gaps=baseline.dcache_gaps,
        total_cycles=baseline.cycles,
        penalty_cycles=1,
        replay_factor=DCACHE_REPLAY_FACTOR,
        predecode_coverage=predecode_coverage,
    )
    icache_profile = ThresholdProfile(
        gaps=baseline.icache_gaps,
        total_cycles=baseline.cycles,
        penalty_cycles=1,
        replay_factor=ICACHE_REPLAY_FACTOR,
        predecode_coverage=0.0,
    )
    return BenchmarkThresholds(
        benchmark=benchmark,
        dcache_threshold=select_threshold(dcache_profile, budget, candidates),
        icache_threshold=select_threshold(icache_profile, budget, candidates),
    )
