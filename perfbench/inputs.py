"""Seeded workload inputs: the only thing the program under test receives.

Every input is a pure function of the workload seed, so the same seed
regenerates identical inputs and another seed changes them.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.experiments.l2sweep import L2_POLICY_MENU
from repro.sim import PolicySpec, SimulationConfig
from repro.workloads.characteristics import benchmark_names

#: µops per configuration of the cold sweep: one full grid pass takes
#: about two seconds on two workers, so a run holds a score of passes.
SWEEP_INSTRUCTIONS = 4000

#: µops per service unit ("short run length"): the kernel stays a
#: minority of the job latency, as it is for interactive users.
SERVICE_INSTRUCTIONS = 3000

#: The ``gated`` decay thresholds service units draw from.  With the
#: sixteen benchmarks this gives 65536 distinct units, far more than a
#: run can complete, so draws never need to repeat.
SERVICE_THRESHOLDS = range(16, 16 + 4096)


def sweep_grid(seed: int, instructions: Optional[int] = None) -> List[SimulationConfig]:
    """The paper-shaped grid: 16 benchmarks x ``L2_POLICY_MENU``, gated L1s.

    ``instructions`` defaults to :data:`SWEEP_INSTRUCTIONS`.
    """
    instructions = SWEEP_INSTRUCTIONS if instructions is None else instructions
    return [
        SimulationConfig(
            benchmark=benchmark,
            dcache="gated",
            icache="gated",
            l2=l2,
            n_instructions=instructions,
            seed=seed,
        )
        for benchmark in benchmark_names()
        for l2 in L2_POLICY_MENU
    ]


def service_draws(seed: int) -> Iterator[SimulationConfig]:
    """Distinct service units, drawn without replacement from a seeded stream.

    Each unit is a (benchmark, ``gated`` threshold) pair, so no two
    requests share a result: every one must reach the kernel.  This is
    the offset-request idea of a key-value load generator, applied to
    precharge thresholds instead of keys.
    """
    names = benchmark_names()
    units = len(names) * len(SERVICE_THRESHOLDS)
    rng = random.Random(f"perfbench-service-{seed}")
    for index in rng.sample(range(units), units):
        threshold = SERVICE_THRESHOLDS[index // len(names)]
        yield SimulationConfig(
            benchmark=names[index % len(names)],
            dcache=PolicySpec("gated", {"threshold": threshold}),
            icache="gated",
            n_instructions=SERVICE_INSTRUCTIONS,
            seed=seed,
        )


def sample_indices(seed: int, population: int, count: int, salt: str) -> List[int]:
    """A seeded sample of positions to verify (sorted, without repeats)."""
    rng = random.Random(f"perfbench-{salt}-{seed}")
    return sorted(rng.sample(range(population), min(count, population)))
