"""Shared pieces of the benchmark: statistics, host checks, layer tables."""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def calibrate(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: flags noisy-neighbour runs.

    The loop exercises the interpreter the way the kernel does (integer
    arithmetic, list indexing, branches) and touches no program code,
    so it moves with the host, never with a change to the repository.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        table = list(range(256))
        acc = 0
        for i in range(200_000):
            acc = (acc + table[i & 255] * 3) & 0xFFFF
            if acc & 1:
                acc ^= i
        times.append(time.perf_counter() - start)
    return median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, MiB.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the peak of the largest
    descendant that has been waited for (pool workers after shutdown,
    the server subprocess after it exits), not a sum, so the figure is
    the benchmark process plus its biggest child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def time_cold_import(env: Dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing the program's entry points.

    Every CLI invocation and every ``repro serve`` start pays this, so
    it is part of each workload's set-up.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import repro.sim, repro.service.server, repro.service.client"],
        env=env, check=True, timeout=60,
    )
    return time.perf_counter() - start


def timed(fn: Callable, sink: List[Tuple[float, float]]) -> Callable:
    """Wrap ``fn`` so each call appends ``(epoch start, seconds)`` to ``sink``."""

    def wrapper(*args, **kwargs):
        wall = time.time()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((wall, time.perf_counter() - start))

    return wrapper


def durations(sink: Sequence[Tuple[float, float]]) -> List[float]:
    return [seconds for _, seconds in sink]


@dataclass
class Run:
    """One invocation: its arguments and its private scratch directory."""

    seed: int
    seconds: float
    traced: bool
    workdir: Path
    #: Environment for child processes (points them at ``src/`` and at
    #: scratch directories inside the checkout).
    env: Dict[str, str]

    def fresh_dir(self, name: str) -> Path:
        """A new, empty directory under the run's scratch directory."""
        index = 0
        while (self.workdir / f"{name}-{index}").exists():
            index += 1
        path = self.workdir / f"{name}-{index}"
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """What one workload run returns to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Metric name -> (value, unit).
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Layer accounting rows (name, seconds, in_sum); rows in the sum
    #: add up to ``table_total`` exactly, the last of them the residual.
    table: List[Tuple[str, float, bool]] = field(default_factory=list)
    table_total: Optional[Tuple[str, float]] = None
    table_note: str = ""
    spans: List[dict] = field(default_factory=list)
    #: Per-layer metrics of layers this workload does not exercise: they
    #: are reported as 0 (no time spent, nothing counted).
    idle: Tuple[str, ...] = ()

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)


def format_table(outcome: Outcome) -> List[str]:
    """The layer-accounting table as printable lines."""
    if outcome.table_total is None:
        return []
    label, total = outcome.table_total
    lines = [f"layer accounting ({label} = {total:.6f} s)"]
    in_sum = 0.0
    for name, seconds, counted in outcome.table:
        share = seconds / total if total else 0.0
        mark = "" if counted else "  (inclusive, not in the sum)"
        lines.append(f"  {name:32s} {seconds:12.6f} s {share:7.1%}{mark}")
        if counted:
            in_sum += seconds
    lines.append(f"  {'sum of counted rows':32s} {in_sum:12.6f} s")
    if outcome.table_note:
        lines.append(f"  {outcome.table_note}")
    if "trace.overhead_frac" in outcome.metrics:
        overhead = outcome.metrics["trace.overhead_frac"][0]
        lines.append(f"  tracing cost {overhead:.1%} of the untraced headline throughput")
    return lines


def chrome_event(name: str, start_s: float, dur_s: float, tid: int, args: dict) -> dict:
    """One complete event in Chrome-trace JSON (microsecond units)."""
    return {
        "ph": "X", "name": name, "cat": "perfbench",
        "ts": round(start_s * 1e6, 3), "dur": round(dur_s * 1e6, 3),
        "pid": 0, "tid": tid, "args": args,
    }
