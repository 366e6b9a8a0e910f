"""Loadgen reporting: human-readable curves and the bench artifact section.

Two consumers share this module:

* ``repro loadgen`` renders single runs and ``--sweep`` saturation
  curves as text (or emits the same rows as JSON);
* ``repro bench --service`` calls :func:`bench_loadgen_section` to
  embed a small saturation curve — measured against an in-process
  :class:`~repro.service.server.ServiceServer` over real HTTP — into
  the ``loadgen`` section of the ``repro-bench/pr6`` artifact, which
  is what makes service traffic a *regression-gated* workload.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.engine import SimEngine

from .base import PoissonArrivals, parse_rate_schedule
from .runner import LoadReport, LoadRunner, saturation_sweep
from .synthetic import MixEngine, parse_mix

__all__ = ["bench_loadgen_section", "format_curve", "format_report"]

#: Offered rates of the bench artifact's saturation curve (jobs/sec).
BENCH_RATES = (4.0, 8.0, 16.0, 32.0)

#: The bench curve's mix: run payloads across benchmarks x thresholds,
#: wide enough that points do not trivially collapse onto the result LRU.
BENCH_MIX = (
    "gcc/gated:threshold=100,gcc/gated:threshold=200,"
    "art/gated:threshold=150,art/gated:threshold=250,"
    "gcc+art/gated"
)


def _fmt_ms(seconds: Optional[float]) -> str:
    return "      -" if seconds is None else f"{seconds * 1000:7.1f}"


def format_report(report: LoadReport) -> str:
    """A single run as readable text."""
    row = report.to_dict()
    lines = [
        f"{report.mode}-loop load: {report.generator}",
        f"  offered   {row['offered']:5d} requests "
        f"({row['offered_per_s']:.2f}/s over {row['duration_s']:g}s)",
        f"  completed {row['completed']:5d} "
        f"({row['achieved_per_s']:.2f}/s achieved, ratio "
        f"{row['achieved_ratio']:.3f})",
        f"  rejected  {row['rejected_429']:5d} (429s), failed {row['failed']}",
        f"  latency   p50 {_fmt_ms(row['latency_s']['p50'])}ms   "
        f"p95 {_fmt_ms(row['latency_s']['p95'])}ms   "
        f"p99 {_fmt_ms(row['latency_s']['p99'])}ms",
        f"  lateness  p95 {_fmt_ms(row['lateness_s']['p95'])}ms   "
        f"max {_fmt_ms(row['lateness_s']['max'])}ms",
    ]
    if row["coalesce_rate"] is not None:
        lines.append(f"  coalesce  {row['coalesce_rate']:.3f}")
    delta = row.get("metrics_delta") or {}
    if delta:
        # The server's own /v1/metrics counter delta across the run, so
        # client-side counts can be cross-checked against what the
        # service says it admitted and executed.
        lines.append(
            f"  server Δ  jobs +{delta.get('jobs_submitted', 0)} submitted, "
            f"+{delta.get('jobs_rejected', 0)} rejected"
        )
        lines.append(
            f"            units +{delta.get('units_requested', 0)} requested: "
            f"{delta.get('units_executed', 0)} executed, "
            f"{delta.get('units_cached', 0)} cached, "
            f"{delta.get('units_coalesced', 0)} coalesced"
        )
    if row["identity"]["checked"]:
        lines.append(
            f"  identity  {row['identity']['checked']} sampled config(s): "
            + ("byte-identical to local engine" if row["identity"]["ok"]
               else "MISMATCH vs local engine")
        )
    return "\n".join(lines)


def format_curve(reports: Sequence[LoadReport]) -> str:
    """A saturation curve as an aligned text table."""
    lines = [
        "offered/s  achieved/s   ratio   p50 ms   p95 ms   p99 ms  "
        "429s  coalesce  identity"
    ]
    for report in reports:
        row = report.to_dict()
        coalesce = row["coalesce_rate"]
        lines.append(
            f"{row['offered_per_s']:9.2f}  {row['achieved_per_s']:10.2f}  "
            f"{row['achieved_ratio']:6.3f}  {_fmt_ms(row['latency_s']['p50'])}  "
            f"{_fmt_ms(row['latency_s']['p95'])}  "
            f"{_fmt_ms(row['latency_s']['p99'])}  "
            f"{row['rejected_429']:4d}  "
            + (f"{coalesce:8.3f}  " if coalesce is not None else "       -  ")
            + str(row["identity"]["ok"])
        )
    return "\n".join(lines)


def bench_loadgen_section(
    instructions: int,
    rates: Sequence[float] = BENCH_RATES,
    duration: float = 2.5,
    seed: int = 1,
    verify_sample: int = 2,
    echo: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """Measure a saturation curve against an in-process service.

    Boots a :class:`~repro.service.server.ServiceServer` on an
    ephemeral port, sweeps the offered rates open-loop (Poisson
    arrivals over the :data:`BENCH_MIX` payload mix), verifies sampled
    results byte-identically against a local engine, and returns the
    ``loadgen`` section of the bench artifact.
    """
    from repro.service.server import ServiceServer

    mix = parse_mix(BENCH_MIX, instructions=instructions)
    local = SimEngine()
    server = ServiceServer(engine=SimEngine()).start()
    try:
        runner = LoadRunner(server.url)

        def make_engine(rate: float) -> MixEngine:
            return MixEngine(
                mix, PoissonArrivals(parse_rate_schedule(str(rate)), seed=seed),
                seed=seed,
            )

        reports = saturation_sweep(
            runner,
            make_engine,
            rates,
            duration,
            verify_sample=verify_sample,
            engine=local,
            echo=echo,
        )
    finally:
        server.stop()
        local.close()
    points: List[Dict[str, Any]] = [report.to_dict() for report in reports]
    identity_values = [
        point["identity"]["ok"] for point in points
        if point["identity"]["ok"] is not None
    ]
    return {
        "mix": mix.describe(),
        "arrivals": "poisson",
        "seed": seed,
        "duration_s": duration,
        "points": points,
        "peak_achieved_per_s": max(
            (point["achieved_per_s"] for point in points), default=0.0
        ),
        "identical": bool(identity_values) and all(identity_values),
    }
