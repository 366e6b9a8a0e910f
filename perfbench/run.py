"""Run one benchmark workload at one seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` makes the traced run that
prints every per-layer metric and the layer-accounting table, and
writes the spans to ``.perfbench_work/<workload>-seed<N>.trace.json``.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"

WORKLOADS = ("sweep-cold", "service-closed")

#: Workloads that were measured and dropped, with the reason.
DROPPED = {
    "resume-warm": (
        "dropped: its 50 ms passes follow the shared host's slow and fast "
        "spells of about ten seconds, so the median pass of one run spread "
        "by up to 0.28 between runs, more than the 0.25 bound; its read-side "
        "layers (store.get_payload_s, metrics.from_dict_s, engine.residual_s) "
        "are measured in the traced run of sweep-cold instead"),
}


def declared_metrics(traced: bool) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for a mode."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    section = "per_layer" if traced else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _terminate(signum, frame):  # noqa: ANN001 - signal signature
    # Unwind through every ``finally`` so servers and pools are stopped.
    raise SystemExit(128 + signum)


def _prepare_environment(workdir: Path) -> dict:
    """Confine the program's files to ``workdir``; the env for children."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]  # no inherited fault plans, profilers or caches
    tmp = workdir / "tmp"
    tmp.mkdir()
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(workdir / "traces-default")
    pythonpath = [str(SOURCE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(pythonpath)
    return dict(os.environ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + tuple(DROPPED),
                        help="; ".join(f"{name} was {why}" for name, why in DROPPED.items()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload in DROPPED:
        print(f"perfbench: {args.workload} was {DROPPED[args.workload]}", file=sys.stderr)
        return 2
    if not (SOURCE / "repro" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"perfbench: no program to measure: {SOURCE / 'repro'} or "
              f"{BENCHMARK_JSON} is missing", file=sys.stderr)
        return 2
    wanted = declared_metrics(bool(args.trace))

    signal.signal(signal.SIGTERM, _terminate)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        env = _prepare_environment(workdir)
        sys.path[:0] = [str(SOURCE), str(ROOT)]
        from perfbench.common import Run, calibrate, format_table, peak_rss_mb
        from perfbench.engine_workloads import sweep_cold
        from perfbench.service_workload import service_closed

        workloads = {"sweep-cold": sweep_cold, "service-closed": service_closed}
        calib_s = calibrate()
        run = Run(seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
                  workdir=workdir, env=env)
        outcome = workloads[args.workload](run)
        if run.traced:
            for name in outcome.idle:
                outcome.put(name, 0.0, wanted[name])
        outcome.put("host.calib_s", calib_s, "s")
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        attempted = max(outcome.attempted, 1)
        outcome.put("failed_frac", outcome.failed / attempted, "fraction")

        for name, (value, unit) in sorted(outcome.metrics.items()):
            print(f"{name:32s} {value:.6g} {unit}")
        for line in format_table(outcome):
            print(line)
        for error in outcome.errors:
            print(f"CHECK FAILED: {error}")
        if run.traced:
            trace_path = work_root / f"{args.workload}-seed{args.seed}.trace.json"
            trace_path.write_text(json.dumps(
                {"traceEvents": outcome.spans, "displayTimeUnit": "ms"}))
            print(f"spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(wanted) - set(outcome.metrics))
    mislabelled = sorted(name for name, unit in wanted.items()
                         if name in outcome.metrics and outcome.metrics[name][1] != unit)
    if missing or mislabelled:
        print(f"perfbench: metrics not measured: {missing}; with a unit other "
              f"than BENCHMARK.json declares: {mislabelled}", file=sys.stderr)
        return 1
    correct = outcome.failed == 0 and not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
