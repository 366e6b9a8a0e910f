"""The ``service-closed`` workload: ``repro serve`` driven by two clients.

The server runs as a subprocess in the production topology (``repro
serve --fast --store --journal``).  Two client threads each loop
``ServiceClient.submit_run`` then ``ServiceClient.wait`` at their
defaults (a closed loop: a client sends its next job only when the last
one is done).  Every job is a distinct unit, so nothing may be served
from the result LRU, coalescing or the store; the run fails if any is.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.sim import ResultStore, RunResult, SimulationConfig
from repro.sim.fastpath import clear_trace_cache, execute_run_fast, set_trace_cache_dir
from repro.workloads.characteristics import benchmark_names

from . import inputs
from .common import Outcome, Run, chrome_event, durations, median, percentile, timed
from .engine_workloads import EXCLUSIVE_PHASES, SETUP_REPEATS, compile_seconds, us_per_uop

#: Closed-loop clients (one per CPU of the target host).
CLIENTS = 2

#: Fetched results re-simulated locally per run.
RESULT_SAMPLE = 4

#: Completed jobs a run needs so that ten samples lie beyond its p95.
MIN_JOBS = 200

#: A run that has not completed MIN_JOBS within this many times its
#: ``--seconds`` stops anyway and reports what it has.
MAX_STRETCH = 2.0


class Server:
    """A ``repro serve`` subprocess with its own store, journal and trace cache."""

    def __init__(self, run: Run, trace_dir, profiled: bool = False) -> None:
        home = run.fresh_dir("server")
        self.trace_dir = trace_dir
        ready = home / "ready"
        env = dict(run.env, REPRO_TRACE_CACHE_DIR=str(trace_dir))
        if profiled:
            env["REPRO_PROFILE"] = "1"
        self.log = open(home / "server.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--fast",
             "--store", str(home / "store"), "--journal", str(home / "journal.jsonl"),
             "--port", "0", "--ready-file", str(ready)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start; see {home / 'server.log'}")
            time.sleep(0.01)
        self.url = ready.read_text().strip()
        ServiceClient(self.url).healthz()

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then a kill if it overstays; waits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def _setup(run: Run, profiled: bool = False) -> Tuple[float, Server]:
    """Compile every benchmark's trace at unit length, then start the server."""
    start = time.perf_counter()
    trace_dir = run.fresh_dir("traces")
    clear_trace_cache(disk=False)
    set_trace_cache_dir(trace_dir)
    for benchmark in benchmark_names():
        # A static-L1 run compiles and persists the trace; no measured
        # unit uses static L1s, so this leaves nothing the server could hit.
        execute_run_fast(SimulationConfig(
            benchmark=benchmark, n_instructions=inputs.SERVICE_INSTRUCTIONS,
            seed=run.seed))
    server = Server(run, trace_dir, profiled=profiled)
    return time.perf_counter() - start, server


def _closed_loop(url: str, draws, seconds: float, min_jobs: int,
                 count_polls: bool) -> Tuple[List[dict], float]:
    """Drive ``CLIENTS`` closed-loop clients; returns (job records, wall).

    Clients stop starting jobs after ``seconds``, or once ``min_jobs``
    have completed if that takes longer (at most ``MAX_STRETCH`` times
    ``seconds``).
    """
    lock = threading.Lock()
    records: List[dict] = []
    start = time.perf_counter()

    def keep_going() -> bool:
        elapsed = time.perf_counter() - start
        if elapsed < seconds:
            return True
        with lock:
            done = sum(1 for record in records if record["ok"])
        return done < min_jobs and elapsed < seconds * MAX_STRETCH

    def client_loop() -> None:
        client = ServiceClient(url)
        polls: List[Tuple[float, float]] = []
        if count_polls:
            client.job = timed(client.job, polls)
        while keep_going():
            with lock:
                config = next(draws)
            record = {"config": config, "ok": False, "t0": time.perf_counter(),
                      "wall0": time.time()}
            before = len(polls)
            try:
                receipt = client.submit_run(config)
                record["t1"] = time.perf_counter()
                job = client.wait(receipt["id"])
                record["t2"] = time.perf_counter()
                record["result"] = job["results"][receipt["units"][0]]
                record["trace_id"] = client.trace_id_for(receipt["id"])
                record["ok"] = True
            except (ServiceError, JobFailed, KeyError, OSError) as error:
                record["error"] = f"{type(error).__name__}: {error}"
            record["polls"] = len(polls) - before
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_loop, daemon=True) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds * MAX_STRETCH + 60)
        if thread.is_alive():
            raise RuntimeError("a service client did not finish its job in time")
    return records, time.perf_counter() - start


def _counters(client: ServiceClient) -> Dict[str, int]:
    snapshot = client.metrics()
    counters = dict(snapshot["counters"])
    for name, value in snapshot["engine"].items():
        counters[f"engine.{name}"] = value
    return counters


def _phase(run: Run, server: Server, draws, seconds: float, traced: bool,
           outcome: Outcome) -> dict:
    """One measured phase against ``server``, with its uncached guard."""
    client = ServiceClient(server.url)
    before = _counters(client)
    first_seq = client.trace()["reproLastSeq"] if traced else 0
    min_jobs = 0 if run.traced else MIN_JOBS
    records, wall = _closed_loop(server.url, draws, seconds, min_jobs, traced)
    after = _counters(client)
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in after}
    spans = client.trace(since=first_seq)["traceEvents"] if traced else []

    done = [record for record in records if record["ok"]]
    outcome.attempted += len(records)
    for record in records:
        if not record["ok"]:
            outcome.fail(f"service job failed: {record['error']}")
    # The uncached guard: every submitted unit must reach the kernel.
    refused = delta.get("jobs_rejected", 0)
    if refused:
        outcome.fail(f"{refused} submissions were refused (429)", refused)
    served_elsewhere = {
        name: delta.get(name, 0)
        for name in ("units_cached", "units_coalesced", "engine.memory_hits",
                     "engine.store_hits")
        if delta.get(name, 0)
    }
    if served_elsewhere or delta.get("units_executed", 0) != len(records):
        outcome.fail(
            f"uncached guard: {len(records)} distinct units submitted, "
            f"{delta.get('units_executed', 0)} executed, served elsewhere: "
            f"{served_elsewhere or 'none'}")
    latencies = [record["t2"] - record["t0"] for record in done]
    return {"records": done, "wall": wall, "delta": delta, "spans": spans,
            "latencies": latencies, "jobs_per_s": len(done) / wall}


def _check_sample(run: Run, records: List[dict], outcome: Outcome) -> None:
    """A seeded sample of fetched results must equal a local fast-path run."""
    if not records:
        outcome.fail("service-closed completed no jobs")
        return
    for index in inputs.sample_indices(run.seed, len(records), RESULT_SAMPLE, "service"):
        record = records[index]
        local = json.loads(json.dumps(execute_run_fast(record["config"]).to_dict()))
        if local != record["result"]:
            outcome.fail(f"service result for {record['config'].benchmark} "
                         f"{record['config'].dcache} differs from a local run")


def _service_layers(phase: dict, outcome: Outcome) -> None:
    by_trace: Dict[str, Dict[str, dict]] = {}
    for event in phase["spans"]:
        by_trace.setdefault(event["args"].get("trace_id"), {})[event["name"]] = event
    names = ("client.submit", "server.admit", "job.wait", "unit.exec", "engine.chunk")
    rows: Dict[str, List[float]] = {name: [] for name in names}
    rows.update({"latency": [], "submit": [], "wait": [], "residual": [], "ipc": []})
    phase_s = {name: 0.0 for name in EXCLUSIVE_PHASES + ("cache",)}
    polls = []
    for record in phase["records"]:
        spans = by_trace.get(record["trace_id"], {})
        if any(name not in spans for name in names):
            outcome.fail(f"job trace {record['trace_id']} lacks spans: "
                         f"has {sorted(spans)}")
            continue
        seconds = {name: spans[name]["dur"] / 1e6 for name in names}
        for name in names:
            rows[name].append(seconds[name])
        latency = record["t2"] - record["t0"]
        rows["latency"].append(latency)
        rows["submit"].append(record["t1"] - record["t0"])
        rows["wait"].append(record["t2"] - record["t1"])
        rows["ipc"].append(seconds["unit.exec"] - seconds["engine.chunk"])
        rows["residual"].append(
            latency - seconds["client.submit"] - seconds["job.wait"] - seconds["unit.exec"])
        for name in phase_s:
            phase_s[name] += spans["engine.chunk"]["args"].get(f"phase_{name}_s", 0.0)
        polls.append(record["polls"])
        outcome.spans.append(chrome_event(
            "client.job", record["wall0"], latency, 1,
            {"trace_id": record["trace_id"], "polls": record["polls"]}))
    jobs = max(len(rows["latency"]), 1)
    chunk_total = sum(rows["engine.chunk"])
    unattributed = chunk_total - sum(phase_s[name] for name in EXCLUSIVE_PHASES)

    outcome.put("client.submit_s", median(rows["submit"]), "s")
    outcome.put("client.wait_s", median(rows["wait"]), "s")
    outcome.put("client.polls_per_job", sum(polls) / jobs, "count")
    outcome.put("server.admit_s", median(rows["server.admit"]), "s")
    outcome.put("queue.wait_s", median(rows["job.wait"]), "s")
    outcome.put("scheduler.unit_exec_s", median(rows["unit.exec"]), "s")
    outcome.put("engine.chunk_s", median(rows["engine.chunk"]), "s")
    outcome.put("service.ipc_s", median(rows["ipc"]), "s")
    outcome.put("service.residual_s", median(rows["residual"]), "s")
    for name, seconds in phase_s.items():
        outcome.put(f"fastpath.phase.{name}_s", seconds / jobs, "s")
    outcome.put("fastpath.unattributed_s", unattributed / jobs, "s")
    # One scheduler thread executes units in the server (single-unit jobs
    # never use the pool), so the executor offers one kernel-second per second.
    outcome.put("engine.parallel_eff", chunk_total / phase["wall"], "fraction")
    delta = phase["delta"]
    executed = delta.get("units_executed", 0)
    outcome.put("service.units_executed_frac",
                executed / max(delta.get("units_requested", 0), 1), "fraction")
    outcome.put("service.rejected_429", delta.get("jobs_rejected", 0), "count")
    for stat in ("computed", "store_hits", "chunk_retries", "pool_rebuilds"):
        outcome.put(f"engine.{stat}", delta.get(f"engine.{stat}", 0) / jobs, "count")

    total = sum(rows["latency"])
    submit_self = sum(rows["client.submit"]) - sum(rows["server.admit"])
    outcome.table_total = ("sum of client job latencies", total)
    outcome.table = [
        ("client.submit (self)", submit_self, True),
        ("server.admit", sum(rows["server.admit"]), True),
        ("job.wait (queue)", sum(rows["job.wait"]), True),
        ("service.ipc (unit.exec - chunk)", sum(rows["ipc"]), True),
    ] + [
        (f"fastpath.phase.{name}", phase_s[name], True) for name in EXCLUSIVE_PHASES
    ] + [
        ("fastpath.unattributed", unattributed, True),
        ("service.residual (residual)", sum(rows["residual"]), True),
        ("fastpath.phase.cache", phase_s["cache"], False),
    ]
    outcome.table_note = (
        "the residual is the client's poll wait and response trips, which no "
        "server span covers")
    outcome.spans.extend(phase["spans"])


def _replay_store_layers(run: Run, records: List[dict], outcome: Outcome) -> None:
    """Time the store and decode layers on the jobs' own results.

    The server makes these calls in its own process, where the
    benchmark cannot time them, so they are replayed here: one
    ``ResultStore.put``, ``get_payload`` and ``RunResult.from_dict`` per
    completed job, on its configuration and result.
    """
    store = ResultStore(run.fresh_dir("replay-store"))
    puts: List[Tuple[float, float]] = []
    reads: List[Tuple[float, float]] = []
    decodes: List[Tuple[float, float]] = []
    put = timed(store.put, puts)
    get_payload = timed(store.get_payload, reads)
    from_dict = timed(RunResult.from_dict, decodes)
    for record in records:
        put(record["config"], from_dict(record["result"]))
        get_payload(ResultStore.key_for(record["config"]))
    outcome.put("store.put_s", median(durations(puts)), "s")
    outcome.put("store.get_payload_s", median(durations(reads)), "s")
    outcome.put("metrics.from_dict_s", median(durations(decodes)), "s")


def service_closed(run: Run) -> Outcome:
    # Single-unit jobs run in the server's scheduler thread, not the pool.
    outcome = Outcome(idle=("engine.pool_ipc_s", "engine.residual_s"))
    servers: List[Server] = []
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if servers:
                servers.pop().stop()
            elapsed, server = _setup(run)
            servers.append(server)
            setup_times.append(elapsed)
        draws = inputs.service_draws(run.seed)
        seconds = run.seconds / 2 if run.traced else run.seconds
        phase = _phase(run, servers[-1], draws, seconds, False, outcome)
        latencies = phase["latencies"]
        outcome.put("setup_s", median(setup_times), "s")
        outcome.put("uops_per_s", phase["jobs_per_s"] * inputs.SERVICE_INSTRUCTIONS, "1/s")
        outcome.put("results_per_s", phase["jobs_per_s"], "1/s")
        outcome.put("jobs_per_s", phase["jobs_per_s"], "1/s")
        outcome.put("job_latency_p50_s", median(latencies), "s")
        outcome.put("job_latency_p95_s", percentile(latencies, 0.95), "s")
        sampled = phase["records"]
        if run.traced:
            servers.append(Server(run, servers[-1].trace_dir, profiled=True))
            traced = _phase(run, servers[-1], draws, seconds, True, outcome)
            outcome.put("trace.overhead_frac",
                        1.0 - traced["jobs_per_s"] / phase["jobs_per_s"], "fraction")
            _service_layers(traced, outcome)
            _replay_store_layers(run, traced["records"], outcome)
            outcome.put("workloads.compile_s", compile_seconds(
                run, [record["config"] for record in traced["records"]]), "s")
            sample = [traced["records"][i]["config"] for i in inputs.sample_indices(
                run.seed, len(traced["records"]), 8, "uop")]
            outcome.put("fastpath.us_per_uop", us_per_uop(sample), "us")
            sampled = traced["records"]
        _check_sample(run, sampled, outcome)
    finally:
        for server in servers:
            server.stop()
    return outcome
