"""JSON round-trip tests for configs, stats, energy reports and results."""

import json
from pathlib import Path

import pytest

from repro.core.registry import PolicySpec
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.stats import PipelineStats
from repro.energy.cache_energy import CacheEnergyReport
from repro.sim import RunResult, SimulationConfig


class TestRunResultRoundTrip:
    def test_json_round_trip_is_exact(self, small_baseline_run):
        text = small_baseline_run.to_json()
        rebuilt = RunResult.from_json(text)
        assert rebuilt == small_baseline_run
        # And the dict form is stable across a second cycle.
        assert rebuilt.to_dict() == small_baseline_run.to_dict()

    def test_gated_run_round_trip(self, small_gated_run):
        rebuilt = RunResult.from_dict(
            json.loads(json.dumps(small_gated_run.to_dict()))
        )
        assert rebuilt == small_gated_run
        assert rebuilt.energy.dcache_relative_discharge == (
            small_gated_run.energy.dcache_relative_discharge
        )

    def test_derived_metrics_survive(self, small_baseline_run):
        rebuilt = RunResult.from_json(small_baseline_run.to_json())
        assert rebuilt.ipc == small_baseline_run.ipc
        assert rebuilt.summary() == small_baseline_run.summary()


class TestComponentRoundTrips:
    def test_pipeline_stats(self):
        stats = PipelineStats(cycles=10, committed_instructions=7, branches=2)
        assert PipelineStats.from_dict(json.loads(json.dumps(stats.to_dict()))) == stats

    def test_energy_report(self, small_gated_run):
        report = small_gated_run.energy
        rebuilt = CacheEnergyReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt == report
        assert rebuilt.processor is not None

    def test_energy_report_without_processor(self, small_gated_run):
        report = CacheEnergyReport(
            dcache=small_gated_run.energy.dcache,
            icache=small_gated_run.energy.icache,
        )
        rebuilt = CacheEnergyReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert rebuilt == report
        assert rebuilt.processor is None


class TestConfigRoundTrip:
    def test_default_config(self):
        config = SimulationConfig()
        rebuilt = SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_full_config(self):
        config = SimulationConfig(
            benchmark="art",
            dcache=PolicySpec("gated-predecode", {"threshold": 30}),
            icache=PolicySpec("gated", {"threshold": 70}),
            feature_size_nm=100,
            subarray_bytes=4096,
            n_instructions=12_345,
            seed=9,
            pipeline=PipelineConfig(width=4, rob_entries=64),
            l2=PolicySpec("gated", {"threshold": 500}),
            l2_subarray_bytes=8192,
        )
        rebuilt = SimulationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.cache_key() == config.cache_key()


class TestL2BackwardCompatibility:
    """Pre-L2 payloads and keys stay valid after the L2 became policy-capable."""

    def test_default_l2_is_omitted_from_serialised_config(self):
        data = SimulationConfig().to_dict()
        assert "l2" not in data and "l2_subarray_bytes" not in data

    def test_non_default_l2_is_serialised(self):
        data = SimulationConfig(l2="gated").to_dict()
        assert data["l2"] == {"name": "gated", "params": {}}

    def test_legacy_config_payload_loads_with_static_l2(self):
        data = SimulationConfig().to_dict()
        data.pop("l2", None)
        config = SimulationConfig.from_dict(data)
        assert config.l2.name == "static"
        assert config.l2_subarray_bytes is None

    def test_explicit_static_l2_shares_the_legacy_cache_key(self):
        assert (
            SimulationConfig(l2="static").cache_key()
            == SimulationConfig().cache_key()
        )
        assert (
            SimulationConfig(l2="gated").cache_key()
            != SimulationConfig().cache_key()
        )

    def test_store_digest_unchanged_for_default_l2(self):
        from repro.sim.store import ResultStore

        default = ResultStore.key_for(SimulationConfig())
        explicit = ResultStore.key_for(SimulationConfig(l2="static"))
        gated = ResultStore.key_for(SimulationConfig(l2=PolicySpec("gated", {"threshold": 500})))
        assert default == explicit
        assert gated != default

    def test_legacy_run_result_payload_loads_with_defaults(self, small_baseline_run):
        data = small_baseline_run.to_dict()
        for key in list(data):
            if key.startswith("l2_"):
                del data[key]
        data["energy"] = dict(data["energy"])
        data["energy"].pop("l2", None)
        rebuilt = RunResult.from_dict(json.loads(json.dumps(data)))
        assert rebuilt.l2_policy == "static"
        assert rebuilt.l2_accesses == 0
        assert rebuilt.l2_gaps == []
        assert rebuilt.energy.l2 is None
        assert rebuilt.energy.l2_relative_discharge == 1.0

    def test_l2_fields_round_trip_exactly(self):
        from repro.sim import default_engine

        config = SimulationConfig(
            benchmark="gcc",
            l2=PolicySpec("gated", {"threshold": 500}),
            n_instructions=3_000,
        )
        result = default_engine().run(config)
        rebuilt = RunResult.from_json(result.to_json())
        assert rebuilt == result
        assert rebuilt.l2_policy == "gated"
        assert rebuilt.energy.l2 is not None
        assert rebuilt.l2_accesses > 0


#: A result-store entry as written before the L2 carried a policy and
#: before entries carried a SHA-256: no ``"l2"`` config key, no ``l2_*``
#: result fields.  Its file name in a store is :data:`_PRE_L2_KEY`.
_PRE_L2_ENTRY = Path(__file__).parent / "data" / "pre_l2_store_entry.json"
_PRE_L2_KEY = "aaa4487fcb741002ded0daa20a4537f6"


class TestStoreDigestPin:
    """Result-store digests are literal: refactors must not move them."""

    @pytest.mark.parametrize(
        "config,digest",
        [
            (SimulationConfig(), "f20c5fba27c352e0186dc467a7dbb08f"),
            (
                SimulationConfig(
                    dcache=PolicySpec("gated", {"threshold": 100}),
                    icache=PolicySpec("gated", {"threshold": 100}),
                ),
                "2034d357804dd04a75eeb5d155f4e590",
            ),
            (
                SimulationConfig(l2=PolicySpec("gated", {"threshold": 500})),
                "2eb71b640191534f3e6e5465d53cc902",
            ),
            (SimulationConfig(benchmark="mix:gcc+mcf@500"), "c9d45bd2bd0eaca862cb97056e5da5ad"),
            (SimulationConfig(benchmark="phases:gcc+art"), "96d4c6c9792ad76574ef45a673fbb11a"),
        ],
        ids=["default", "gated-l1-explicit-threshold", "gated-l2", "flat-mix", "phases"],
    )
    def test_store_digests_do_not_move(self, config, digest):
        from repro.sim.store import ResultStore

        assert ResultStore.key_for(config) == digest

    def test_pre_l2_store_entry_resumes_without_recompute(self, tmp_path):
        from repro.sim import SimEngine

        text = _PRE_L2_ENTRY.read_text()
        payload = json.loads(text)
        assert "l2" not in payload["config"] and "sha256" not in payload
        (tmp_path / f"{_PRE_L2_KEY}.json").write_text(text)

        engine = SimEngine(store=tmp_path)
        result = engine.run(SimulationConfig.from_dict(payload["config"]))
        assert engine.stats["computed"] == 0
        assert engine.stats["store_hits"] == 1
        assert result == RunResult.from_dict(payload["result"])
        assert result.l2_policy == "static"
