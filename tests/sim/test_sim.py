"""Tests for the simulation configuration, engine, metrics and sweeps."""

import pytest

from repro.core import (
    GatedPrechargePolicy,
    OnDemandPrechargePolicy,
    OraclePrechargePolicy,
    ResizableCachePolicy,
    StaticPullUpPolicy,
)
from repro.core.registry import policy_names
from repro.sim import (
    PolicySpec,
    SimulationConfig,
    arithmetic_mean,
    default_engine,
    geometric_mean,
    select_benchmark_thresholds,
    slowdown,
    sweep_benchmarks,
)


class TestPolicyFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("static", StaticPullUpPolicy),
            ("oracle", OraclePrechargePolicy),
            ("on-demand", OnDemandPrechargePolicy),
            ("gated", GatedPrechargePolicy),
            ("gated-predecode", GatedPrechargePolicy),
            ("resizable", ResizableCachePolicy),
        ],
    )
    def test_every_published_policy_is_constructible(self, name, cls):
        assert isinstance(PolicySpec(name).build(), cls)

    def test_gated_predecode_enables_predecoding(self):
        assert PolicySpec("gated-predecode").build().use_predecode
        assert not PolicySpec("gated").build().use_predecode

    def test_threshold_passed_through(self):
        assert PolicySpec("gated", {"threshold": 250}).build().threshold == 250

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("drowsy").build()

    def test_all_policy_names_listed(self):
        for name in policy_names():
            PolicySpec(name).build()


class TestSimulationConfig:
    def test_defaults_follow_the_paper(self):
        config = SimulationConfig()
        assert config.feature_size_nm == 70
        assert config.subarray_bytes == 1024
        hierarchy = config.hierarchy_config()
        assert hierarchy.l1d_bytes == 32 * 1024
        assert hierarchy.l1i_latency == 2 and hierarchy.l1d_latency == 3

    def test_on_demand_folds_known_latency_into_speculation(self):
        ondemand = SimulationConfig(dcache="on-demand")
        static = SimulationConfig(dcache="static")
        assert ondemand.pipeline_config().speculative_extra_latency == 1
        assert static.pipeline_config().speculative_extra_latency == 0

    def test_with_policies_returns_modified_copy(self):
        base = SimulationConfig(benchmark="gcc")
        other = base.with_policies("oracle", "oracle")
        assert other.dcache == PolicySpec("oracle")
        assert base.dcache == PolicySpec("static")
        assert other.benchmark == "gcc"

    def test_with_policies_takes_bare_names_at_their_defaults(self):
        base = SimulationConfig(dcache=PolicySpec("gated", {"threshold": 150}))
        other = base.with_policies("gated-predecode", "static")
        assert other.dcache == PolicySpec("gated-predecode")
        assert other.l2 == base.l2


class TestRunner:
    def test_run_produces_consistent_result(self, small_baseline_run):
        result = small_baseline_run
        assert result.cycles > 0
        assert result.pipeline.committed_instructions >= 6_000
        assert 0 < result.ipc < 8
        assert result.dcache_accesses > 0
        assert result.icache_accesses > 0
        assert result.energy.dcache_relative_discharge == pytest.approx(1.0)

    def test_run_cache_returns_same_object(self, small_baseline_run):
        config = SimulationConfig(
            benchmark="gcc", dcache="static", icache="static",
            feature_size_nm=70, n_instructions=6_000,
        )
        assert default_engine().run(config) is small_baseline_run

    def test_gated_run_saves_discharge_with_small_slowdown(
        self, small_baseline_run, small_gated_run
    ):
        assert small_gated_run.energy.dcache_relative_discharge < 0.6
        assert small_gated_run.energy.icache_relative_discharge < 0.3
        assert abs(slowdown(small_gated_run, small_baseline_run)) < 0.05

    def test_gaps_are_collected_for_locality_analysis(self, small_baseline_run):
        assert len(small_baseline_run.dcache_gaps) > 100
        assert all(gap >= 0 for gap in small_baseline_run.dcache_gaps[:100])


class TestMetrics:
    def test_slowdown_requires_same_benchmark(self, small_baseline_run):
        other = default_engine().run(
            SimulationConfig(benchmark="mesa", n_instructions=3_000)
        )
        with pytest.raises(ValueError):
            slowdown(other, small_baseline_run)

    def test_means(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            arithmetic_mean([])
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])

    def test_summary_mentions_benchmark_and_policy(self, small_gated_run):
        text = small_gated_run.summary()
        assert "gcc" in text and "gated" in text


class TestSweeps:
    def test_sweep_runs_requested_benchmarks(self):
        base = SimulationConfig(n_instructions=3_000)
        results = sweep_benchmarks(base, benchmarks=["gcc", "treeadd"])
        assert set(results) == {"gcc", "treeadd"}
        assert all(r.cycles > 0 for r in results.values())

    def test_threshold_selection_returns_candidate_values(self):
        base = SimulationConfig(n_instructions=6_000)
        thresholds = select_benchmark_thresholds("gcc", base)
        from repro.core.threshold import CANDIDATE_THRESHOLDS

        assert thresholds.dcache_threshold in CANDIDATE_THRESHOLDS
        assert thresholds.icache_threshold in CANDIDATE_THRESHOLDS
        assert thresholds.benchmark == "gcc"
