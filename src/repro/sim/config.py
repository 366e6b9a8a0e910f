"""Simulation configuration (Tables 1 and 2).

:class:`SimulationConfig` collects everything one run needs: the
technology node (Table 1), the processor and memory-hierarchy sizing
(Table 2), the benchmark, the precharge policies of the two L1 caches
and the unified L2, and the run length.  The precharge policies are
carried as declarative :class:`~repro.core.registry.PolicySpec` objects
resolved through the policy registry, so adding a policy never touches
this module::

    SimulationConfig(dcache=PolicySpec("gated", {"threshold": 150}))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.cache.hierarchy import HierarchyConfig
from repro.core.policies import BasePrechargePolicy
from repro.core.registry import PolicySpec
from repro.cpu.pipeline import PipelineConfig
from repro.workloads.scenarios import workload_identity

__all__ = [
    "SimulationConfig",
    "DEFAULT_INSTRUCTIONS",
]

#: Default simulated instruction count for experiments.  The paper uses
#: SimPoint regions of hundreds of millions of instructions; the synthetic
#: workloads here reach steady-state behaviour within tens of thousands.
DEFAULT_INSTRUCTIONS = 30_000


def _coerce_spec(value: Union[PolicySpec, str, Mapping[str, Any]]) -> PolicySpec:
    """Accept a spec, a bare policy name, or a ``to_dict`` mapping."""
    if isinstance(value, PolicySpec):
        return value
    if isinstance(value, str):
        return PolicySpec(value)
    if isinstance(value, Mapping):
        return PolicySpec.from_dict(value)
    raise TypeError(f"cannot interpret {value!r} as a PolicySpec")


def _default_static_spec() -> PolicySpec:
    return PolicySpec("static")


def _is_default_static(spec: PolicySpec) -> bool:
    """Whether ``spec`` canonicalises to the plain static-pull-up default.

    Used to keep memoisation and result-store keys byte-identical to the
    keys written before the L2 carried a policy: an L2 spec equivalent to
    the old implicit static pull-up contributes nothing to a key.
    """
    try:
        return spec.cache_key() == PolicySpec("static").cache_key()
    except ValueError:
        return False


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one simulated run needs.

    Attributes:
        benchmark: Benchmark, scenario (``mix:``/``phases:``) or
            ``trace:`` workload name.
        dcache: Precharge policy spec for the L1 data cache.
        icache: Precharge policy spec for the L1 instruction cache.
        feature_size_nm: Technology node (Table 1).
        subarray_bytes: L1 precharge-control granularity (1KB base).
        n_instructions: Micro-ops to simulate.
        seed: Workload seed.
        pipeline: Microarchitecture parameters (Table 2 defaults).
        l2: Precharge policy spec for the unified L2 cache (defaults to
            the conventional static pull-up the paper assumes).
        l2_subarray_bytes: L2 precharge-control granularity; ``None``
            scales the L1 granularity (at least 4KB) — see
            :meth:`~repro.cache.hierarchy.HierarchyConfig.l2_organization`.
    """

    benchmark: str = "gcc"
    dcache: PolicySpec = field(default_factory=_default_static_spec)
    icache: PolicySpec = field(default_factory=_default_static_spec)
    feature_size_nm: int = 70
    subarray_bytes: int = 1024
    n_instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = 1
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    l2: PolicySpec = field(default_factory=_default_static_spec)
    l2_subarray_bytes: Optional[int] = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "SimulationConfig":
        # Fields past the benchmark are keyword-only (``KW_ONLY`` needs
        # Python 3.10): an old positional call with thresholds where
        # n_instructions/seed now sit would run the wrong simulation.
        if len(args) > 1:
            raise TypeError(
                "SimulationConfig takes at most one positional argument "
                "(benchmark); pass the remaining fields by keyword"
            )
        return super().__new__(cls)

    def __post_init__(self) -> None:
        for level in ("dcache", "icache", "l2"):
            spec = _coerce_spec(getattr(self, level))
            spec.info()  # an unknown policy name fails here, not mid-run
            object.__setattr__(self, level, spec)

    # ------------------------------------------------------------------
    def hierarchy_config(self) -> HierarchyConfig:
        """The memory-hierarchy sizing for this run."""
        return HierarchyConfig(
            feature_size_nm=self.feature_size_nm,
            subarray_bytes=self.subarray_bytes,
            l2_subarray_bytes=self.l2_subarray_bytes,
        )

    def dcache_controller(self) -> BasePrechargePolicy:
        """Instantiate the data-cache precharge policy."""
        return self.dcache.build()

    def icache_controller(self) -> BasePrechargePolicy:
        """Instantiate the instruction-cache precharge policy."""
        return self.icache.build()

    def l2_controller(self) -> BasePrechargePolicy:
        """Instantiate the unified L2 cache's precharge policy."""
        return self.l2.build()

    def pipeline_config(self) -> PipelineConfig:
        """Pipeline configuration, with policy-declared latency folded in.

        A policy that delays *every* data-cache access by a known number
        of cycles (on-demand precharging declares
        ``scheduler_extra_latency=1`` in the registry) has that latency
        folded into the scheduler's expectations, so the deterministic
        delay does not masquerade as misspeculation.
        """
        extra = self.dcache.info().scheduler_extra_latency
        if extra and self.pipeline.speculative_extra_latency == 0:
            return replace(self.pipeline, speculative_extra_latency=extra)
        return self.pipeline

    def with_policies(
        self,
        dcache: Union[PolicySpec, str],
        icache: Union[PolicySpec, str],
        l2: Union[PolicySpec, str, None] = None,
    ) -> "SimulationConfig":
        """A copy of this configuration with different precharge policies.

        Each policy is a :class:`PolicySpec` or a bare registered name
        (its default parameters); ``l2=None`` keeps the current L2 spec.
        """
        return replace(
            self, dcache=dcache, icache=icache, l2=self.l2 if l2 is None else l2
        )

    # ------------------------------------------------------------------
    def _l2_is_default(self) -> bool:
        """Whether the L2 settings match the pre-policy-capable default."""
        return self.l2_subarray_bytes is None and _is_default_static(self.l2)

    def cache_key(self) -> Tuple:
        """Hashable memoisation key identifying this run exactly.

        Derived from the canonical policy specs, so two configs that
        build identical policies (e.g. with and without an explicit
        default threshold) share a key, and newly registered policies
        participate with no driver changes.  ``trace:`` benchmarks fold
        the trace file's identity (path, mtime, size) in, so a
        re-recorded file is never served a stale memoised result;
        scenario and ``fuzz:`` benchmarks fold their canonical
        expression in, so equivalent spellings share one memo entry.

        A default L2 (static pull-up, derived subarray size) contributes
        nothing, keeping keys identical to the ones produced before the
        L2 carried a policy; a non-default L2 appends its canonical spec
        and granularity.
        """
        identity = workload_identity(self.benchmark)
        if identity is not None and identity[0] == "scenario":
            # Key on the canonical expression instead of the literal
            # spelling, so `MIX: GCC + McF` and `mix:gcc+mcf@2000`
            # share one memo entry.
            benchmark = identity[1]
        else:
            benchmark = self.benchmark
        key = (
            benchmark,
            self.dcache.cache_key(),
            self.icache.cache_key(),
            self.feature_size_nm,
            self.subarray_bytes,
            self.n_instructions,
            self.seed,
            self.pipeline,
            identity,
        )
        if not self._l2_is_default():
            key += (self.l2.cache_key(), self.l2_subarray_bytes)
        return key

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (round-trips via :meth:`from_dict`).

        The ``l2`` / ``l2_subarray_bytes`` keys are only emitted when
        they differ from the default (static pull-up, derived subarray
        size): the round-trip stays exact, while serialised forms — and
        the result-store digests derived from them — stay byte-identical
        to the ones written before the L2 carried a policy.
        """
        data = {
            "benchmark": self.benchmark,
            "dcache": self.dcache.to_dict(),
            "icache": self.icache.to_dict(),
            "feature_size_nm": self.feature_size_nm,
            "subarray_bytes": self.subarray_bytes,
            "n_instructions": self.n_instructions,
            "seed": self.seed,
            "pipeline": self.pipeline.to_dict(),
        }
        if not self._l2_is_default():
            data["l2"] = self.l2.to_dict()
            data["l2_subarray_bytes"] = self.l2_subarray_bytes
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Payloads written before the L2 carried a policy (no ``"l2"``
        key) load with the default static L2.
        """
        l2 = data.get("l2")
        return cls(
            benchmark=data["benchmark"],
            dcache=PolicySpec.from_dict(data["dcache"]),
            icache=PolicySpec.from_dict(data["icache"]),
            feature_size_nm=data["feature_size_nm"],
            subarray_bytes=data["subarray_bytes"],
            n_instructions=data["n_instructions"],
            seed=data["seed"],
            pipeline=PipelineConfig.from_dict(data["pipeline"]),
            l2=_default_static_spec() if l2 is None else PolicySpec.from_dict(l2),
            l2_subarray_bytes=data.get("l2_subarray_bytes"),
        )
