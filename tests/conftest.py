"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.cache.energy_accounting import EnergyLedger
from repro.circuits.cacti import CacheOrganization, cache_organization
from repro.circuits.technology import get_technology
from repro.sim import PolicySpec, SimulationConfig, default_engine


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Point the on-disk trace cache at a per-session scratch directory.

    Keeps the suite from reading (or polluting) the developer's real
    ``~/.cache/repro/traces``; the environment variable is set too so
    subprocess-spawning tests inherit the isolation.
    """
    from repro.sim import fastpath

    path = tmp_path_factory.mktemp("trace-cache")
    os.environ[fastpath._DISK_CACHE_ENV] = str(path)
    fastpath.set_trace_cache_dir(path)
    yield


@pytest.fixture(scope="session")
def tech70():
    """The 70nm technology node."""
    return get_technology(70)


@pytest.fixture(scope="session")
def tech180():
    """The 180nm technology node."""
    return get_technology(180)


@pytest.fixture(scope="session")
def l1_org() -> CacheOrganization:
    """The paper's base L1 organisation: 32KB, 2-way, 32B lines, 1KB subarrays."""
    return cache_organization(70, 32 * 1024, 32, 2, 1024, ports=2)


@pytest.fixture()
def ledger(l1_org) -> EnergyLedger:
    """A fresh energy ledger for the base L1 organisation."""
    return EnergyLedger(l1_org.subarray, l1_org.n_subarrays)


def make_attached(policy, org=None):
    """Attach a policy to an organisation with a fresh ledger; returns (policy, ledger)."""
    org = org or cache_organization(70, 32 * 1024, 32, 2, 1024, ports=2)
    ledger = EnergyLedger(org.subarray, org.n_subarrays)
    policy.attach(org, ledger)
    return policy, ledger


@pytest.fixture(scope="session")
def small_baseline_run():
    """A short static-pull-up run of gcc shared by integration-style tests."""
    config = SimulationConfig(
        benchmark="gcc",
        dcache=PolicySpec("static"),
        icache=PolicySpec("static"),
        feature_size_nm=70,
        n_instructions=6_000,
    )
    return default_engine().run(config)


@pytest.fixture(scope="session")
def small_gated_run():
    """A short gated-precharging run of gcc shared by integration-style tests."""
    config = SimulationConfig(
        benchmark="gcc",
        dcache=PolicySpec("gated-predecode"),
        icache=PolicySpec("gated"),
        feature_size_nm=70,
        n_instructions=6_000,
    )
    return default_engine().run(config)
