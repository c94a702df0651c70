"""Benchmark fixtures: one world per session, regenerated artifacts per test.

Each benchmark regenerates one of the paper's figures/tables against the
simulated world and asserts the paper's *shape* claims (who wins, rough
factors, crossovers) — absolute values are expected to differ since the
substrate is a scaled simulation, not the authors' testbed.
"""

import pytest

from repro.scenario import WorldParams

BENCH_SEED = 2014
BENCH_SCALE = 0.002


@pytest.fixture(scope="session")
def world():
    # Opt-in persistent reuse: export REPRO_WORLD_CACHE=/some/dir and the
    # built world is stored there, keyed by (params, package version) with
    # stale-key rejection — a code upgrade or different scale rebuilds
    # instead of serving yesterday's world.  Unset, this is a plain build.
    from repro.scenario.cache import build_world_cached

    return build_world_cached(WorldParams(seed=BENCH_SEED, scale=BENCH_SCALE))


@pytest.fixture(scope="session")
def analysis_context(world):
    from repro.analysis import AnalysisContext

    return AnalysisContext(world)


@pytest.fixture(scope="session")
def parsed_monlist(analysis_context):
    return analysis_context.parsed_samples()


@pytest.fixture(scope="session")
def victim_report(analysis_context):
    return analysis_context.victim_report()
