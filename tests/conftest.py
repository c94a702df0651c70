"""Shared fixtures and Hypothesis profiles.

One small end-to-end world is reused across test modules, and two
Hypothesis settings profiles are registered:

* ``ci`` — derandomized (deterministic shrink targets across runs) with a
  higher example budget; CI selects it with ``--hypothesis-profile=ci``;
* ``dev`` — the default: fast, randomized, no deadline flakiness.
"""

import os

import pytest
from hypothesis import settings

from repro.scenario import PaperWorld

settings.register_profile("ci", max_examples=200, derandomize=True, deadline=None)
settings.register_profile("dev", max_examples=25, deadline=None)
# The hypothesis pytest plugin's --hypothesis-profile flag (used by CI)
# overrides this load at configure time.
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: Small but structurally complete: ~1.4K initial amplifiers, ~1K victims.
WORLD_SEED = 42
WORLD_SCALE = 0.001


@pytest.fixture(scope="session")
def world():
    return PaperWorld.build(seed=WORLD_SEED, scale=WORLD_SCALE)


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
