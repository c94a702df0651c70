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
from repro.scenario.world import unpack_population

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


def population(world):
    """``(pool, local, attacks)``: a world's hosts, planted amplifiers and
    attacks as objects (a finished world keeps them as columns)."""
    return unpack_population(world.hosts, world.local_amplifiers, world.attacks, world.victims)


@pytest.fixture(scope="session")
def world_population(world):
    return population(world)


@pytest.fixture
def decode_spy(monkeypatch):
    """Every sample handed to the corpus decoder, in call order.

    ``columns_for_sample`` is the only decode entry and every decode runs
    in the calling process, so the spy sees them all.
    """
    from repro.analysis import event_columns

    decode = event_columns.columns_for_sample
    seen = []

    def spy(sample):
        seen.append(sample)
        return decode(sample)

    monkeypatch.setattr(event_columns, "columns_for_sample", spy)
    return seen


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
