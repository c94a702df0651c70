"""Unit tests for the fault-injection layer (:mod:`repro.faults`)."""

import pytest

from repro.faults import (
    CLEAN_PROFILE,
    FAULT_PROFILES,
    HOSTILE_PROFILE,
    PAPER_PROFILE,
    FaultInjector,
    FaultProfile,
    resolve_fault_profile,
)
from repro.util import RngStream


def make_injector(profile, seed=5):
    return FaultInjector(profile, RngStream(seed, "faults-test"))


# -- profiles -----------------------------------------------------------------


def test_profile_rates_validated():
    with pytest.raises(ValueError):
        FaultProfile(onp_truncate_rate=1.5)
    with pytest.raises(ValueError):
        FaultProfile(darknet_outage_rate=-0.1)


def test_profile_cleanliness():
    assert CLEAN_PROFILE.is_clean
    assert not PAPER_PROFILE.is_clean
    assert not HOSTILE_PROFILE.is_clean
    assert CLEAN_PROFILE.nonzero_rates() == []
    assert "no faults" in CLEAN_PROFILE.describe()
    assert "onp_truncate_rate" in HOSTILE_PROFILE.describe()


def test_resolve_fault_profile():
    assert resolve_fault_profile(None) is CLEAN_PROFILE
    assert resolve_fault_profile("hostile") is HOSTILE_PROFILE
    assert resolve_fault_profile(PAPER_PROFILE) is PAPER_PROFILE
    with pytest.raises(KeyError, match="no-such"):
        resolve_fault_profile("no-such")
    assert set(FAULT_PROFILES) == {"clean", "paper", "hostile"}


# -- clean injector is a no-op ------------------------------------------------


def test_clean_injector_injects_nothing():
    injector = make_injector(CLEAN_PROFILE)
    for day in range(50):
        assert not injector.sample_outage(7, float(day))
        assert injector.sweep_cutoff(7, float(day)) is None
        assert not injector.darknet_down(day)
        assert not injector.arbor_missing(day)
    # No mangle rate, no mangler: the sweep keeps every packet as sent.
    assert injector.block_mangler(0) is None
    assert injector.log.total == 0
    assert injector.log.as_dict() == {}


# -- determinism --------------------------------------------------------------


def test_injector_decisions_deterministic():
    def run(injector):
        mangler = injector.block_mangler(0)
        decisions = []
        for day in range(200):
            decisions.append(injector.sample_outage(7, float(day)))
            decisions.append(injector.sweep_cutoff(6, float(day)))
            decisions.append(injector.darknet_down(day))
            decisions.append(injector.arbor_missing(day))
            decisions.append(mangler.mangle((bytes(range(8)) * 3, bytes(8))))
        return decisions, injector.log.as_dict(), mangler.log.as_dict()

    a = run(make_injector(HOSTILE_PROFILE, seed=9))
    b = run(make_injector(HOSTILE_PROFILE, seed=9))
    c = run(make_injector(HOSTILE_PROFILE, seed=10))
    assert a == b
    assert a != c


# -- mangle guarantees --------------------------------------------------------


def _fragments(n, size=40):
    return tuple(bytes([0x97, seq]) + bytes(size - 2) for seq in range(n))


def test_mangle_always_keeps_a_packet():
    mangler = make_injector(FaultProfile(onp_truncate_rate=1.0)).block_mangler(0)
    for n in (1, 2, 5, 12):
        out = mangler.mangle(_fragments(n))
        assert 1 <= len(out) <= n
        # Truncation is a tail cut: what survives is an exact prefix.
        assert out == _fragments(n)[: len(out)]
    assert mangler.log.get("onp.monlist.truncated_response") > 0
    assert mangler.log.get("onp.monlist.dropped_packet") > 0


def test_mangle_duplicate_and_reorder_preserve_bytes():
    mangler = make_injector(
        FaultProfile(onp_duplicate_rate=1.0, onp_reorder_rate=1.0), seed=3
    ).block_mangler(0)
    original = _fragments(6)
    out = mangler.mangle(original)
    assert len(out) == 7  # one duplicated fragment
    assert set(out) == set(original)  # no new byte strings, only copies
    assert mangler.log.get("onp.monlist.duplicated_packet") == 1
    assert mangler.log.get("onp.monlist.reordered_response") == 1


def test_mangle_corrupt_changes_exactly_one_packet():
    mangler = make_injector(FaultProfile(onp_corrupt_rate=1.0), seed=4).block_mangler(0)
    original = _fragments(4)
    out = mangler.mangle(original)
    assert len(out) == 4
    changed = [i for i, (a, b) in enumerate(zip(original, out)) if a != b]
    assert len(changed) == 1
    assert len(out[changed[0]]) == len(original[changed[0]])  # same length, flipped bits
    assert mangler.log.get("onp.monlist.corrupted_packet") == 1


# -- per-day caching ----------------------------------------------------------


def test_darknet_down_cached_and_logged_once():
    injector = make_injector(FaultProfile(darknet_outage_rate=0.5), seed=6)
    first = {day: injector.darknet_down(day) for day in range(60)}
    # Re-querying never re-draws or re-logs.
    again = {day: injector.darknet_down(day) for day in range(60)}
    assert first == again
    n_down = sum(first.values())
    assert 0 < n_down < 60
    assert injector.log.get("darknet.down_day") == n_down


# -- world integration --------------------------------------------------------


def test_world_params_carry_profile_and_default_clean():
    from repro.scenario import WorldParams

    params = WorldParams(seed=1, scale=0.001)
    assert params.faults.is_clean
    hostile = WorldParams(seed=1, scale=0.001, faults=HOSTILE_PROFILE)
    assert hostile.faults.name == "hostile"


def test_cache_key_distinguishes_fault_profiles():
    from repro.scenario import WorldParams
    from repro.scenario.cache import cache_key

    clean = cache_key(WorldParams(seed=1, scale=0.001))
    hostile = cache_key(WorldParams(seed=1, scale=0.001, faults=HOSTILE_PROFILE))
    assert clean != hostile


def test_clean_world_has_empty_fault_log(world):
    assert world.fault_log is not None
    assert world.fault_log.total == 0
