"""Equivalence guards for the world-construction fast paths.

The optimizations (NumPy liveness indexes, memoized sweep schedules,
the persistent world cache) must be invisible: the world remains a pure
function of ``(seed, WorldParams)``.  These tests pin that down three
ways — a byte-for-byte golden summary and manifest, the liveness
indexes against a naive scan, and validation of the cache envelope's
staleness rejection.
"""

import pytest

from repro.scenario import PaperWorld, WorldParams
from repro.scenario.cache import CacheMiss, load_world, save_world
from repro.util import date_to_sim

GOLDEN_SEED = 7
GOLDEN_SCALE = 0.0005

#: Recorded from the serial (``--jobs 1``) columnar implementation.  Any
#: drift here means an "optimization" changed the simulated world.  The
#: counts moved once, deliberately, when the build went columnar/blockified
#: (v2.0.0): hosts and attacks are now drawn per block / per week from
#: derived child streams, a different (still deterministic) draw order.
GOLDEN_SUMMARY = """\
PaperWorld(seed=7, scale=0.0005): 4386 host records, 500 victims, 1011 attacks, 17551 scan sweeps
NTP traffic fraction: 9.00e-06 (Nov) -> 5.90e-02 (peak 2014-02-10; paper: 1e-5 -> 1e-2 on 2014-02-11)
Amplifier pool: 709 -> 61 (91% remediated; paper: 92%)
Unique amplifier IPs: 931 (first sample 76%; paper: ~60%)
BAF: monlist median 7.8x / Q3 15.5x / max 1.6e+09x; version 4.0/4.5/5.0 (paper: 4.3/15/1e9; 3.5/4.6/6.9)
Victims observed: 157 (~314,000 full-scale-equivalent; paper: 437K), 1.76e+11 packets, undersampling 4.7x (paper: 3.8x)
Window: 2014-01-10 .. 2014-04-18 (15 weekly samples)"""


@pytest.fixture(scope="module")
def golden_world():
    return PaperWorld.build(seed=GOLDEN_SEED, scale=GOLDEN_SCALE, quiet=True)


def test_golden_summary_unchanged(golden_world):
    assert golden_world.summary() == GOLDEN_SUMMARY


def test_golden_manifest_matches_seed7(golden_world):
    """The checked-in golden manifest IS the byte-identity claim: every
    artifact rendered from the seed-7 golden world must hash to what
    MANIFEST_golden.json records."""
    from pathlib import Path

    from repro.verify import artifact_checksums, load_manifest

    recorded = load_manifest(Path(__file__).resolve().parent.parent / "MANIFEST_golden.json")
    [entry] = [w for w in recorded["worlds"] if w["seed"] == GOLDEN_SEED]
    assert entry["scale"] == GOLDEN_SCALE and entry["faults"] == "clean"
    assert artifact_checksums(golden_world) == entry["checksums"]


def test_summary_excludes_timings_by_default(golden_world):
    """Timings are wall-clock (non-deterministic) and must stay out of the
    default summary so it remains a pure function of (seed, params)."""
    assert golden_world.build_timings  # recorded by build()
    assert "Build:" not in golden_world.summary()
    assert any("Build:" in line for line in golden_world.timing_summary())
    assert "Build:" in golden_world.summary(include_timings=True)


# -- liveness indexes ----------------------------------------------------------


def test_liveness_index_matches_naive_scan(golden_world):
    """The vectorized alive-set equals a literal re-scan of host records,
    in the same (registration) order."""
    from repro.population.amplifiers import _monlist_end, _version_end
    from tests.conftest import population

    pool = population(golden_world)[0]
    for t in (date_to_sim(2014, 1, 10), date_to_sim(2014, 2, 1), date_to_sim(2014, 4, 18)):
        naive_monlist = [h for h in pool.monlist_hosts if h.birth <= t < _monlist_end(h)]
        naive_version = [h for h in pool.version_hosts if h.birth <= t < _version_end(h)]
        assert pool.monlist_alive(t) == naive_monlist
        assert pool.version_alive(t) == naive_version
        assert naive_monlist  # the probe date is inside the observed window


def test_victim_index_matches_naive_scan(golden_world):
    t = date_to_sim(2014, 2, 1)
    naive = [v for v in golden_world.victims.victims if v.active_at(t)]
    assert golden_world.victims.active_at(t) == naive
    assert naive


# -- persistent cache validation -----------------------------------------------


def test_cache_round_trip(tmp_path, golden_world):
    """A cached world is the built one: every host field and client
    array, attack legs that are the pool's own hosts, the summary and
    the stream digest."""
    from repro.verify.manifest import stream_checksum
    from tests.test_packed_world import assert_same_population

    path = tmp_path / "world.pkl"
    save_world(golden_world, str(path))
    loaded = load_world(str(path), golden_world.params)
    assert_same_population(golden_world, loaded)
    assert loaded.summary() == golden_world.summary()
    assert stream_checksum(loaded) == stream_checksum(golden_world)


def test_cache_rejects_stale_params(tmp_path, golden_world):
    path = tmp_path / "world.pkl"
    save_world(golden_world, str(path))
    with pytest.raises(CacheMiss):
        load_world(str(path), WorldParams(seed=GOLDEN_SEED + 1, scale=GOLDEN_SCALE))
    with pytest.raises(CacheMiss):
        load_world(str(path), WorldParams(seed=GOLDEN_SEED, scale=GOLDEN_SCALE * 2))


def test_cache_rejects_missing_and_corrupt(tmp_path, golden_world):
    params = golden_world.params
    with pytest.raises(CacheMiss):
        load_world(str(tmp_path / "absent.pkl"), params)
    # Two flavors of garbage: bytes that fail as an opcode stream outright,
    # and bytes that decode a few opcodes first then blow up deeper inside
    # pickle (``b"garbage\n"`` raises ValueError, not UnpicklingError).
    for junk in (b"not a pickle", b"garbage\n"):
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(junk)
        with pytest.raises(CacheMiss):
            load_world(str(corrupt), params)


def test_cache_rejects_other_package_version(tmp_path, golden_world, monkeypatch):
    """A cache written by a different repro version must miss, not load."""
    import repro.scenario.cache as cache_mod

    path = tmp_path / "world.pkl"
    monkeypatch.setattr(cache_mod, "_package_version", lambda: "0.0-other")
    save_world(golden_world, str(path))
    monkeypatch.undo()
    with pytest.raises(CacheMiss):
        load_world(str(path), golden_world.params)


def test_cache_rejects_pre_columnar_entry(tmp_path, golden_world, monkeypatch):
    """An entry written by 1.2.0 — the last pre-columnar release, whose
    world bytes differ — must miss; the 2.0.0 bump exists precisely to
    invalidate those caches."""
    import repro.scenario.cache as cache_mod

    path = tmp_path / "world.pkl"
    monkeypatch.setattr(cache_mod, "_package_version", lambda: "1.2.0")
    save_world(golden_world, str(path))
    monkeypatch.undo()
    assert cache_mod._package_version() == "2.0.0"
    with pytest.raises(CacheMiss):
        load_world(str(path), golden_world.params)


def test_cache_key_changes_with_params_and_version(monkeypatch):
    import repro.scenario.cache as cache_mod

    a = cache_mod.cache_key(WorldParams(seed=1, scale=0.001))
    b = cache_mod.cache_key(WorldParams(seed=2, scale=0.001))
    c = cache_mod.cache_key(WorldParams(seed=1, scale=0.002))
    assert len({a, b, c}) == 3
    monkeypatch.setattr(cache_mod, "_package_version", lambda: "0.0-other")
    assert cache_mod.cache_key(WorldParams(seed=1, scale=0.001)) != a
