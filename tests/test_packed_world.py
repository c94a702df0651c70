"""The packed population: hosts, client arrays and attack legs as columns.

A world crosses process and file boundaries packed: the build's host
blocks, the world cache, verify's pooled cell records and build
checkpoints.  Packing must be invisible.  Every route gives back equal
hosts with the same object sharing, attack legs and planted amplifiers
that are the pool's own objects, and the same artifact and stream
checksums as the built world.
"""

import copy
import dataclasses
import errno
import os
import pickle

import numpy as np
import pytest

import repro.scenario.cache as cache_mod
import repro.scenario.world as world_mod
from repro.attack.campaign import AttackSpec
from repro.faults import resolve_fault_profile
from repro.population.amplifiers import BackgroundClients, NtpHost, pack_hosts, unpack_hosts
from repro.scenario import PaperWorld, WorldParams
from repro.scenario.cache import (
    CacheMiss,
    build_world_cached,
    load_world,
    save_world,
    write_enveloped,
)
from repro.scenario.checkpoint import BuildCheckpoint
from repro.verify import artifact_checksums
from repro.verify.runner import Cell, _cell_task

from tests.test_build_shards import _fingerprint
from tests.test_supervision import _boom_phases

#: (seed, fault preset) of the worlds every route is checked on.
WORLDS = {"seed7-clean": (7, "clean"), "seed2014-hostile": (2014, "hostile")}
SCALE = 0.0005
TINY = WorldParams(seed=7, scale=0.0002)


def _params(name):
    seed, faults = WORLDS[name]
    return WorldParams(seed=seed, scale=SCALE, faults=resolve_fault_profile(faults))


@pytest.fixture(scope="module", params=sorted(WORLDS))
def built(request):
    """A built world and its artifact checksums (STREAM included)."""
    world = PaperWorld.build(params=_params(request.param))
    return world, artifact_checksums(world)


@pytest.fixture(scope="module")
def tiny_world():
    return PaperWorld.build(params=TINY)


# -- comparison helpers ----------------------------------------------------------------


def _sharing(objects):
    """Each object as the position of the first one that *is* it."""
    first = {}
    return [first.setdefault(id(obj), i) for i, obj in enumerate(objects)]


def assert_same_hosts(expected, actual):
    """Field for field (types included), every client array with its
    dtype, and the same sharing of ``attrs`` and ``implementations``."""
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        for f in dataclasses.fields(NtpHost):
            a, b = getattr(want, f.name), getattr(got, f.name)
            if f.name == "clients" and a is not None:
                assert isinstance(b, BackgroundClients)
                for array in dataclasses.fields(BackgroundClients):
                    x, y = getattr(a, array.name), getattr(b, array.name)
                    assert x.dtype == y.dtype and np.array_equal(x, y), array.name
            else:
                assert type(b) is type(a) and b == a, f.name
    for name in ("attrs", "implementations"):
        assert _sharing(getattr(h, name) for h in actual) == _sharing(
            getattr(h, name) for h in expected
        ), name


def assert_same_population(expected, actual):
    """Hosts as above; every attack field equal, its legs and every
    planted amplifier the pool's own host at the same position, and its
    victim the victim pool's own object."""
    assert_same_hosts(expected.hosts.hosts, actual.hosts.hosts)
    position = {id(host): i for i, host in enumerate(expected.hosts.hosts)}
    hosts = actual.hosts.hosts
    victim_position = {id(v): i for i, v in enumerate(expected.victims.victims)}
    for want, got in zip(expected.attacks, actual.attacks, strict=True):
        assert len(got.amplifiers) == len(want.amplifiers)
        for a, b in zip(want.amplifiers, got.amplifiers):
            assert b is hosts[position[id(a)]]
        assert got.victim is actual.victims.victims[victim_position[id(want.victim)]]
        assert got.amp_ips.dtype == want.amp_ips.dtype
        assert np.array_equal(got.amp_ips, want.amp_ips)
        for f in dataclasses.fields(AttackSpec):
            if f.name not in ("amplifiers", "amp_ips", "victim"):
                a, b = getattr(want, f.name), getattr(got, f.name)
                assert type(b) is type(a) and b == a, f.name
    assert actual.local_amplifiers.keys() == expected.local_amplifiers.keys()
    for name, site in expected.local_amplifiers.items():
        assert len(actual.local_amplifiers[name]) == len(site)
        for a, b in zip(site, actual.local_amplifiers[name]):
            assert b is hosts[position[id(a)]]


# -- pack_hosts / unpack_hosts ---------------------------------------------------------


def test_pack_round_trip_keeps_every_field_and_sharing(built):
    world, _ = built
    hosts = world.hosts.hosts
    unpacked = unpack_hosts(pickle.loads(pickle.dumps(pack_hosts(hosts))))
    assert_same_hosts(hosts, unpacked)
    assert not any(a is b for a, b in zip(hosts, unpacked))
    # The lists exercise every nullable field's None and the None clients.
    for name in ("restart_interval", "death", "remediation_time", "version_off_time", "clients"):
        assert any(getattr(h, name) is None for h in hosts), name
    # DHCP successors share their predecessor's attrs object, and still do.
    sharing = _sharing(h.attrs for h in hosts)
    successors = [i for i, first in enumerate(sharing) if first != i]
    assert successors
    for i in successors:
        assert unpacked[i].attrs is unpacked[sharing[i]].attrs
        assert unpacked[i].is_end_host and unpacked[i].birth > unpacked[sharing[i]].birth


def test_unpacked_clients_are_views_of_one_array(tiny_world):
    unpacked = unpack_hosts(pack_hosts(tiny_world.hosts.hosts))
    bases = {id(h.clients.ips.base) for h in unpacked if h.clients is not None and len(h.clients)}
    assert len(bases) == 1


def _bare_host(ip, clients, **fields):
    return NtpHost(
        ip=ip,
        asn=1,
        continent="EU",
        country="DE",
        is_end_host=False,
        attrs=None,
        responds_version=False,
        monlist_amplifier=False,
        implementations=frozenset(),
        base_clients=0,
        primed_full=False,
        clients=clients,
        **fields,
    )


def test_pack_edge_cases():
    """No hosts; empty and None clients; all-None columns; -0.0."""
    empty = BackgroundClients(
        ips=np.empty(0, dtype=np.int64),
        ports=np.empty(0, dtype=np.int64),
        intervals=np.empty(0),
        first_polls=np.empty(0),
        one_shot=np.empty(0, dtype=bool),
    )
    hosts = [
        _bare_host(1, None),
        _bare_host(2, empty, death=5.0),
        _bare_host(3, None, death=-0.0),
    ]
    assert unpack_hosts(pack_hosts([])) == []
    unpacked = unpack_hosts(pack_hosts(hosts))
    assert_same_hosts(hosts, unpacked)
    assert unpacked[1].clients is not None and len(unpacked[1].clients) == 0
    assert np.signbit(unpacked[2].death)


# -- the three routes a world takes ----------------------------------------------------


def _via_cache(world, tmp_path, monkeypatch):
    path = str(tmp_path / "world.pkl")
    save_world(world, path)
    return load_world(path, world.params)


def _via_world_record(world, tmp_path, monkeypatch):
    """What verify-world's pool ships back for one matrix cell."""
    cell = Cell(world.params.seed, world.params.scale, "any")
    shipped = pickle.dumps(_cell_task(([cell], lambda _: world, []), 0))
    record, _ = pickle.loads(shipped)
    return record.world


def _via_checkpoint(world, tmp_path, monkeypatch):
    """A build that died in the ONP phase, resumed from its checkpoint:
    the rest of the build runs on the unpacked pool and attacks."""
    armed = tmp_path / "armed"
    armed.touch()
    directory = str(tmp_path / "ckpt")
    monkeypatch.setattr(world_mod, "_BUILD_PHASES", _boom_phases("onp", str(armed)))
    with pytest.raises(RuntimeError, match="injected mid-build crash"):
        PaperWorld.build(params=world.params, checkpoint_dir=directory)
    armed.unlink()
    resumed = PaperWorld.build(params=world.params, checkpoint_dir=directory)
    assert resumed.checkpoint_stats["phases_loaded"][-1] == "state"
    return resumed


@pytest.mark.parametrize("route", [_via_cache, _via_world_record, _via_checkpoint])
def test_every_route_gives_back_the_built_world(built, route, tmp_path, monkeypatch):
    world, checksums = built
    loaded = route(world, tmp_path, monkeypatch)
    assert loaded is not world
    assert_same_population(world, loaded)
    assert artifact_checksums(loaded) == checksums


@pytest.mark.parametrize("crash_phase", ["hosts", "victims", "darknet", "dns"])
def test_checkpoint_resumes_after_any_phase_prefix(tiny_world, crash_phase, tmp_path, monkeypatch):
    """Checkpoints saved before the pool exists, with the pool but no
    attacks, and with both all resume to the same world."""
    armed = tmp_path / "armed"
    armed.touch()
    directory = str(tmp_path / "ckpt")
    monkeypatch.setattr(world_mod, "_BUILD_PHASES", _boom_phases(crash_phase, str(armed)))
    with pytest.raises(RuntimeError, match="injected mid-build crash"):
        PaperWorld.build(params=TINY, checkpoint_dir=directory)
    armed.unlink()
    resumed = PaperWorld.build(params=TINY, checkpoint_dir=directory)
    assert resumed.checkpoint_stats["resumed"] is True
    assert_same_population(tiny_world, resumed)
    assert _fingerprint(resumed) == _fingerprint(tiny_world)


def test_format_4_checkpoint_after_state_misses(tiny_world, tmp_path, monkeypatch):
    """A checkpoint the format-4 code saved after ``state`` holds the
    per-host state manager: it misses on its format, before its state is
    unpickled, and the build starts over to the same world."""
    import repro.scenario.checkpoint as checkpoint_mod

    armed = tmp_path / "armed"
    armed.touch()
    directory = str(tmp_path / "ckpt")
    with monkeypatch.context() as patch:
        patch.setattr(world_mod, "_BUILD_PHASES", _boom_phases("onp", str(armed)))
        patch.setattr(checkpoint_mod, "_CHECKPOINT_FORMAT", 4)
        with pytest.raises(RuntimeError, match="injected mid-build crash"):
            PaperWorld.build(params=TINY, checkpoint_dir=directory)
    armed.unlink()
    monkeypatch.setattr(checkpoint_mod, "_unpack_state", None)
    rebuilt = PaperWorld.build(params=TINY, checkpoint_dir=directory)
    stats = rebuilt.checkpoint_stats
    assert stats["resumed"] is False and stats["phases_loaded"] == []
    assert "envelope format 4" in stats["reason"]
    assert _fingerprint(rebuilt) == _fingerprint(tiny_world)


def test_shallow_copy_shares_the_population(tiny_world):
    clone = copy.copy(tiny_world)
    assert clone is not tiny_world
    assert clone.hosts is tiny_world.hosts
    assert clone.attacks is tiny_world.attacks
    assert clone.local_amplifiers is tiny_world.local_amplifiers


# -- cache files -----------------------------------------------------------------------


def test_stale_cache_is_rejected_before_the_world_loads(tiny_world, tmp_path, monkeypatch):
    path = str(tmp_path / "world.pkl")
    save_world(tiny_world, path)
    calls = []
    setstate = PaperWorld.__setstate__

    def spy(self, state):
        calls.append(1)
        setstate(self, state)

    monkeypatch.setattr(PaperWorld, "__setstate__", spy)
    with pytest.raises(CacheMiss, match="built for"):
        load_world(path, WorldParams(seed=8, scale=TINY.scale))
    assert calls == []
    assert load_world(path, TINY).params == TINY
    assert calls == [1]
    # A format-3 file (a world with its state manager and prefix tries)
    # misses with a note, before its world is unpickled.
    old = str(tmp_path / "format3.pkl")
    write_enveloped(old, cache_mod._WORLD_LAYOUT, 3, TINY, tiny_world)
    with pytest.raises(CacheMiss, match="envelope format 3"):
        load_world(old, TINY)
    assert calls == [1]


class _UnpickleSentinel:
    """Stands in for a world or build state and records every unpickling
    (pickle hands a loaded instance its state through ``__setstate__``)."""

    loads = []

    def __init__(self):
        self.payload = "world or state"

    def __setstate__(self, state):
        _UnpickleSentinel.loads.append(state)
        self.__dict__.update(state)


@pytest.mark.parametrize("kind", ["cache", "checkpoint"])
def test_one_pickle_file_misses_without_unpickling(kind, tmp_path, monkeypatch):
    """A file in the one-pickle layout older releases wrote (envelope and
    payload in one dict) misses on its first bytes, never unpickling the
    payload, and the note names the layout it found."""
    from repro import __version__

    monkeypatch.setattr(_UnpickleSentinel, "loads", [])
    checkpoint = BuildCheckpoint(str(tmp_path), TINY)
    path = checkpoint.path if kind == "checkpoint" else str(tmp_path / "world.pkl")
    old_file = {
        "format": 1,
        "version": __version__,
        "params": TINY,
        "phases": ["registry"],
        "state" if kind == "checkpoint" else "world": _UnpickleSentinel(),
    }
    with open(path, "wb") as handle:
        pickle.dump(old_file, handle, protocol=pickle.HIGHEST_PROTOCOL)
    if kind == "cache":
        with pytest.raises(CacheMiss, match="bare pickle with no layout prefix"):
            load_world(path, TINY)
    else:
        assert checkpoint.load() is None
        assert "bare pickle with no layout prefix" in checkpoint.stats["reason"]
    assert _UnpickleSentinel.loads == []


def _fail_dump(monkeypatch, error):
    """``pickle.dump`` that writes 7 KB, then raises ``error``."""

    def dump(obj, handle, protocol=None):
        handle.write(b"\0" * 7 * 1024)
        raise error

    monkeypatch.setattr(pickle, "dump", dump)


def test_failed_cache_save_leaves_no_partial_file(tiny_world, tmp_path, monkeypatch):
    path = tmp_path / "world.pkl"
    save_world(tiny_world, str(path))
    before = path.read_bytes()
    _fail_dump(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
    with pytest.raises(OSError):
        save_world(tiny_world, str(path))
    assert os.listdir(tmp_path) == ["world.pkl"]
    assert path.read_bytes() == before
    # The keyed cache reports the failed save and carries on.
    keyed = tmp_path / "keyed"
    notes = []
    world = build_world_cached(TINY, cache_dir=str(keyed), note=notes.append)
    assert world.params == TINY
    assert os.listdir(keyed) == []
    assert "could not write world cache" in notes[-1]


def test_failed_checkpoint_save_leaves_no_temp_file(tmp_path, monkeypatch):
    ckpt = BuildCheckpoint(str(tmp_path), TINY)
    _fail_dump(monkeypatch, OSError(errno.ENOSPC, "No space left on device"))
    assert ckpt.save(["registry"], {"timings": {}}) is False
    assert os.listdir(tmp_path) == []
    _fail_dump(monkeypatch, pickle.PicklingError("cannot pickle"))
    with pytest.raises(pickle.PicklingError):
        ckpt.save(["registry"], {"timings": {}})
    assert os.listdir(tmp_path) == []
    assert ckpt.stats["saves"] == 0 and ckpt.stats["save_errors"] == 1
