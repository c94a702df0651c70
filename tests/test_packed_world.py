"""The packed population: hosts, client arrays and attack legs as columns.

A finished world keeps its hosts, planted amplifiers and attacks as
columns, and crosses process and file boundaries with them as they are:
the world cache, verify's pooled cell records and build checkpoints
(the build's host blocks travel as host tables too).  Packing must be
invisible.  Every route gives back equal columns and the same artifact
and stream checksums as the built world; unpacking gives back equal
hosts whose attack legs and planted amplifiers are the pool's own
objects.
"""

import copy
import dataclasses
import errno
import gc
import os
import pickle
import types

import numpy as np
import pytest

import repro.scenario.cache as cache_mod
import repro.scenario.world as world_mod
from repro.attack.campaign import AttackSpec
from repro.faults import resolve_fault_profile
from repro.population.amplifiers import BackgroundClients, HostTable, NtpHost
from repro.population.osmodel import SystemAttributes
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

from tests.conftest import population
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


def _value_sharing(values):
    """Each value as the position of the first one equal to it."""
    first = {}
    return [first.setdefault(value, i) for i, value in enumerate(values)]


def assert_same_hosts(expected, actual):
    """Host objects field for field (types included), every client array
    with its dtype, and ``attrs`` and ``implementations`` shared by
    value: hosts with equal ones share one object."""
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
        assert _sharing(getattr(h, name) for h in actual) == _value_sharing(
            getattr(h, name) for h in expected
        ), name


def _same_array(want, got, name):
    """The same dtype, shape and bytes."""
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def _assert_same_columns(expected, actual, names):
    """``names``' arrays, every None mask and every field's distinct values."""
    assert len(actual) == len(expected)
    for name in names:
        _same_array(getattr(expected, name), getattr(actual, name), name)
    assert actual.missing.keys() == expected.missing.keys()
    for name, mask in expected.missing.items():
        _same_array(mask, actual.missing[name], name)
    assert actual.values == expected.values


#: A host table's column of every field but ``clients``, and an attack
#: table's of every field but its legs (``victim`` holds victim indices).
_HOST_COLUMNS = [f.name for f in dataclasses.fields(NtpHost) if f.name != "clients"]
_ATTACK_COLUMNS = [
    f.name for f in dataclasses.fields(AttackSpec) if f.name not in ("amplifiers", "amp_ips")
]


def assert_same_population(expected, actual):
    """Two worlds' host tables, planted-amplifier rows, victims and
    attack tables, column for column: every host field and client
    array, every attack field, its victim index and its legs."""
    hosts, got = expected.hosts, actual.hosts
    _assert_same_columns(hosts, got, _HOST_COLUMNS + ["client_offsets"])
    assert got.clients.keys() == hosts.clients.keys()
    for name, array in hosts.clients.items():
        _same_array(array, got.clients[name], name)
    assert (got.params, got.block_lengths) == (hosts.params, hosts.block_lengths)
    assert actual.local_amplifiers.keys() == expected.local_amplifiers.keys()
    for name, rows in expected.local_amplifiers.items():
        _same_array(rows, actual.local_amplifiers[name], name)
    assert actual.victims.victims == expected.victims.victims
    _assert_same_columns(
        expected.attacks, actual.attacks, _ATTACK_COLUMNS + ["legs", "leg_offsets"]
    )


# -- host tables -----------------------------------------------------------------------


def test_pack_round_trip_keeps_every_field_and_sharing(built):
    world, _ = built
    hosts = population(world)[0].hosts
    table = pickle.loads(pickle.dumps(HostTable(hosts)))
    unpacked = table.unpack()
    assert_same_hosts(hosts, unpacked)
    assert not any(a is b for a, b in zip(hosts, unpacked))
    # The lists exercise every nullable field's None and the None clients.
    for name in ("restart_interval", "death", "remediation_time", "version_off_time", "clients"):
        assert any(getattr(h, name) is None for h in hosts), name
    # A DHCP successor's attrs equal its predecessor's, so they share one
    # object after unpacking, like every other pair of equal attrs.
    sharing = _sharing(h.attrs for h in unpacked)
    successors = [
        i for i, first in enumerate(sharing) if first != i and unpacked[i].birth > 0.0
    ]
    assert successors
    for i in successors:
        assert unpacked[i].attrs is unpacked[sharing[i]].attrs
        assert unpacked[i].attrs == hosts[i].attrs


def test_unpacked_clients_are_views_of_one_array(tiny_world):
    unpacked = tiny_world.hosts.unpack()
    bases = {id(h.clients.ips.base) for h in unpacked if h.clients is not None and len(h.clients)}
    assert len(bases) == 1


_ATTRS = SystemAttributes("linux", "Linux/3.2.0", "x86_64", "4.2.6p5", 2012, 2)


def _bare_host(ip, clients, **fields):
    return NtpHost(
        ip=ip,
        asn=1,
        continent="EU",
        country="DE",
        is_end_host=False,
        attrs=_ATTRS,
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
    assert HostTable([]).unpack() == []
    unpacked = HostTable(hosts).unpack()
    assert_same_hosts(hosts, unpacked)
    assert unpacked[1].clients is not None and len(unpacked[1].clients) == 0
    assert np.signbit(unpacked[2].death)


def test_unpacked_population_points_into_its_pools(tiny_world):
    """Unpacking gives attack legs and planted amplifiers that are the
    pool's own hosts and victims that are the victim pool's own, and
    packing those objects again gives back the same columns."""
    pool, local, attacks = population(tiny_world)
    hosts, victims = pool.hosts, tiny_world.victims.victims

    def rows_of(objects):
        position = {id(host): i for i, host in enumerate(hosts)}
        return [position[id(host)] for host in objects]

    legs = tiny_world.attacks.legs.tolist()
    bounds = tiny_world.attacks.leg_offsets.tolist()
    for i, attack in enumerate(attacks):
        assert attack.victim is victims[tiny_world.attacks.victim[i]]
        assert rows_of(attack.amplifiers) == legs[bounds[i] : bounds[i + 1]]
        assert attack.amplifier_ips().tolist() == [h.ip for h in attack.amplifiers]
    for name, site in local.items():
        assert rows_of(site) == tiny_world.local_amplifiers[name].tolist()
    repacked = copy.copy(tiny_world)
    repacked.hosts, repacked.local_amplifiers, repacked.attacks = world_mod.pack_population(
        pool, local, attacks, tiny_world.victims
    )
    assert_same_population(tiny_world, repacked)


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


def _old_format_checkpoint_misses(fmt, tiny_world, tmp_path, monkeypatch):
    """A checkpoint the format-``fmt`` code saved after ``state`` misses on
    its format, before its state is unpickled, and the build starts over
    to the same world."""
    import repro.scenario.checkpoint as checkpoint_mod

    armed = tmp_path / "armed"
    armed.touch()
    directory = str(tmp_path / "ckpt")
    with monkeypatch.context() as patch:
        patch.setattr(world_mod, "_BUILD_PHASES", _boom_phases("onp", str(armed)))
        patch.setattr(checkpoint_mod, "_CHECKPOINT_FORMAT", fmt)
        with pytest.raises(RuntimeError, match="injected mid-build crash"):
            PaperWorld.build(params=TINY, checkpoint_dir=directory)
    armed.unlink()
    monkeypatch.setattr(checkpoint_mod, "_unpack_state", None)
    rebuilt = PaperWorld.build(params=TINY, checkpoint_dir=directory)
    stats = rebuilt.checkpoint_stats
    assert stats["resumed"] is False and stats["phases_loaded"] == []
    assert f"envelope format {fmt}" in stats["reason"]
    assert _fingerprint(rebuilt) == _fingerprint(tiny_world)


def test_format_4_checkpoint_after_state_misses(tiny_world, tmp_path, monkeypatch):
    """Format 4 held the per-host state manager."""
    _old_format_checkpoint_misses(4, tiny_world, tmp_path, monkeypatch)


def test_format_5_checkpoint_after_state_misses(tiny_world, tmp_path, monkeypatch):
    """Format 5 held the population in the packed dict layout."""
    _old_format_checkpoint_misses(5, tiny_world, tmp_path, monkeypatch)


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

    def spy(self, state):
        calls.append(1)
        self.__dict__.update(state)

    monkeypatch.setattr(PaperWorld, "__setstate__", spy, raising=False)
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


def test_format_4_cache_file_misses_before_its_world_loads(tiny_world, tmp_path, monkeypatch):
    """A world cache file the format-4 code wrote (its population in the
    packed dict layout) misses on its envelope, with a note naming the
    format, before its world is unpickled."""
    path = str(tmp_path / "format4.pkl")
    with monkeypatch.context() as patch:
        patch.setattr(cache_mod, "_ENVELOPE_FORMAT", 4)
        save_world(tiny_world, path)
    calls = []
    monkeypatch.setattr(PaperWorld, "__setstate__", lambda *_: calls.append(1), raising=False)
    with pytest.raises(CacheMiss, match="envelope format 4"):
        load_world(path, TINY)
    assert calls == []


# -- what a finished world holds -------------------------------------------------------

#: The population as objects, which a finished world no longer holds.
_POPULATION_TYPES = {NtpHost, SystemAttributes, BackgroundClients, AttackSpec}


def _reachable_types(root):
    """The type of every object reachable from ``root`` through
    ``gc.get_referents``, not following classes, modules or functions."""
    seen, found, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.add(type(obj))
        stack.extend(gc.get_referents(obj))
    return found


def test_world_holds_no_population_objects(tiny_world, tmp_path):
    """Neither a built world nor one loaded from the cache holds a host,
    its attributes or clients, or an attack as an object, and both
    tables' arrays are read-only."""
    path = str(tmp_path / "world.pkl")
    save_world(tiny_world, path)
    for world in (tiny_world, load_world(path, TINY)):
        reachable = _reachable_types(world)
        assert PaperWorld in reachable
        assert not reachable & _POPULATION_TYPES
        for table in (world.hosts, world.attacks):
            arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
            arrays += [*table.missing.values(), *getattr(table, "clients", {}).values()]
            assert arrays and not any(array.flags.writeable for array in arrays)


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
