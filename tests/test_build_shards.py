"""Sharded-build equivalence and fork-pool gating (v2.0.0 columnar core).

The build pool must be invisible: a world built with any ``--jobs`` is
byte-identical to the serial build, because both paths run the same
fixed-block algorithm in the same block order with the same derived RNG
child streams.  These tests pin that contract at bench scale across
seeds and shard counts, the gating decisions that keep the pool off
one-CPU machines, the partitioner's invariants, and the BENCH_build
record schema (memory + shard provenance) the CI gates read.
"""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings

import repro.util.pool as pool_mod
from repro.population.amplifiers import NtpHost
from repro.population.columns import HOST_BLOCKS, PulseColumns, balanced_split
from repro.scenario import PaperWorld, WorldParams
from repro.scenario.cache import build_world_cached
from repro.util.pool import ShardRunner, fork_pool_gate

from tests.strategies import shard_partitions

BENCH_SEEDS = (7, 2014)
BENCH_SCALE = 0.0005


# -- the partitioner -----------------------------------------------------------


@given(shard_partitions)
@settings(max_examples=200)
def test_balanced_split_invariants(partition):
    n, blocks = partition
    parts = balanced_split(n, blocks)
    assert len(parts) == blocks
    assert sum(parts) == n
    assert max(parts) - min(parts) <= 1
    # Earlier blocks absorb the remainder, so sizes never increase.
    assert all(a >= b for a, b in zip(parts, parts[1:]))


def test_host_blocks_is_fixed():
    """Block count must never derive from --jobs: the per-block RNG
    streams (and so the world bytes) depend on these boundaries."""
    assert HOST_BLOCKS == 16


# -- pool gating ---------------------------------------------------------------


def test_gate_reasons(monkeypatch):
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 8)
    assert fork_pool_gate(1, 10) == (False, "jobs <= 1: serial path requested")
    assert fork_pool_gate(4, 1) == (False, "single task: nothing to parallelize")
    engaged, reason = fork_pool_gate(4, 16)
    assert engaged and reason is None


def test_gate_reason_carries_phase_name(monkeypatch):
    """Every phase's veto reads unambiguously in a multi-phase record."""
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 8)
    assert fork_pool_gate(1, 10, phase="onp") == (
        False,
        "onp: jobs <= 1: serial path requested",
    )
    assert fork_pool_gate(4, 1, phase="campaign") == (
        False,
        "campaign: single task: nothing to parallelize",
    )
    engaged, reason = fork_pool_gate(4, 16, phase="onp")
    assert engaged and reason is None


def test_gate_refuses_single_cpu(monkeypatch):
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 1)
    assert fork_pool_gate(8, 16) == (
        False,
        "single CPU available: fork pool would add overhead",
    )


def test_shard_runner_serial_and_pooled_merge_in_task_order(monkeypatch):
    def fn(ctx, i):
        return (ctx, i * i)

    serial = ShardRunner(1).map("t", fn, 3, 8)
    assert serial == [(3, i * i) for i in range(8)]

    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 8)
    runner = ShardRunner(4)
    pooled = runner.map("t", fn, 3, 8)
    assert pooled == serial
    stat = runner.stats["t"]
    assert stat["engaged"] and stat["workers"] == 4 and stat["tasks"] == 8
    assert len(stat["task_seconds"]) == 8


def test_shard_runner_propagates_worker_errors(monkeypatch):
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 8)

    def boom(ctx, i):
        if i == 5:
            raise RuntimeError("task 5 failed")
        return i

    with pytest.raises(RuntimeError, match="task 5 failed"):
        ShardRunner(4).map("t", boom, None, 8)


# -- byte-identity: sharded == serial ------------------------------------------


def _digest_value(digest, value):
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        if isinstance(value, frozenset):
            value = sorted(value)
        digest.update(repr(value).encode())


def _fingerprint(world):
    """SHA-256 over the world core by value: every ``NtpHost`` field and
    client array, every ``Victim``, every attack-leg column, and each ONP
    sample's packed capture arrays and payload blob.

    Values, not pickles: two equal worlds may share equal objects
    differently (``pack_hosts`` deduplicates by identity, and a serial
    build keeps module-level frozensets a pooled one re-creates)."""
    digest = hashlib.sha256()
    digest.update(world.summary().encode())
    for host in world.hosts.hosts:
        for field in fields(NtpHost):
            value = getattr(host, field.name)
            if field.name == "clients" and value is not None:
                for array_field in fields(value):
                    _digest_value(digest, getattr(value, array_field.name))
            else:
                _digest_value(digest, value)
    for victim in world.victims.victims:
        _digest_value(digest, victim)
    legs = PulseColumns.from_attacks(world.attacks)
    for name in PulseColumns.__slots__:
        _digest_value(digest, getattr(legs, name))
    for sample in world.onp.monlist_samples + world.onp.version_samples:
        digest.update(
            repr((sample.t, sample.mode, sample.outage, sample.coverage, len(sample))).encode()
        )
        packed = sample.packed
        if packed is not None:
            for array in (
                packed.target_ips,
                packed.n_repeats,
                packed.pkt_counts,
                packed.pkt_lens,
            ):
                digest.update(np.ascontiguousarray(array).tobytes())
            digest.update(np.asarray(packed.payload).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def many_cpus():
    """Make the gate see a multi-core box so pools engage even on the
    one-CPU CI container (fork itself works there; only the gate says no)."""
    original = pool_mod.available_cpus
    pool_mod.available_cpus = lambda: 8
    yield
    pool_mod.available_cpus = original


@pytest.fixture(scope="module")
def serial_worlds():
    return {
        seed: PaperWorld.build(seed=seed, scale=BENCH_SCALE, quiet=True, jobs=1)
        for seed in BENCH_SEEDS
    }


@pytest.mark.parametrize("jobs", [2, 4, 8])
@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_sharded_build_byte_identical_to_serial(serial_worlds, many_cpus, seed, jobs):
    sharded = PaperWorld.build(seed=seed, scale=BENCH_SCALE, quiet=True, jobs=jobs)
    for phase in ("hosts", "campaign", "onp"):
        assert sharded.shard_stats[phase]["engaged"], (phase, sharded.shard_stats[phase])
    assert _fingerprint(sharded) == _fingerprint(serial_worlds[seed])


def test_sharded_build_byte_identical_under_faults(many_cpus):
    """Fault injection must also be jobs-invariant: sweep-level draws
    (outages, coverage cutoffs) happen parent-side in chronological order,
    per-capture mangling on derived per-block streams."""
    from repro.faults import resolve_fault_profile

    profile = resolve_fault_profile("paper")
    params = WorldParams(seed=7, scale=BENCH_SCALE, faults=profile)
    serial = PaperWorld.build(params=params, quiet=True, jobs=1)
    sharded = PaperWorld.build(params=params, quiet=True, jobs=4)
    assert _fingerprint(sharded) == _fingerprint(serial)


def test_sharded_artifacts_match_serial(serial_worlds, many_cpus):
    """Every rendered artifact (F1..T6) from a jobs=4 world hashes
    identically to the serial world's render."""
    from repro.verify import artifact_checksums

    sharded = PaperWorld.build(seed=7, scale=BENCH_SCALE, quiet=True, jobs=4)
    serial_sums = artifact_checksums(serial_worlds[7])
    assert len(serial_sums) >= 22  # every registered artifact, F1.. plus T1..T6
    assert artifact_checksums(sharded) == serial_sums


def test_serial_build_ignores_cpu_gate(serial_worlds):
    """jobs=1 must never consult the pool: every phase reports the
    serial-path reason regardless of how many CPUs exist."""
    stats = serial_worlds[7].shard_stats
    for phase in ("hosts", "campaign", "onp"):
        assert not stats[phase]["engaged"]
        assert stats[phase]["reason"] == f"{phase}: jobs <= 1: serial path requested"


def test_cache_hit_across_jobs(tmp_path, monkeypatch):
    """``jobs`` is not part of the cache key: a world cached by a sharded
    build answers a serial request (and vice versa) without rebuilding."""
    monkeypatch.setattr(pool_mod, "available_cpus", lambda: 8)
    params = WorldParams(seed=7, scale=0.0002)
    notes = []
    build_world_cached(params, cache_dir=str(tmp_path), jobs=4, note=notes.append)
    assert any("cached world to" in line for line in notes)
    notes.clear()
    build_world_cached(params, cache_dir=str(tmp_path), jobs=1, note=notes.append)
    assert any("loaded cached world" in line for line in notes)
    assert not any("miss" in line for line in notes)


# -- BENCH_build record schema -------------------------------------------------


def test_bench_build_record_schema(tmp_path):
    from repro.cli import main

    out = tmp_path / "bench.json"
    rc = main(
        ["bench-build", "--seed", "7", "--scale", "0.0002", "--jobs", "2",
         "--out", str(out), "--quiet"]
    )
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["jobs"] == 2
    memory = record["memory"]
    assert set(memory) == {"peak_rss_mb", "self_mb", "children_mb", "spill_threshold_mb"}
    assert memory["peak_rss_mb"] >= memory["self_mb"] > 0
    for phase in ("hosts", "campaign", "onp"):
        shard = record["shards"][phase]
        assert {"engaged", "reason", "jobs", "workers", "tasks", "cpu_count"} <= set(shard)
        # Records carry per-task *summaries*, never per-task arrays
        # (thousands of entries at scale).
        seconds = shard["task_seconds"]
        assert set(seconds) == {"count", "p50", "p95", "max", "sum"}
        assert seconds["count"] == shard["tasks"]
        assert seconds["p50"] <= seconds["p95"] <= seconds["max"] <= seconds["sum"]
        assert isinstance(shard["task_source"], dict)
        assert sum(shard["task_source"].values()) == shard["tasks"]


def test_bench_build_scale_sweep_and_rss_tripwire(tmp_path):
    from repro.cli import main

    out = tmp_path / "sweep.json"
    rc = main(
        ["bench-build", "--seed", "7", "--scale", "0.0002,0.0003", "--jobs", "1",
         "--max-rss-mb", "1", "--out", str(out), "--quiet"]
    )
    assert rc == 1  # no build fits in 1 MB: the tripwire must fire
    record = json.loads(out.read_text())
    assert record["scales"] == [0.0002, 0.0003]
    assert "scale" not in record
    assert [run["scale"] for run in record["runs"]] == [0.0002, 0.0003]
    for run in record["runs"]:
        assert {"hosts", "total_seconds", "phases", "memory", "shards"} <= set(run)
