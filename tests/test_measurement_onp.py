"""Tests for the ONP prober and its dataset (using the shared world)."""

import pytest

from repro.measurement import MONLIST_SAMPLE_TIMES, VERSION_SAMPLE_TIMES
from repro.ntp import decode_mode6, decode_mode7
from repro.util import date_to_sim, format_sim


def test_sample_schedule():
    assert len(MONLIST_SAMPLE_TIMES) == 15
    assert len(VERSION_SAMPLE_TIMES) == 9
    assert format_sim(MONLIST_SAMPLE_TIMES[0]) == "2014-01-10"
    assert format_sim(VERSION_SAMPLE_TIMES[0]) == "2014-02-21"
    assert format_sim(MONLIST_SAMPLE_TIMES[-1]) == format_sim(VERSION_SAMPLE_TIMES[-1])


def test_monlist_sample_counts_decline(world):
    counts = [len(s) for s in world.onp.monlist_samples]
    assert len(counts) == 15
    assert counts[0] > 4 * counts[-1]  # remediation visible
    assert counts[-1] > 0


def test_version_sample_counts_stable(world):
    counts = [len(s) for s in world.onp.version_samples]
    assert len(counts) == 9
    assert counts[-1] > 0.7 * counts[0]


def test_version_pool_larger_than_monlist_pool(world):
    last_monlist = world.onp.monlist_samples[-1]
    last_version = world.onp.version_samples[-1]
    assert len(last_version) > 3 * len(last_monlist)


def test_monlist_captures_decode(world):
    sample = world.onp.monlist_samples[0]
    for capture in sample.captures[:50]:
        for raw in capture.packets:
            packet = decode_mode7(raw)
            assert packet.response
            assert packet.item_size in (0, 32, 72)


def test_version_captures_decode(world):
    sample = world.onp.version_samples[0]
    for capture in sample.captures[:50]:
        packet = decode_mode6(sample.captures[0].packets[0])
        assert packet.response
        assert b"version=" in packet.data


def test_responders_only_answer_probed_implementation(world, world_population):
    """v1-only amplifiers never appear in the (IMPL_XNTPD) monlist data."""
    from repro.ntp.constants import IMPL_XNTPD

    observed = world.onp.monlist_unique_ips()
    v1_only = {
        h.ip
        for h in world_population[0].monlist_hosts
        if not h.answers_implementation(IMPL_XNTPD)
    }
    assert not (observed & v1_only)


def test_remediated_hosts_stop_responding(world, world_population):
    t_last = world.onp.monlist_samples[-1].t
    for capture in world.onp.monlist_samples[-1].captures[:200]:
        host = next(h for h in world_population[0].monlist_hosts if h.ip == capture.target_ip)
        assert host.monlist_active(t_last)


def test_mega_replies_not_materialized(world):
    sample = world.onp.monlist_samples[0]
    megas = [c for c in sample.captures if c.n_repeats > 1]
    assert megas, "mega amplifiers should answer the first sample"
    biggest = max(megas, key=lambda c: c.total_payload_bytes)
    assert biggest.total_payload_bytes > 1e9  # a giga amplifier
    assert len(biggest.packets) <= 100  # stored once, repeated arithmetically


def test_probe_recorded_in_tables(world):
    """The ONP IP tops tables (Table 3a's first row) with weekly cadence."""
    from repro.analysis import reconstruct_table
    from repro.attack import ONP_PROBER_IP

    sample = world.onp.monlist_samples[5]
    seen = 0
    for capture in sample.captures[:100]:
        table = reconstruct_table(capture)
        entries = {e.addr: e for e in table.entries}
        if ONP_PROBER_IP in entries:
            seen += 1
            entry = entries[ONP_PROBER_IP]
            assert entry.mode == 7
            assert entry.count >= 1
    assert seen > 50
