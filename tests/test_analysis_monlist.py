"""Tests for monlist-table reconstruction from raw packets."""

import pytest

from repro.analysis import reconstruct_table
from repro.analysis.event_columns import columns_for_sample
from repro.measurement.onp import ProbeCapture
from repro.ntp import MonlistTable, WireError, encode_mode3
from repro.ntp.constants import IMPL_XNTPD


def build_capture(n_clients, now=1000.0, capacity=600, n_repeats=1):
    table = MonlistTable(capacity=capacity)
    for i in range(n_clients):
        table.record(1000 + i, 123, 3, 4, now=float(i))
    packets = table.render_response_packets(now, 2, IMPL_XNTPD)
    return ProbeCapture(target_ip=42, t=now, packets=tuple(packets), n_repeats=n_repeats)


def test_reconstruct_small_table():
    capture = build_capture(4)
    table = reconstruct_table(capture)
    assert len(table) == 4
    assert table.amplifier_ip == 42
    assert not table.is_mega
    assert table.entry_size == 72
    assert {e.addr for e in table.entries} == {1000, 1001, 1002, 1003}


def test_reconstruct_multi_packet_order():
    capture = build_capture(20)
    table = reconstruct_table(capture)
    assert len(table) == 20
    assert table.n_packets_once == 4
    # MRU order preserved across packet boundaries.
    last_ints = [e.last_int for e in table.entries]
    assert last_ints == sorted(last_ints)


def test_reconstruct_mega():
    capture = build_capture(6, n_repeats=1000)
    table = reconstruct_table(capture)
    assert table.is_mega
    assert table.total_packets == 1000
    assert table.total_on_wire_bytes == 1000 * table.on_wire_bytes_once


def test_reconstruct_rejects_garbage():
    bad = ProbeCapture(target_ip=1, t=0.0, packets=(encode_mode3(),))
    with pytest.raises(WireError):
        reconstruct_table(bad)
    empty = ProbeCapture(target_ip=1, t=0.0, packets=())
    with pytest.raises(WireError):
        reconstruct_table(empty)


def test_columns_for_sample_skips_malformed(world):
    sample = world.onp.monlist_samples[0]
    (parsed,) = columns_for_sample(sample).sample_views()
    assert len(parsed) == len(sample.captures)
    assert parsed.amplifier_ips() == sample.responder_ips()


def test_world_tables_parse_cleanly(parsed_monlist, world):
    for parsed, sample in zip(parsed_monlist, world.onp.monlist_samples):
        assert len(parsed) == len(sample.captures)


def test_table_sizes_match_paper_shape(parsed_monlist):
    """Median table small, mean pulled up by a heavy tail (§4.1)."""
    import numpy as np

    sizes = [len(t) for t in parsed_monlist[0].tables]
    median = float(np.median(sizes))
    mean = float(np.mean(sizes))
    assert 2 <= median <= 12
    assert mean > 2 * median
    assert max(sizes) == 600  # capped full tables exist
