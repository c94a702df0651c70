"""Tests for the monlist MRU table, including property-based invariants."""

import pytest
from hypothesis import given, settings

from repro.ntp import MONLIST_CAPACITY, MonlistTable, decode_mode7
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD, REQ_MON_GETLIST, REQ_MON_GETLIST_1
from tests.strategies import monlist_events


def test_record_and_len():
    table = MonlistTable()
    table.record(1, 123, 3, 4, now=100.0)
    table.record(2, 123, 3, 4, now=200.0)
    assert len(table) == 2
    assert 1 in table and 3 not in table


def test_record_merges_same_addr():
    table = MonlistTable()
    table.record(1, 123, 3, 4, now=100.0)
    table.record(1, 123, 3, 4, now=500.0, packets=3)
    rec = table.get(1)
    assert rec.count == 4
    assert rec.last_seen == 500.0
    assert rec.first_seen == 100.0


def test_record_span_sets_first_seen():
    table = MonlistTable()
    table.record(1, 80, 7, 2, now=1000.0, packets=100, span=40.0)
    rec = table.get(1)
    assert rec.first_seen == 960.0


def test_out_of_order_records_keep_latest():
    table = MonlistTable()
    table.record(1, 123, 3, 4, now=500.0)
    table.record(1, 123, 3, 4, now=100.0)  # late-arriving older observation
    rec = table.get(1)
    assert rec.last_seen == 500.0
    assert rec.first_seen == 100.0
    assert rec.count == 2


def test_entries_mru_order_and_intervals():
    table = MonlistTable()
    table.record(10, 123, 3, 4, now=100.0)
    table.record(20, 123, 3, 4, now=300.0)
    table.record(30, 123, 3, 4, now=200.0)
    entries = table.entries_mru(now=400.0)
    assert [e.addr for e in entries] == [20, 30, 10]
    assert entries[0].last_int == 100
    assert entries[-1].last_int == 300


def test_render_caps_at_capacity():
    table = MonlistTable(capacity=5)
    for i in range(20):
        table.record(i, 123, 3, 4, now=float(i))
    entries = table.entries_mru(now=100.0)
    assert len(entries) == 5
    assert [e.addr for e in entries] == [19, 18, 17, 16, 15]


def test_lazy_prune_bounds_memory():
    table = MonlistTable(capacity=10)
    for i in range(100):
        table.record(i, 123, 3, 4, now=float(i))
    assert table.n_tracked <= 20


def test_clear():
    table = MonlistTable()
    table.record(1, 123, 3, 4, now=1.0)
    table.clear()
    assert len(table) == 0


def test_invalid_inputs():
    table = MonlistTable()
    with pytest.raises(ValueError):
        table.record(1, 123, 3, 4, now=1.0, packets=0)
    with pytest.raises(ValueError):
        table.record(1, 123, 3, 4, now=1.0, span=-1.0)
    with pytest.raises(ValueError):
        MonlistTable(capacity=0)


def test_render_empty_table_single_packet():
    table = MonlistTable()
    packets = table.render_response_packets(0.0, 2, IMPL_XNTPD)
    assert len(packets) == 1
    pkt = decode_mode7(packets[0])
    assert pkt.n_items == 0
    assert not pkt.more


@pytest.mark.parametrize(
    "entry_version,impl,req,per_packet",
    [(2, IMPL_XNTPD, REQ_MON_GETLIST_1, 6), (1, IMPL_XNTPD_OLD, REQ_MON_GETLIST, 15)],
)
def test_render_packetization(entry_version, impl, req, per_packet):
    table = MonlistTable()
    for i in range(per_packet + 1):
        table.record(i, 123, 3, 4, now=float(i))
    packets = table.render_response_packets(100.0, entry_version, impl)
    assert len(packets) == 2
    first, last = decode_mode7(packets[0]), decode_mode7(packets[1])
    assert first.more and not last.more
    assert first.n_items == per_packet
    assert last.n_items == 1
    assert first.request_code == req
    assert first.sequence == 0 and last.sequence == 1


def test_render_full_table_v2_packet_count():
    table = MonlistTable()
    for i in range(1000):
        table.record(i, 123, 3, 4, now=float(i))
    packets = table.render_response_packets(2000.0, 2, IMPL_XNTPD)
    assert len(packets) == 100  # 600 entries / 6 per packet
    total_items = sum(decode_mode7(p).n_items for p in packets)
    assert total_items == MONLIST_CAPACITY


def test_render_rejects_unknown_version():
    with pytest.raises(ValueError):
        MonlistTable().render_response_packets(0.0, 3, IMPL_XNTPD)


def test_sequence_wraps_at_128():
    table = MonlistTable(capacity=600)
    # Enough records to need >128 v2 packets would exceed capacity, so wrap
    # is only reachable via sequence_start.
    table.record(1, 123, 3, 4, now=0.0)
    packets = table.render_response_packets(1.0, 2, IMPL_XNTPD, sequence_start=127)
    assert decode_mode7(packets[0]).sequence == 127


@settings(max_examples=50)
@given(monlist_events)
def test_mru_invariants(events):
    """Properties: render order is by recency, counts sum to events, and the
    render never exceeds capacity."""
    table = MonlistTable(capacity=25)
    latest = {}
    counts = {}
    for addr, t in events:
        table.record(addr, 123, 3, 4, now=t)
        latest[addr] = max(latest.get(addr, t), t)
        counts[addr] = counts.get(addr, 0) + 1
    now = 2e6
    entries = table.entries_mru(now)
    assert len(entries) <= 25
    # MRU order: non-increasing recency.
    last_ints = [e.last_int for e in entries]
    assert last_ints == sorted(last_ints)
    # Rendered counts match the number of events per addr (no pruning can
    # have dropped an entry that is still within the render set unless more
    # than capacity distinct addrs were recorded).
    if len(counts) <= 25:
        assert {e.addr: e.count for e in entries} == counts


@pytest.mark.parametrize("sizes", [[0], [1, 5, 6, 7], [12, 0, 13], [600, 700, 1300, 3]])
def test_batch_encode_equals_table_render(sizes):
    """One ``encode_reply_tables`` call over many tables gives each the
    bytes it renders alone: empty, partial and full packets, the 600-entry
    cap and u32 clamps, with each table's sequence numbers from 0."""
    import numpy as np

    from repro.ntp.monlist import encode_reply_tables

    rng = np.random.default_rng(sum(sizes))
    now = 2e6
    columns = {name: [] for name in ("last", "first", "count", "addr", "port", "mode", "version")}
    rendered, shown = [], []
    for size in sizes:
        table = MonlistTable(capacity=600)
        for _ in range(size):
            table.record(
                int(rng.integers(0, 2**32)),
                int(rng.integers(0, 2**16)),
                int(rng.integers(0, 8)),
                2,
                float(rng.uniform(0, 3e6)),
                packets=int(rng.integers(1, 2**34)),
                span=float(rng.uniform(0, 1e5)),
            )
        mru = sorted(table.records(), key=lambda r: r.last_seen, reverse=True)[:600]
        for record in mru:
            for name, field in (("last", "last_seen"), ("first", "first_seen"), ("count", "count"),
                                ("addr", "addr"), ("port", "port"), ("mode", "mode"), ("version", "version")):
                columns[name].append(getattr(record, field))
        shown.append(len(mru))
        rendered.append(table.render_response_packets(now, 2, IMPL_XNTPD))
    rows = {name: np.array(values, dtype=np.float64 if name in ("last", "first") else np.int64)
            for name, values in columns.items()}
    pkt_counts, pkt_lens, payload = encode_reply_tables(now, shown, rows)
    assert pkt_counts.tolist() == [len(packets) for packets in rendered]
    assert pkt_lens.tolist() == [len(p) for packets in rendered for p in packets]
    assert payload.tobytes() == b"".join(p for packets in rendered for p in packets)
