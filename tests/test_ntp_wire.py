"""Tests for NTP wire formats: encode/decode round-trips and strictness."""

import pytest
from hypothesis import given, strategies as st

from repro.ntp import (
    IMPL_XNTPD,
    IMPL_XNTPD_OLD,
    REQ_MON_GETLIST,
    REQ_MON_GETLIST_1,
    WireError,
    decode_mode6,
    decode_mode7,
    encode_mode6_request,
    encode_mode6_response,
    encode_mode7_request,
    encode_mode7_response,
    mode_of,
)
from repro.ntp.constants import CTL_OP_READVAR, MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE
from repro.ntp.wire import MonitorEntry, decode_monitor_entries, encode_monitor_entry
from tests.strategies import entry_versions, ips, ports


def make_entry(**overrides):
    base = dict(
        last_int=10,
        first_int=1000,
        count=5,
        addr=0x01020304,
        daddr=0,
        flags=0,
        port=50000,
        mode=7,
        version=2,
        restr=0,
    )
    base.update(overrides)
    return MonitorEntry(**base)


def test_mode7_request_is_8_bytes():
    data = encode_mode7_request(IMPL_XNTPD, REQ_MON_GETLIST_1)
    assert len(data) == 8
    assert mode_of(data) == 7


def test_mode7_request_round_trip():
    data = encode_mode7_request(IMPL_XNTPD_OLD, REQ_MON_GETLIST)
    pkt = decode_mode7(data)
    assert not pkt.response
    assert pkt.implementation == IMPL_XNTPD_OLD
    assert pkt.request_code == REQ_MON_GETLIST
    assert pkt.n_items == 0


@pytest.mark.parametrize(
    "entry_version,size", [(1, MON_ENTRY_V1_SIZE), (2, MON_ENTRY_V2_SIZE)]
)
def test_entry_sizes(entry_version, size):
    assert len(encode_monitor_entry(make_entry(), entry_version)) == size


def test_entry_round_trip_v2():
    entry = make_entry()
    data = encode_monitor_entry(entry, 2)
    [decoded] = decode_monitor_entries(data, MON_ENTRY_V2_SIZE, 1)
    assert decoded == entry


def test_entry_round_trip_v1_drops_restr():
    entry = make_entry(restr=7)
    data = encode_monitor_entry(entry, 1)
    [decoded] = decode_monitor_entries(data, MON_ENTRY_V1_SIZE, 1)
    assert decoded.restr == 0
    assert decoded.count == entry.count
    assert decoded.addr == entry.addr


def test_entry_count_clamped_to_u32():
    entry = make_entry(count=2**40)
    data = encode_monitor_entry(entry, 2)
    [decoded] = decode_monitor_entries(data, MON_ENTRY_V2_SIZE, 1)
    assert decoded.count == 2**32 - 1


def test_entry_avg_interval():
    assert make_entry(last_int=0, first_int=100, count=11).avg_interval == 10.0
    assert make_entry(count=1).avg_interval == 0.0


def test_mode7_response_round_trip():
    entries = [make_entry(addr=i) for i in range(4)]
    encoded = [encode_monitor_entry(e, 2) for e in entries]
    data = encode_mode7_response(IMPL_XNTPD, REQ_MON_GETLIST_1, 3, True, encoded, MON_ENTRY_V2_SIZE)
    pkt = decode_mode7(data)
    assert pkt.response and pkt.more
    assert pkt.sequence == 3
    assert pkt.n_items == 4
    assert pkt.item_size == MON_ENTRY_V2_SIZE
    assert [e.addr for e in pkt.items] == [0, 1, 2, 3]


def test_mode7_response_rejects_bad_sequence():
    with pytest.raises(WireError):
        encode_mode7_response(IMPL_XNTPD, REQ_MON_GETLIST_1, 200, False, [], MON_ENTRY_V2_SIZE)


def test_mode7_response_rejects_size_mismatch():
    with pytest.raises(WireError):
        encode_mode7_response(
            IMPL_XNTPD, REQ_MON_GETLIST_1, 0, False, [b"\x00" * 10], MON_ENTRY_V2_SIZE
        )


def test_decode_mode7_rejects_short_and_wrong_mode():
    with pytest.raises(WireError):
        decode_mode7(b"\x07")
    with pytest.raises(WireError):
        decode_mode7(bytes([0x23]) + bytes(47))  # a 48-byte mode-3 header


def test_mode6_request_round_trip():
    data = encode_mode6_request(CTL_OP_READVAR, sequence=9)
    assert len(data) == 12
    pkt = decode_mode6(data)
    assert not pkt.response
    assert pkt.opcode == CTL_OP_READVAR
    assert pkt.sequence == 9
    assert pkt.count == 0


def test_mode6_response_round_trip():
    payload = b'version="ntpd 4.2.6"'
    data = encode_mode6_response(CTL_OP_READVAR, payload, sequence=1, more=True)
    pkt = decode_mode6(data)
    assert pkt.response and pkt.more
    assert pkt.data == payload
    assert len(data) % 4 == 0  # padded


def test_mode6_rejects_short():
    with pytest.raises(WireError):
        decode_mode6(b"\x06\x00")


def test_mode_of_empty():
    with pytest.raises(WireError):
        mode_of(b"")


@given(ips, ips, ips, ports, st.integers(min_value=0, max_value=7), entry_versions)
def test_entry_round_trip_property(last_int, first_int, count, port, mode, entry_version):
    """Property: any in-range entry survives an encode/decode round trip."""
    entry = MonitorEntry(
        last_int=last_int,
        first_int=first_int,
        count=count,
        addr=0x0A000001,
        daddr=0,
        flags=0,
        port=port,
        mode=mode,
        version=2,
    )
    size = MON_ENTRY_V1_SIZE if entry_version == 1 else MON_ENTRY_V2_SIZE
    data = encode_monitor_entry(entry, entry_version)
    [decoded] = decode_monitor_entries(data, size, 1)
    assert decoded.last_int == last_int
    assert decoded.first_int == first_int
    assert decoded.count == count
    assert decoded.port == port
    assert decoded.mode == mode
