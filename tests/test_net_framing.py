"""Tests for on-wire byte accounting (§3.2's BAF arithmetic)."""

import pytest
from hypothesis import given

from repro.net import MIN_ONWIRE_FRAME, on_wire_bytes, udp_datagram_bytes
from repro.net.framing import frame_bytes
from tests.strategies import udp_payload_sizes


def test_minimum_on_wire_is_84():
    """The paper's monlist query costs 84 bytes on the wire."""
    assert MIN_ONWIRE_FRAME == 84
    assert on_wire_bytes(0) == 84
    assert on_wire_bytes(8) == 84  # the 8-byte mode-7 request still fits


def test_on_wire_grows_beyond_minimum():
    # 64-byte frame holds 14 + 28 + payload + 4 <= 64 -> payload <= 18
    assert on_wire_bytes(18) == 84
    assert on_wire_bytes(19) == 85


def test_known_monlist_response_size():
    # One mode-7 packet with 4 v2 entries: 8 + 4*72 = 296-byte payload.
    assert on_wire_bytes(296) == 296 + 28 + 14 + 4 + 20


def test_udp_datagram_bytes():
    assert udp_datagram_bytes(0) == 28
    assert udp_datagram_bytes(100) == 128
    with pytest.raises(ValueError):
        udp_datagram_bytes(-1)


def test_frame_padding():
    assert frame_bytes(0) == 64


@given(udp_payload_sizes)
def test_on_wire_monotone_and_bounded(payload):
    cost = on_wire_bytes(payload)
    assert cost >= 84
    assert cost >= payload
    assert on_wire_bytes(payload + 1) >= cost
