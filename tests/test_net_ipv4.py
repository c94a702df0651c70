"""Tests for IPv4 helpers, including property-based round-trips."""

import pytest
from hypothesis import given, strategies as st

from repro.net import Prefix, format_ip, ip_in_prefix, parse_ip, slash24_of
from tests.strategies import ips


def test_parse_format_known_values():
    assert parse_ip("0.0.0.0") == 0
    assert parse_ip("255.255.255.255") == 2**32 - 1
    assert parse_ip("192.168.1.2") == 0xC0A80102
    assert format_ip(0xC0A80102) == "192.168.1.2"


@given(ips)
def test_ip_round_trip(ip):
    assert parse_ip(format_ip(ip)) == ip


def test_parse_rejects_garbage():
    for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"):
        with pytest.raises(ValueError):
            parse_ip(bad)


def test_format_rejects_out_of_range():
    with pytest.raises(ValueError):
        format_ip(2**32)
    with pytest.raises(ValueError):
        format_ip(-1)


@given(ips)
def test_slash24_clears_low_octet(ip):
    net = slash24_of(ip)
    assert net & 0xFF == 0
    assert net <= ip < net + 256


def test_prefix_parse_and_str():
    p = Prefix.parse("10.1.0.0/16")
    assert str(p) == "10.1.0.0/16"
    assert p.n_addresses == 65536
    assert p.first == parse_ip("10.1.0.0")
    assert p.last == parse_ip("10.1.255.255")


def test_prefix_normalizes_host_bits():
    p = Prefix(parse_ip("10.1.2.3"), 16)
    assert p.network == parse_ip("10.1.0.0")


def test_prefix_contains():
    p = Prefix.parse("10.1.0.0/16")
    assert p.contains(parse_ip("10.1.200.5"))
    assert not p.contains(parse_ip("10.2.0.0"))


def test_prefix_contains_prefix():
    outer = Prefix.parse("10.0.0.0/8")
    inner = Prefix.parse("10.5.0.0/16")
    assert outer.contains_prefix(inner)
    assert not inner.contains_prefix(outer)


def test_prefix_nth_and_bounds():
    p = Prefix.parse("10.1.0.0/30")
    assert p.nth(0) == p.first
    assert p.nth(3) == p.last
    with pytest.raises(IndexError):
        p.nth(4)


def test_prefix_rejects_bad_length():
    with pytest.raises(ValueError):
        Prefix(0, 33)
    with pytest.raises(ValueError):
        ip_in_prefix(0, 0, 40)


@given(ips, st.integers(min_value=0, max_value=32))
def test_prefix_membership_matches_helper(ip, length):
    p = Prefix(ip, length)
    assert p.contains(ip)
    assert ip_in_prefix(ip, p.network, length)
