"""Tests for the longest-prefix-match trie."""

import pytest
from hypothesis import given, strategies as st

from repro.net import Prefix, PrefixTrie, parse_ip
from tests.strategies import ips, prefixes


def test_empty_trie():
    trie = PrefixTrie()
    assert trie.lookup(parse_ip("1.2.3.4")) is None


def test_exact_and_lpm_lookup():
    trie = PrefixTrie()
    trie.insert(Prefix.parse("10.0.0.0/8"), "eight")
    trie.insert(Prefix.parse("10.1.0.0/16"), "sixteen")
    assert trie.lookup(parse_ip("10.1.2.3")) == "sixteen"
    assert trie.lookup(parse_ip("10.2.2.3")) == "eight"
    assert trie.lookup(parse_ip("11.0.0.0")) is None


def test_insert_replaces():
    trie = PrefixTrie()
    p = Prefix.parse("10.0.0.0/8")
    trie.insert(p, 1)
    trie.insert(p, 2)
    assert trie.lookup(parse_ip("10.0.0.1")) == 2


def test_default_route():
    trie = PrefixTrie()
    trie.insert(Prefix(0, 0), "default")
    trie.insert(Prefix.parse("10.0.0.0/8"), "ten")
    assert trie.lookup(parse_ip("1.1.1.1")) == "default"
    assert trie.lookup(parse_ip("10.1.1.1")) == "ten"


def test_insert_requires_prefix():
    with pytest.raises(TypeError):
        PrefixTrie().insert("10.0.0.0/8", 1)


@given(st.lists(prefixes, min_size=1, max_size=30), ips)
def test_lpm_matches_linear_scan(prefixes, ip):
    """Property: trie LPM equals a brute-force longest-match scan."""
    trie = PrefixTrie()
    table = {}
    for p in prefixes:
        trie.insert(p, str(p))
        table[p] = str(p)
    expected = None
    best_len = -1
    for p, v in table.items():
        if p.contains(ip) and p.length > best_len:
            expected, best_len = v, p.length
    assert trie.lookup(ip) == expected
