"""Tests for the AS registry, routing table, geo view, and PBL."""

import pytest

from repro.net import (
    ASRegistry,
    CONTINENT_OF,
    GeoView,
    NetworkKind,
    PolicyBlockList,
    RoutedBlockTable,
    aggregate_counts,
)
from repro.net.asn import DARKNET_POOL, MEASUREMENT_POOL
from repro.util import RngStream


@pytest.fixture(scope="module")
def registry():
    return ASRegistry(RngStream(123, "asn-test"), n_ases=800)


@pytest.fixture(scope="module")
def table(registry):
    return RoutedBlockTable(registry)


def test_registry_size(registry):
    assert len(registry) == 800 + len(registry.special)


def test_registry_reproducible():
    a = ASRegistry(RngStream(5, "x"), n_ases=100)
    b = ASRegistry(RngStream(5, "x"), n_ases=100)
    assert [(s.asn, s.name, str(s.prefixes[0])) for s in a] == [
        (s.asn, s.name, str(s.prefixes[0])) for s in b
    ]


def test_every_as_has_prefixes(registry):
    for system in registry:
        assert system.prefixes, f"AS{system.asn} has no prefixes"
        assert system.n_addresses > 0


def test_prefixes_do_not_overlap(registry):
    prefixes = sorted((p for p, _ in registry.all_prefixes()), key=lambda p: p.network)
    for a, b in zip(prefixes, prefixes[1:]):
        assert a.last < b.network, f"{a} overlaps {b}"


def test_reserved_pools_untouched(registry):
    for prefix, _ in registry.all_prefixes():
        assert not DARKNET_POOL.contains_prefix(prefix)
        assert not MEASUREMENT_POOL.contains_prefix(prefix)


def test_specials_exist(registry):
    for name in ("REGIONAL-MI", "FRGP-CO", "CSU-EDU", "HOSTING-FR-1", "CDN-MITIGATION"):
        assert name in registry.special
    jp = [s for n, s in registry.special.items() if n.startswith("JP-NET-")]
    assert len(jp) == 7
    assert all(s.country == "JP" for s in jp)


def test_countries_match_continent(registry):
    for system in registry:
        assert CONTINENT_OF[system.country] == system.continent


def test_kind_mix_plausible(registry):
    kinds = {k: len(registry.systems_of_kind(k)) for k in NetworkKind}
    assert all(count > 0 for count in kinds.values())
    assert kinds[NetworkKind.TELECOM] > kinds[NetworkKind.EDUCATION]


def test_random_ip_within_as(registry):
    rng = RngStream(9, "iptest")
    for system in list(registry)[:50]:
        ip = system.random_ip(rng)
        assert any(p.contains(ip) for p in system.prefixes)


def test_routing_lookup_consistent(registry, table):
    rng = RngStream(10, "route")
    for system in list(registry)[:100]:
        ip = system.random_ip(rng)
        hit = table.lookup(ip)
        assert hit is not None
        assert hit[1].asn == system.asn
        assert table.asn_of(ip) == system.asn
        assert table.continent_of(ip) == system.continent


def test_lookup_outside_plan(table):
    assert table.lookup(DARKNET_POOL.network + 5) is None
    assert table.asn_of(DARKNET_POOL.network + 5) is None


def test_aggregate_counts(registry, table):
    rng = RngStream(11, "agg")
    systems = list(registry)[:10]
    ips = [s.random_ip(rng) for s in systems for _ in range(3)]
    counts = aggregate_counts(ips, table)
    assert counts.ips == len(set(ips))
    assert counts.asns <= 10
    assert counts.blocks >= counts.asns / 4
    assert counts.slash24s <= counts.ips
    assert counts.ips_per_block == counts.ips / counts.blocks


def test_aggregate_counts_empty(table):
    counts = aggregate_counts([], table)
    assert counts.ips == 0
    assert counts.ips_per_block == 0.0


def test_geo_view(registry, table):
    geo = GeoView(table)
    rng = RngStream(12, "geo")
    system = list(registry)[0]
    ip = system.random_ip(rng)
    assert geo.country_of(ip) == system.country
    assert geo.country_of(DARKNET_POOL.network) is None


def test_pbl_labels_residential_space(registry, table):
    pbl = PolicyBlockList(registry)
    rng = RngStream(13, "pbl")
    residential = registry.systems_of_kind(NetworkKind.RESIDENTIAL)[:20]
    hosting = registry.systems_of_kind(NetworkKind.HOSTING)[:20]
    res_ips = [s.random_ip(rng) for s in residential]
    host_ips = [s.random_ip(rng) for s in hosting]
    assert pbl.end_host_fraction(res_ips) == 1.0
    assert pbl.end_host_fraction(host_ips) == 0.0
    assert pbl.end_host_count(res_ips + host_ips) == len(res_ips)


def test_pbl_education_split(registry):
    pbl = PolicyBlockList(registry)
    education = registry.systems_of_kind(NetworkKind.EDUCATION)
    prefix = education[0].prefixes[0]
    # Leading half of an education prefix is the dynamic (end-host) pool.
    assert pbl.is_end_host(prefix.first)
    assert not pbl.is_end_host(prefix.last)


def test_pbl_empty_fraction(registry):
    assert PolicyBlockList(registry).end_host_fraction([]) == 0.0
