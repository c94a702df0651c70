"""Tests for the AS registry, routing table, geo view, and PBL."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ASRegistry,
    AutonomousSystem,
    CONTINENT_OF,
    GeoView,
    NetworkKind,
    PolicyBlockList,
    Prefix,
    RoutedBlockTable,
    aggregate_counts,
)
from repro.net.asn import CONTINENTS, DARKNET_POOL, MEASUREMENT_POOL
from repro.net.ipv4 import MAX_IPV4
from repro.net.pbl import _WORKSTATION_POOL_FRACTION
from repro.net.routing import AggregateCounts
from repro.util import RngStream
from tests.strategies import ips


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
    assert pbl.end_host_count(res_ips) == len(res_ips)
    assert pbl.end_host_count(host_ips) == 0
    assert pbl.end_host_count(res_ips + host_ips) == len(res_ips)


def test_pbl_education_split(registry):
    pbl = PolicyBlockList(registry)
    education = registry.systems_of_kind(NetworkKind.EDUCATION)
    prefix = education[0].prefixes[0]
    # Leading half of an education prefix is the dynamic (end-host) pool.
    assert pbl.is_end_host(prefix.first)
    assert not pbl.is_end_host(prefix.last)


def test_pbl_empty_fraction(registry):
    """No IPs, no end hosts (Table 1 guards its fraction on the count)."""
    assert PolicyBlockList(registry).end_host_count([]) == 0


# -- interval tables vs a brute-force scan over random address plans ----------


class _Plan:
    """A registry stand-in: the given ASes and their prefixes."""

    def __init__(self, systems):
        self._systems = systems

    def __iter__(self):
        return iter(self._systems)

    def all_prefixes(self):
        return [(prefix, system) for system in self._systems for prefix in system.prefixes]


@st.composite
def address_plans(draw):
    """Disjoint prefixes of /8 to /32 in address order, adjacent or apart,
    the first at address 0 and the last ending at 2**32 - 1, spread over a
    few ASes of drawn kinds."""
    top_length = draw(st.integers(min_value=8, max_value=32))
    top = Prefix(MAX_IPV4 + 1 - (1 << (32 - top_length)), top_length)
    prefixes, cursor = [], 0
    for length in draw(st.lists(st.integers(min_value=8, max_value=32), min_size=1, max_size=12)):
        size = 1 << (32 - length)
        if prefixes:
            cursor += draw(st.sampled_from([0, 0, 1, 300, 70_000, 1 << 24]))
        cursor = -(-cursor // size) * size
        if cursor + size > top.network:
            break
        prefixes.append(Prefix(cursor, length))
        cursor += size
    prefixes.append(top)
    n_ases = draw(st.integers(min_value=1, max_value=4))
    systems = [
        AutonomousSystem(
            asn=asn,
            name=f"AS{asn}",
            kind=draw(st.sampled_from(list(NetworkKind))),
            country="XX",
            continent=draw(st.sampled_from(CONTINENTS)),
        )
        for asn in range(n_ases)
    ]
    for prefix in prefixes:
        systems[draw(st.integers(min_value=0, max_value=n_ases - 1))].prefixes.append(prefix)
    return _Plan(systems)


def _scan(plan, ip):
    """The ``(Prefix, AutonomousSystem)`` covering ``ip``, by linear scan."""
    hits = [hit for hit in plan.all_prefixes() if hit[0].contains(ip)]
    assert len(hits) <= 1
    return hits[0] if hits else None


def _listed(plan, ip):
    """PBL membership by its definition: residential space, plus the
    leading fraction of each education and enterprise prefix."""
    hit = _scan(plan, ip)
    if hit is None:
        return False
    prefix, system = hit
    if system.kind == NetworkKind.RESIDENTIAL:
        return True
    fraction = _WORKSTATION_POOL_FRACTION.get(system.kind, 0.0)
    return ip - prefix.first < int(prefix.n_addresses * fraction)


@given(plan=address_plans(), random_ips=st.lists(ips, max_size=20))
@settings(max_examples=100, deadline=None)
def test_interval_lookups_match_a_linear_scan(plan, random_ips):
    table = RoutedBlockTable(plan)
    pbl = PolicyBlockList(plan)
    probes = list(random_ips)
    for prefix, _ in plan.all_prefixes():
        probes += [prefix.first, prefix.last, prefix.first - 1, prefix.last + 1]
    probes = [ip for ip in probes if 0 <= ip <= MAX_IPV4]
    for ip in probes:
        hit = _scan(plan, ip)
        assert table.lookup(ip) == hit
        assert table.asn_of(ip) == (hit[1].asn if hit else None)
        assert table.continent_of(ip) == (hit[1].continent if hit else None)
        assert pbl.is_end_host(ip) == _listed(plan, ip)
    hits = [hit for hit in map(lambda ip: _scan(plan, ip), set(probes)) if hit]
    assert aggregate_counts(probes, table) == AggregateCounts(
        ips=len(set(probes)),
        slash24s=len({ip & 0xFFFFFF00 for ip in probes}),
        blocks=len({prefix for prefix, _ in hits}),
        asns=len({system.asn for _, system in hits}),
    )
    assert pbl.end_host_count(probes) == sum(_listed(plan, ip) for ip in probes)


@pytest.mark.parametrize(
    "first, second",
    [
        ("10.0.0.0/8", "10.1.0.0/16"),
        ("10.0.0.0/16", "10.0.0.0/16"),
        ("10.0.0.0/24", "10.0.0.128/25"),
        ("10.0.0.0/32", "10.0.0.0/24"),  # the /24 starts at the /32's last address
    ],
)
def test_overlapping_routed_prefixes_are_refused(first, second):
    """An interval table cannot take a longest match: it names the pair."""
    systems = [
        AutonomousSystem(asn, f"AS{asn}", NetworkKind.HOSTING, "US", "NA", [Prefix.parse(text)])
        for asn, text in ((1, first), (2, second))
    ]
    with pytest.raises(ValueError, match=f"{re.escape(first)} and {re.escape(second)} overlap"):
        RoutedBlockTable(_Plan(systems))
