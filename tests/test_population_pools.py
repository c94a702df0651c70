"""Tests for the host pool, victim pool, and DNS resolver pool generators."""

import pytest

from repro.net import ASRegistry, PolicyBlockList, RoutedBlockTable
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD
from repro.population.amplifiers import HostTable
from repro.population import (
    DnsResolverPool,
    PoolParams,
    VictimParams,
    build_host_pool,
    build_victim_pool,
)
from repro.util import RngStream, date_to_sim

from tests.onp_oracle import state_at

SCALE = 0.0015


@pytest.fixture(scope="module")
def world():
    rng = RngStream(777, "pool-test")
    registry = ASRegistry(rng.child("asn"), n_ases=1200)
    table = RoutedBlockTable(registry)
    pbl = PolicyBlockList(registry)
    hosts = build_host_pool(rng.child("hosts"), registry, pbl, PoolParams(scale=SCALE))
    victims = build_victim_pool(rng.child("victims"), registry, pbl, VictimParams(scale=SCALE))
    return registry, table, pbl, hosts, victims


def test_pool_sizes_scale(world):
    _, _, _, hosts, victims = world
    # Concurrent population ≈ 6M x scale (total host *records* exceed it:
    # DHCP chains create several records per logical end-host server).
    jan10 = date_to_sim(2014, 1, 10)
    assert hosts.host_count_alive(jan10) == pytest.approx(6_000_000 * SCALE, rel=0.3)
    assert len(hosts.hosts) >= hosts.host_count_alive(jan10)
    assert len(hosts.monlist_alive(jan10)) == pytest.approx(1_405_000 * SCALE, rel=0.15)
    assert len(victims) == pytest.approx(VictimParams().total_victims_full * SCALE, rel=0.25)


def test_monlist_pool_decays_like_fig3(world):
    _, _, _, hosts, _ = world
    jan = len(hosts.monlist_alive(date_to_sim(2014, 1, 10)))
    feb = len(hosts.monlist_alive(date_to_sim(2014, 2, 14)))
    apr = len(hosts.monlist_alive(date_to_sim(2014, 4, 18)))
    assert 0.10 < feb / jan < 0.26
    assert 0.04 < apr / jan < 0.16


def test_version_pool_decays_slowly(world):
    _, _, _, hosts, _ = world
    feb = len(hosts.version_alive(date_to_sim(2014, 2, 21)))
    apr = len(hosts.version_alive(date_to_sim(2014, 4, 18)))
    assert feb > 0
    assert 0.70 < apr / feb < 0.95


def test_version_pool_much_larger_than_monlist_in_april(world):
    _, _, _, hosts, _ = world
    apr = date_to_sim(2014, 4, 18)
    assert len(hosts.version_alive(apr)) > 5 * len(hosts.monlist_alive(apr))


def test_end_host_share_rises(world):
    _, _, _, hosts, _ = world
    jan = hosts.monlist_alive(date_to_sim(2014, 1, 10))
    apr = hosts.monlist_alive(date_to_sim(2014, 4, 18))
    eh_jan = sum(1 for h in jan if h.is_end_host) / len(jan)
    eh_apr = sum(1 for h in apr if h.is_end_host) / len(apr)
    assert 0.13 <= eh_jan <= 0.24
    assert eh_apr > eh_jan * 1.3


def test_end_hosts_live_in_pbl_space(world):
    _, _, pbl, hosts, _ = world
    for host in hosts.monlist_hosts[:300]:
        assert pbl.is_end_host(host.ip) == host.is_end_host


def test_churn_produces_new_unique_ips(world):
    _, _, _, hosts, _ = world
    initial = {h.ip for h in hosts.monlist_hosts if h.birth == 0.0}
    all_ips = {h.ip for h in hosts.monlist_hosts}
    assert len(all_ips) > 1.2 * len(initial)


def test_chain_windows_disjoint(world):
    """An end-host amplifier's DHCP leases must not overlap in time."""
    _, _, _, hosts, _ = world
    for host in hosts.monlist_hosts:
        if host.death is not None:
            assert host.death > host.birth


def test_implementation_mix(world):
    _, _, _, hosts, _ = world
    pool = hosts.monlist_hosts
    v2_only = sum(1 for h in pool if h.implementations == frozenset({IMPL_XNTPD}))
    v1_only = sum(1 for h in pool if h.implementations == frozenset({IMPL_XNTPD_OLD}))
    both = sum(1 for h in pool if len(h.implementations) == 2)
    assert v2_only > both > v1_only > 0


def test_mega_hosts_exist_with_heavy_loops(world):
    _, _, _, hosts, _ = world
    megas = [h for h in hosts.hosts if h.is_mega]
    assert len(megas) >= 10
    loops = sorted((h.loop_factor for h in megas), reverse=True)
    assert loops[0] >= 1_000_000  # the 136 GB-class giga amplifier
    assert all(l >= 2 for l in loops)


def test_giga_amplifiers_in_japan(world):
    registry, _, _, hosts, _ = world
    giga = [h for h in hosts.hosts if h.is_mega and h.loop_factor >= 25_000]
    assert len(giga) >= 9
    jp_asns = {registry.special[f"JP-NET-{i}"].asn for i in range(1, 8)}
    in_japan = [h for h in giga if h.asn in jp_asns]
    assert len(in_japan) >= 9
    assert all(h.country == "JP" for h in in_japan)


def test_background_clients_generated(world):
    _, _, _, hosts, _ = world
    for host in hosts.monlist_hosts[:100]:
        assert host.clients is not None
        assert len(host.clients) == host.base_clients
    rows = state_at(hosts.monlist_hosts[0].clients, date_to_sim(2014, 3, 1))
    for ip, port, count, first, last in rows:
        assert count >= 1
        assert first <= last


def test_table_sizes_heavy_tailed(world):
    _, _, _, hosts, _ = world
    sizes = [h.base_clients for h in hosts.monlist_hosts if not h.is_mega]
    sizes.sort()
    median = sizes[len(sizes) // 2]
    assert 1 <= median <= 15
    assert sizes[-1] == 600  # some primed-full tables exist


def test_pool_params_validation():
    with pytest.raises(ValueError):
        PoolParams(scale=0.0)
    with pytest.raises(ValueError):
        PoolParams(scale=1.5)


def test_victims_concentrated_in_top_ases(world):
    registry, _, _, _, victims = world
    from collections import Counter

    counts = Counter(v.asn for v in victims.victims)
    top = counts.most_common(1)[0]
    ovh = registry.special["HOSTING-FR-1"]
    assert top[0] == ovh.asn  # the OVH-like hoster is the top victim AS


def test_victims_have_ports_and_windows(world):
    _, _, _, _, victims = world
    for victim in victims.victims[:200]:
        assert victim.ports
        assert all(1 <= p <= 65535 for p in victim.ports)
        assert victim.active_until > victim.appear_time


def test_victim_sampling_prefers_popular(world):
    _, _, _, _, victims = world
    rng = RngStream(5, "sample")
    t = date_to_sim(2014, 2, 12)
    sampled = victims.sample_active(rng, t, 300)
    assert sampled
    assert all(v.active_at(t) for v in sampled)


def test_victim_sampling_empty_before_attacks(world):
    _, _, _, _, victims = world
    rng = RngStream(6, "sample2")
    assert victims.sample_active(rng, date_to_sim(2013, 10, 1), 10) == []


def test_dns_pool_series():
    rng = RngStream(9, "dns")
    pool = DnsResolverPool(rng, scale=0.001)
    series = pool.weekly_series(n_weeks=60, noisy=False)
    assert len(series) == 60
    first, last = series[0].count, series[-1].count
    assert last / first > 0.80  # barely declines (Fig. 10)
    with pytest.raises(ValueError):
        pool.weekly_series(n_weeks=0)


def test_dns_overlap_fraction(world):
    _, _, _, hosts, _ = world
    pool = DnsResolverPool(RngStream(9, "dns"), scale=0.001)
    overlap = pool.overlap_with_monlist(HostTable(hosts.hosts))
    frac = len(overlap) / len({h.ip for h in hosts.monlist_hosts})
    assert 0.05 < frac < 0.14  # §6.2: 9.2%
