"""Tests for remediation analyses (Fig. 3, Fig. 10, §6) and churn (§3.1)."""

import pytest

from repro.analysis import (
    amplifier_counts,
    churn_report,
    continent_remediation,
    overlap_with_dns,
    pool_relative_to_peak,
    subgroup_reductions,
    subset_counts,
    weeks_since,
)
from repro.population import DnsResolverPool
from repro.util import RngStream, WEEK, date_to_sim


@pytest.fixture(scope="module")
def amp_rows(parsed_monlist, world):
    return amplifier_counts(parsed_monlist, world.table, world.pbl)


def test_fifteen_rows(amp_rows):
    assert len(amp_rows) == 15


def test_ip_counts_decline_then_plateau(amp_rows):
    ips = [r.ips for r in amp_rows]
    assert ips[2] < 0.65 * ips[0]  # sharp early drop (paper: 48% by week 2)
    assert ips[-1] < 0.2 * ips[0]  # deep overall reduction (paper: 92%)
    late = ips[-4:]
    assert max(late) < 1.5 * min(late)  # plateau from mid-March


def test_aggregation_levels_ordered(amp_rows):
    for row in amp_rows:
        assert row.ips >= row.slash24s >= row.blocks >= row.asns >= 1


def test_reduction_shallower_at_higher_aggregation(amp_rows):
    reductions = {r.level: r.reduction for r in subgroup_reductions(amp_rows[0], amp_rows[-1])}
    assert reductions["ip"] > reductions["slash24"] > reductions["asn"]
    assert reductions["ip"] > 0.75
    assert reductions["asn"] < reductions["ip"]


def test_end_host_fraction_roughly_doubles(amp_rows):
    first = amp_rows[0].end_host_fraction
    last = amp_rows[-1].end_host_fraction
    assert 0.12 <= first <= 0.25
    assert last > 1.25 * first


def test_ips_per_block_declines(amp_rows):
    assert amp_rows[-1].ips_per_block < amp_rows[0].ips_per_block


def test_continent_ordering(parsed_monlist, world):
    rates = continent_remediation(parsed_monlist[0], parsed_monlist[-1], world.table)
    assert rates["NA"] > rates["SA"]
    assert rates["NA"] > 0.8
    assert 0.3 < rates["SA"] < 0.9


def test_merit_subset_counts(parsed_monlist, world):
    merit = world.registry.special["REGIONAL-MI"]
    rows = subset_counts(parsed_monlist, merit.prefixes)
    assert rows[0][1] >= 20  # most of the 50 planted amplifiers respond
    assert rows[-1][1] < rows[0][1]  # ticket-driven remediation visible


def test_pool_relative_to_peak():
    series = [(0.0, 50), (1.0, 100), (2.0, 25)]
    rel = pool_relative_to_peak(series)
    assert rel == [(0.0, 0.5), (1.0, 1.0), (2.0, 0.25)]
    assert pool_relative_to_peak([]) == []


def test_weeks_since():
    start = date_to_sim(2014, 1, 10)
    series = [(start, 1.0), (start + 2 * WEEK, 0.5)]
    rel = weeks_since(series, start)
    assert rel[0][0] == 0.0
    assert rel[1][0] == pytest.approx(2.0)


def test_fig10_monlist_falls_fastest(parsed_monlist, world):
    monlist_series = [(p.t, len(p.amplifier_ips())) for p in parsed_monlist]
    monlist_rel = pool_relative_to_peak(monlist_series)
    version_series = [(s.t, len(s)) for s in world.onp.version_samples]
    version_rel = pool_relative_to_peak(version_series)
    dns = DnsResolverPool(RngStream(4, "dns"), scale=0.001)
    dns_series = [(s.t, s.count) for s in dns.weekly_series(n_weeks=60)]
    dns_rel = pool_relative_to_peak(dns_series)
    assert monlist_rel[-1][1] < 0.2  # monlist: >80% off peak
    assert version_rel[-1][1] > 0.7  # version: mild decline (paper: 19%)
    assert dns_rel[-1][1] > 0.8  # DNS: barely moves


def test_dns_overlap(world, parsed_monlist):
    last_ips = parsed_monlist[-1].amplifier_ips()
    overlap_ips = world.dns_pool.overlap_with_monlist(world.hosts)
    count, fraction = overlap_with_dns(last_ips, overlap_ips)
    assert count >= 1
    assert 0.02 < fraction < 0.2  # paper: ~7K of 107K ≈ 6.5%
    assert overlap_with_dns(set(), overlap_ips) == (0, 0.0)


def test_churn_report(parsed_monlist):
    churn = churn_report(parsed_monlist)
    assert churn.total_unique > 0
    assert 0.5 < churn.first_sample_share < 0.92  # paper: ~60%
    assert churn.seen_once_fraction > 0.15  # paper: ~half
    assert churn.discovers_new_every_sample  # new amplifiers on every scan


def test_churn_empty():
    churn = churn_report([])
    assert churn.total_unique == 0
    assert churn.first_sample_share == 0.0
