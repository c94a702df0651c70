"""Tests for §7 local analyses, §5 darknet analyses, and Figure 5."""

import pytest

from repro.analysis import (
    as_concentration,
    common_scanner_timeline,
    coordination_report,
    darknet_report,
    daily_attack_counts,
    scanning_leads_attacks_by,
    top_amplifier_table,
    top_victim_table,
    ttl_forensics,
)
from repro.util import date_to_sim


def test_fig5_concentration(victim_report, world):
    report = as_concentration(victim_report, world.table)
    assert report.victim_as_packets
    assert report.amplifier_as_packets
    # Both distributions are heavily concentrated (Fig. 5).  The paper's
    # victim-vs-amplifier ordering is not asserted here: at small scale the
    # handful of (absolute-count) mega amplifiers concentrates the
    # amplifier side far beyond its full-scale shape.
    k = max(3, len(report.victim_as_packets) // 20)
    victim_top = report.victim_ecdf.fraction_within_top(k)
    assert victim_top > 0.3


def test_ovh_is_top_victim_as(victim_report, world):
    report = as_concentration(victim_report, world.table)
    ovh = world.registry.special["HOSTING-FR-1"]
    rank = report.victim_as_rank(ovh.asn)
    assert rank is not None and rank <= 8  # paper: rank 1


def test_table5_shape(world):
    merit_rows = top_amplifier_table(world.isp.sites["merit"])
    assert merit_rows
    assert merit_rows[0]["baf"] > 100  # paper: ~1000-class top amplifiers
    assert merit_rows[0]["unique_victims"] >= 1
    csu_rows = top_amplifier_table(world.isp.sites["csu"])
    assert len(csu_rows) >= 1


def test_table6_shape(world):
    rows = top_victim_table(world.isp.sites["merit"], world.table, world.geo)
    assert rows
    top = rows[0]
    assert top["gb"] > 0.1
    assert top["amplifiers"] >= 1
    assert top["country"]
    assert all(a["gb"] >= b["gb"] for a, b in zip(rows, rows[1:]))


def test_ttl_forensics(world):
    forensics = ttl_forensics(
        world.sweeps, world.attacks, world.hosts, world.isp.sites["csu"].spec.asns
    )
    assert forensics.scanners_look_linux
    assert forensics.attackers_look_windows
    assert forensics.scan_ttl_mode < forensics.attack_ttl_mode


def test_ttl_forensics_requires_data(world):
    with pytest.raises(ValueError):
        ttl_forensics([], world.attacks, world.hosts, world.isp.sites["csu"].spec.asns)


def test_common_scanner_timeline_trickle(world):
    timeline = common_scanner_timeline(world.isp)
    assert timeline
    # A trickle, not a flood (Fig. 16: single digits most days at Merit/CSU
    # after detection thresholds).
    import numpy as np

    assert np.median(list(timeline.values())) < 30


def test_coordination_report(world):
    merit = world.isp.sites["merit"]
    report = coordination_report(merit)
    assert report["victims"] == len(merit.victim_forensics)
    assert 0.0 <= report["fraction"] <= 1.0


def test_darknet_report_shapes(world):
    report = darknet_report(world.darknet)
    totals = report.monthly_totals()
    assert report.rise_factor("2013-11", "2014-02") > 4
    assert 0.3 < report.benign_fractions["2014-03"] < 0.8
    assert max(report.daily_unique_scanners.values()) > 20


def test_scanning_leads_attacks(world):
    report = darknet_report(world.darknet)
    attacks_daily = daily_attack_counts(world.attacks)
    lead = scanning_leads_attacks_by(report.daily_unique_scanners, attacks_daily)
    assert lead is not None
    assert lead >= 0  # scanning ramps first (paper: by about a week)
    assert lead < 45


def test_scanning_lead_edge_cases():
    assert scanning_leads_attacks_by({}, {1: 5}) is None
    assert scanning_leads_attacks_by({1: 5}, {}) is None
    assert scanning_leads_attacks_by({1: 0}, {1: 0}) is None
