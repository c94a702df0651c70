"""Tests for the regional-ISP vantage points (using the shared world)."""

import numpy as np
import pytest

from repro.util import date_to_sim


def test_three_sites_exist(world):
    assert set(world.isp.sites) == {"merit", "frgp", "csu"}


def test_local_amplifiers_planted(world):
    merit = world.local_amplifiers["REGIONAL-MI"]
    frgp = world.local_amplifiers["FRGP-CO"]
    csu = world.local_amplifiers["CSU-EDU"]
    assert len(merit) == 50
    assert len(frgp) == 48
    assert len(csu) == 9


def test_csu_amplifiers_secured_jan24(world_population):
    jan24 = date_to_sim(2014, 1, 24)
    for host in world_population[1]["CSU-EDU"]:
        assert host.remediation_time == jan24
        assert not host.monlist_active(jan24 + 1)


def test_merit_ntp_egress_rises(world):
    merit = world.isp.sites["merit"]
    out = merit.hourly_mbps(merit.ntp_out)
    early = out[: 24 * 10].mean()  # early December
    feb_start = int((date_to_sim(2014, 2, 1) - merit.start) // 3600)
    feb = out[feb_start : feb_start + 24 * 10].mean()
    assert feb > 3 * max(early, 1e-9)


def test_csu_traffic_drops_after_remediation(world):
    csu = world.isp.sites["csu"]
    out = csu.hourly_mbps(csu.ntp_out)
    jan24 = int((date_to_sim(2014, 1, 24) - csu.start) // 3600)
    before = out[max(0, jan24 - 24 * 10) : jan24].mean()
    after = out[jan24 + 24 * 3 : jan24 + 24 * 13].mean()
    assert after < before


def test_frgp_scripted_spike_visible(world):
    frgp = world.isp.sites["frgp"]
    reflected = frgp.hourly_mbps(frgp.ntp_in_reflected)
    feb10 = int((date_to_sim(2014, 2, 10) - frgp.start) // 3600)
    spike_window = reflected[feb10 : feb10 + 24].max()
    # Baseline from hours outside the scripted Feb 10-12 event: with few
    # ambient reflected hours at this scale, a median over the whole
    # series would be dominated by the spike it is supposed to dwarf.
    ambient = np.concatenate([reflected[:feb10], reflected[feb10 + 72 :]])
    positive = ambient[ambient > 0]
    baseline = np.median(positive) if positive.size else 0.0
    assert spike_window > 5 * max(baseline, 1e-9)


def test_amplifier_forensics_thresholds(world):
    merit = world.isp.sites["merit"]
    for forensics in merit.qualified_amplifiers().values():
        assert forensics.bytes_sent >= 10e6
        assert forensics.baf > 5


def test_top_amplifiers_have_high_baf(world):
    merit = world.isp.sites["merit"]
    top = merit.top_amplifiers(5)
    assert top
    assert top[0].baf > 100
    assert all(a.baf >= b.baf for a, b in zip(top, top[1:]))


def test_victim_forensics_thresholds(world):
    merit = world.isp.sites["merit"]
    for victim in merit.qualified_victims().values():
        assert victim.bytes_received >= 100e3


def test_victims_seen_at_both_sites(world):
    common = world.isp.common_victims("merit", "frgp")
    assert len(common) >= 1


def test_victim_series_matches_hourly_totals(world):
    merit = world.isp.sites["merit"]
    if not merit.victim_forensics:
        pytest.skip("no merit victims in this world")
    top = merit.top_victims(1)
    if not top:
        pytest.skip("no qualified merit victims")
    series = merit.victim_series_mbps(top[0].ip)
    assert series.sum() > 0


def test_common_scanners_are_a_trickle_with_research(world):
    """Fig. 16: a trickle of common scanners per day, research among them."""
    import numpy as np

    common = world.isp.common_scanners("merit", "csu")
    research_ips = {s.scanner_ip for s in world.sweeps if s.kind == "research"}
    assert common
    research_days = sum(1 for ips in common.values() if ips & research_ips)
    assert research_days >= len(common) / 3
    assert np.median([len(ips) for ips in common.values()]) <= 25


def test_background_series_protocol_mix(world):
    from repro.util import RngStream

    merit = world.isp.sites["merit"]
    series = merit.background_series(RngStream(1, "bg").generator)
    assert set(series) == {"http", "https", "dns", "other"}
    assert series["http"].mean() > series["dns"].mean()
    total = sum(s.mean() for s in series.values())
    # 20 Gbps site at ~1.0x diurnal average, in bytes/hour.
    assert total == pytest.approx(20e9 / 8 * 3600, rel=0.2)


def test_site_is_read_compacted(world, world_population):
    """The build compacts every site once: its cells and scanner pairs are
    sorted arrays, and a late observation fails loudly instead of landing
    where no reader looks."""
    from repro.measurement.isp import IspMeasurement

    merit = world.isp.sites["merit"]
    ips, hours, volumes = merit.victim_cells()
    assert len(ips) == len(hours) == len(volumes) > 0
    keys = list(zip(ips.tolist(), hours.tolist()))
    assert keys == sorted(set(keys))
    for day in sorted(merit.scanner_days())[:5]:
        assert merit.scanners_on(day)
    assert merit.scanners_on(-1) == set()
    late = IspMeasurement(world.registry).compact()
    with pytest.raises(TypeError):
        late.observe_attacks(world_population[2])
