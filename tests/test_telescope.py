"""Tests for the darknet telescopes."""

import pytest

from repro.sim.events import ScanSweep
from repro.telescope import Ipv4Darknet, Ipv6Darknet
from repro.util import RngStream, date_to_sim


def make_sweep(t, kind="research", coverage=1.0, ip=1234, duration=3600.0):
    return ScanSweep(
        t=t,
        scanner_ip=ip,
        kind=kind,
        mode=7,
        coverage=coverage,
        targets_per_second=1000.0,
        ttl=54,
        duration=duration,
    )


def test_full_sweep_hits_every_dark_address():
    darknet = Ipv4Darknet(RngStream(1, "d"))
    t = date_to_sim(2014, 1, 5)
    darknet.observe_sweep(make_sweep(t))
    monthly = darknet.monthly_packets_per_slash24()
    # A full sweep puts ~256 packets into each /24.
    assert monthly["2014-01"]["benign"] == pytest.approx(256, rel=0.05)
    assert monthly["2014-01"]["other"] == 0


def test_partial_sweep_proportional():
    darknet = Ipv4Darknet(RngStream(2, "d"))
    t = date_to_sim(2014, 1, 5)
    for _ in range(20):
        darknet.observe_sweep(make_sweep(t, kind="malicious", coverage=0.01))
    monthly = darknet.monthly_packets_per_slash24()
    assert monthly["2014-01"]["other"] == pytest.approx(20 * 0.01 * 256, rel=0.2)


def test_benign_fraction():
    darknet = Ipv4Darknet(RngStream(3, "d"))
    t = date_to_sim(2014, 1, 5)
    darknet.observe_sweep(make_sweep(t, kind="research"))
    darknet.observe_sweep(make_sweep(t, kind="malicious"))
    assert darknet.benign_fraction("2014-01") == pytest.approx(0.5, abs=0.05)
    assert darknet.benign_fraction("2019-01") == 0.0


def test_daily_unique_scanners_spanning_days():
    darknet = Ipv4Darknet(RngStream(4, "d"))
    t = date_to_sim(2014, 1, 5)
    darknet.observe_sweep(make_sweep(t, ip=1, duration=3 * 86400.0))
    darknet.observe_sweep(make_sweep(t, ip=2))
    darknet.observe_sweep(make_sweep(t, ip=2))
    daily = darknet.compact().daily_unique_scanners()
    day0 = int(t // 86400)
    assert daily[day0] == 2
    assert daily[day0 + 1] == 1  # only the long sweep persists
    days, ips = darknet.scanner_pairs()
    assert list(zip(days.tolist(), ips.tolist())) == [
        (day0, 1), (day0, 2), (day0 + 1, 1), (day0 + 2, 1), (day0 + 3, 1)
    ]


def test_observation_after_compact_raises():
    """compact() ends the observation: a late sweep fails loudly instead
    of landing where no reader looks."""
    darknet = Ipv4Darknet(RngStream(4, "d")).compact()
    assert darknet.daily_unique_scanners() == {}
    with pytest.raises(TypeError):
        darknet.observe_sweep(make_sweep(date_to_sim(2014, 1, 5)))


def test_coverage_is_deterministic_per_month():
    darknet = Ipv4Darknet(RngStream(5, "d"))
    t = date_to_sim(2014, 2, 10)
    assert darknet.effective_slash24s(t) == darknet.effective_slash24s(t + 86400)
    total = darknet.pool.n_addresses // 256
    assert 0.6 * total < darknet.effective_slash24s(t) < 0.9 * total


def test_coverage_validation():
    with pytest.raises(ValueError):
        Ipv4Darknet(RngStream(6, "d"), coverage=0.0)


def test_world_darknet_rise(world):
    """Integration: the world's darknet shows the ~10x scanning rise with
    roughly half attributable to research."""
    report_months = world.darknet.monthly_packets_per_slash24()
    totals = {m: v["benign"] + v["other"] for m, v in report_months.items()}
    assert totals["2014-02"] > 5 * totals["2013-11"]
    assert 0.3 < world.darknet.benign_fraction("2014-02") < 0.75
    assert world.darknet.benign_fraction("2013-10") > 0.75


def test_ipv6_darknet_negative_result():
    v6 = Ipv6Darknet(RngStream(7, "d6"))
    v6.simulate_window(date_to_sim(2013, 11, 1), date_to_sim(2014, 2, 1))
    monthly = v6.monthly_packets()
    assert set(monthly) == {"2013-11", "2013-12", "2014-01"}
    # A trickle of errant packets, no scanning evidence at all.
    assert all(0 <= n < 500 for n in monthly.values())
    assert v6.scanning_evidence() == {}
    with pytest.raises(ValueError):
        v6.simulate_window(10.0, 5.0)
