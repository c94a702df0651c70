"""Figure 16 and §7.2: common Merit/CSU scanners, plus TTL forensics.

Paper: only a trickle of scanner IPs (singles per day) is seen at both
sites, and most of those are research scanners — malicious scanning is too
slow/distributed to synchronize across two vantage points.  TTLs separate
the actors: scanning traffic modes at TTL ≈54 (Linux), spoofed attack
traffic at ≈109 (Windows botnets).
"""

import numpy as np

from repro.analysis import common_scanner_timeline, ttl_forensics


def test_fig16_common_scanners(benchmark, world):
    timeline = benchmark(common_scanner_timeline, world.isp)

    assert timeline  # some common scanners exist
    counts = list(timeline.values())
    # A trickle per day, not a flood.
    assert np.median(counts) <= 25
    # Research scanners account for a recurring share of the overlap.
    research_ips = {s.scanner_ip for s in world.sweeps if s.kind == "research"}
    common = world.isp.common_scanners("merit", "csu")
    research_days = sum(1 for ips in common.values() if ips & research_ips)
    assert research_days >= len(common) / 3

    forensics = ttl_forensics(
        world.sweeps, world.attacks, world.hosts, world.isp.sites["csu"].spec.asns
    )
    assert forensics.scanners_look_linux  # paper: mode TTL 54
    assert forensics.attackers_look_windows  # paper: mode TTL 109

    print(
        f"\nFig16: {len(timeline)} days with common scanners, median {np.median(counts):.0f}/day; "
        f"TTL modes scan={forensics.scan_ttl_mode} attack={forensics.attack_ttl_mode}"
    )
