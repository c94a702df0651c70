#!/usr/bin/env python
"""Victim watch: who gets attacked, where, and on which ports (§4).

Builds a small world and works the victimology pipeline end-to-end,
printing the Table-4 port mix, the Figure-5 AS concentration, the OVH-like
campaign (§4.4), and the regional-ISP view of the same attacks (§7).

Usage::

    python examples/victim_watch.py [scale]
"""

import sys

from repro import PaperWorld
from repro.analysis import (
    AnalysisContext,
    top_amplifier_table,
    top_victim_table,
    ttl_forensics,
)
from repro.reporting import render_table4, render_table5, render_table6


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.001
    world = PaperWorld.build(seed=77, scale=scale, quiet=False)
    context = AnalysisContext(world)
    report = context.victim_report()

    print("\n" + render_table4(report.port_table(top=15)))

    concentration = context.concentration()
    ovh = world.registry.special["HOSTING-FR-1"]
    cdn = world.registry.special["CDN-MITIGATION"]
    print("\n=== Figure 5: AS concentration ===")
    n = len(concentration.victim_as_packets)
    for k in (1, 5, n // 10 or 1):
        frac = concentration.victim_ecdf.fraction_within_top(k)
        print(f"  top {k:>4} victim ASes hold {100 * frac:.0f}% of attack packets")
    print(f"  OVH-like hoster rank: {concentration.victim_as_rank(ovh.asn)} (paper: 1)")
    print(f"  CDN/mitigation firm rank: {concentration.victim_as_rank(cdn.asn)} (paper: 18)")

    print("\n=== §7: the view from the regional ISPs ===")
    merit = world.isp.sites["merit"]
    print(render_table5("Merit", top_amplifier_table(merit)))
    print()
    print(render_table6("Merit", top_victim_table(merit, world.table, world.geo)))

    forensics = ttl_forensics(
        world.sweeps, world.attacks, world.hosts, world.isp.sites["csu"].spec.asns
    )
    print(
        f"\nTTL forensics at CSU: scanning mode TTL {forensics.scan_ttl_mode} (Linux), "
        f"attack mode TTL {forensics.attack_ttl_mode} (Windows bots) — paper: 54 vs 109"
    )
    common = world.isp.common_victims("merit", "frgp")
    print(f"Victims seen at both Merit and FRGP: {len(common)} (paper: 291 at full scale)")


if __name__ == "__main__":
    main()
