#!/usr/bin/env python
"""Quickstart: build a small paper world and reproduce the headline findings.

Runs the full pipeline — world simulation, the five measurement datasets,
and the analysis — at a small scale, then prints the study's headline
numbers next to the paper's.

Usage::

    python examples/quickstart.py [scale] [seed]

Default scale 0.001 builds in well under a minute.
"""

import sys

from repro import PaperWorld
from repro.analysis import (
    AnalysisContext,
    amplifier_counts,
    churn_report,
    peak_traffic_date,
    sample_baf_boxplot,
    version_sample_baf_boxplot,
)
from repro.util import format_sim


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.001
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 2014
    print(f"Building world (seed={seed}, scale={scale}) ...")
    world = PaperWorld.build(seed=seed, scale=scale, quiet=False)

    print("\n=== The rise and decline of NTP DDoS ===")
    daily = world.arbor.daily
    nov = max(d.ntp_fraction for d in daily[:20])
    peak = max(d.ntp_fraction for d in daily)
    print(f"NTP fraction of Internet traffic: Nov={nov:.2e}  peak={peak:.2e}")
    print(f"  (paper: ~1e-5 rising ~3 orders of magnitude to ~1e-2)")
    print(f"Peak date: {peak_traffic_date(world.arbor)}  (paper: 2014-02-11)")

    context = AnalysisContext(world)
    parsed = context.parsed_samples()
    rows = amplifier_counts(parsed, world.table, world.pbl)
    print(f"\nAmplifier pool: {rows[0].ips} -> {rows[-1].ips} "
          f"({100 * (1 - rows[-1].ips / rows[0].ips):.0f}% remediated; paper: 92%)")
    churn = churn_report(parsed)
    print(f"Unique amplifier IPs over 15 weeks: {churn.total_unique} "
          f"(first sample held {100 * churn.first_sample_share:.0f}%; paper: ~60%)")

    box = sample_baf_boxplot(parsed[0])
    vbox = version_sample_baf_boxplot(world.onp.version_samples[0])
    print(f"\nmonlist BAF (first sample): median {box.median:.1f}x, Q3 {box.q3:.1f}x, "
          f"max {box.maximum:.1e}x  (paper: ~4.3x / ~15x / up to 1e9x)")
    print(f"version BAF: {vbox.q1:.1f}/{vbox.median:.1f}/{vbox.q3:.1f} "
          f"(paper: 3.5/4.6/6.9)")

    report = context.victim_report()
    victims = report.all_victim_ips()
    packets = report.total_attack_packets()
    print(f"\nVictims observed through the monlist lens: {len(victims)} "
          f"(full-scale equivalent ~{int(len(victims) / scale):,}; paper: 437K)")
    print(f"Attack packets observed: {packets:.2e} "
          f"(~{report.total_attack_bytes() / 1e12:.1f} TB at the 420 B median packet)")
    print(f"View-window undersampling factor: {report.undersampling_factor():.1f}x (paper: 3.8x)")

    print("\nTop attacked ports:")
    for port, fraction in report.port_table(top=8):
        print(f"  {port:>6}: {fraction:.3f}")
    print("(paper: 80 and 123 on top, game ports prominent)")


if __name__ == "__main__":
    main()
