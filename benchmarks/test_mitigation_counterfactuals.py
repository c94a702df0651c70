"""Counterfactual benchmarks: the mitigation levers the paper could only
speculate about (§6.4's notification causality, §1's BCP38 remark, §7.1's
rate limits)."""

import numpy as np

from repro.mitigation import (
    Bcp38Policy,
    apply_rate_limit,
    filter_attacks,
    notified_remediation_model,
)
from repro.util import date_to_sim


def test_counterfactual_notification(benchmark):
    """Without the CERT/operator notification campaign, the vulnerable pool
    would have been several times larger by mid-March."""

    def survival_pair():
        with_campaign = notified_remediation_model(with_campaign=True)
        without = notified_remediation_model(with_campaign=False)
        t = date_to_sim(2014, 3, 14)
        return with_campaign.curve.value_at(t), without.curve.value_at(t)

    s_with, s_without = benchmark(survival_pair)
    assert s_without > 1.5 * s_with
    print(
        f"\nCounterfactual notification: mid-March survival {s_with:.3f} (observed) vs "
        f"{s_without:.3f} (no campaign) — {s_without / s_with:.1f}x more amplifiers"
    )


def test_counterfactual_bcp38(benchmark, population):
    """SAV adoption removes attack volume proportionally: at 50% adoption,
    roughly half of the February wave never happens."""
    attacks = population[2]

    def sweep():
        results = {}
        for adoption in (0.0, 0.25, 0.5, 0.75):
            delivered, blocked = filter_attacks(attacks, Bcp38Policy(adoption))
            volume = sum(a.target_bps * a.duration for a in delivered)
            results[adoption] = (len(delivered), volume)
        return results

    results = benchmark(sweep)
    base_count, base_volume = results[0.0]
    counts = [results[a][0] for a in (0.0, 0.25, 0.5, 0.75)]
    assert counts == sorted(counts, reverse=True)
    mid_count, mid_volume = results[0.5]
    assert 0.3 < mid_count / base_count < 0.7

    print("\nCounterfactual BCP38 (adoption: attacks, volume fraction):")
    for adoption, (count, volume) in results.items():
        print(f"  {adoption:.2f}: {count:>6} attacks, {volume / base_volume:.2f} of volume")


def test_counterfactual_merit_rate_limit(benchmark, world):
    """§7.1: Merit's NTP rate limits — how much attack egress a 20 Mbps cap
    deployed at the late-December onset would have absorbed."""
    merit = world.isp.sites["merit"]
    activation = int((date_to_sim(2013, 12, 20) - merit.start) // 3600)

    result = benchmark(apply_rate_limit, merit.ntp_out, 20e6, activation)
    assert result.dropped_fraction > 0.05
    assert result.limited.max() <= 20e6 / 8 * 3600 + 1e-6 or result.activation_hour > 0
    peak_before = merit.hourly_mbps(merit.ntp_out).max()
    peak_after = merit.hourly_mbps(result.limited)[activation:].max()
    assert peak_after < peak_before

    print(
        f"\nCounterfactual rate limit: {100 * result.dropped_fraction:.0f}% of NTP egress "
        f"absorbed; peak {peak_before:.1f} -> {peak_after:.1f} MB/s"
    )
