"""Figure 10: vulnerable-pool sizes relative to peak vs weeks since
publicity, for three pools.

Paper: monlist amplifiers collapse to <10% of peak within ~10 weeks of the
OpenNTPProject's publicity; the version pool declines only ~19% over nine
weeks; open DNS resolvers barely move over a year.  §6.2: the monlist pool
overlaps the DNS-resolver pool by ~7K of 107K in the latest sample (9.2%
of aggregate uniques).
"""

from repro.analysis import overlap_with_dns, pool_relative_to_peak, weeks_since
from repro.population.dns_resolvers import DNS_PUBLICITY_START
from repro.util import date_to_sim


def build_pool_series(world, parsed_monlist):
    monlist = pool_relative_to_peak([(p.t, len(p.amplifier_ips())) for p in parsed_monlist])
    version = pool_relative_to_peak([(s.t, len(s)) for s in world.onp.version_samples])
    dns = pool_relative_to_peak(
        [(s.t, s.count) for s in world.dns_pool.weekly_series(n_weeks=60)]
    )
    return monlist, version, dns


def test_fig10_remediation_pools(benchmark, world, parsed_monlist):
    monlist, version, dns = benchmark(build_pool_series, world, parsed_monlist)

    # Monlist remediated dramatically faster than the other two pools.
    assert monlist[-1][1] < 0.20  # paper: ~8% of peak
    assert version[-1][1] > 0.70  # paper: ~81% of peak
    assert dns[-1][1] > 0.80  # paper: high and flat
    assert monlist[-1][1] < version[-1][1] < dns[-1][1] + 0.15

    # §6.2 overlap with the DNS pool.
    last_ips = parsed_monlist[-1].amplifier_ips()
    overlap_ips = world.dns_pool.overlap_with_monlist(world.hosts)
    count, fraction = overlap_with_dns(last_ips, overlap_ips)
    assert 0.02 < fraction < 0.2  # paper: ~6.5% of the latest sample

    weeks = weeks_since(monlist, date_to_sim(2014, 1, 10))
    print("\nFig10 monlist (weeks since publicity: frac of peak):")
    for w, f in weeks:
        print(f"  {w:4.1f}: {f:.3f}")
    print(f"  version final: {version[-1][1]:.2f}; dns final: {dns[-1][1]:.2f}")
    print(f"  monlist∩DNS (latest): {count} IPs = {fraction:.3f}")
