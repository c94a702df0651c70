"""Table 2 and §3.3: OS strings, stratum 16, and compile years.

Paper: the version-responding population at large is cisco-dominated
(48%/31%/19% cisco/unix/linux); monlist amplifiers are linux-dominated
(80%); mega amplifiers split linux/junos (44%/36%) with cygwin appearing
only there.  19% of version responders report stratum 16 (unsynchronized);
only 21% of builds were compiled in 2013-14 and 13% predate 2004.
"""

from repro.analysis import parse_version_samples
from repro.reporting import render_table2


def build_reports(world):
    report = parse_version_samples(world.onp.version_samples)
    hosts = world.hosts
    amplifier_ips = set(hosts.ip[hosts.monlist_amplifier].tolist())
    mega_ips = set(hosts.ip[hosts.is_mega].tolist())
    return (
        report,
        report.restrict_to(amplifier_ips),
        report.restrict_to(mega_ips),
        report.restrict_to(set(report.ip.tolist()) - amplifier_ips),
    )


def test_table2_os_strings(benchmark, world):
    full, amplifiers, mega, non_amplifiers = benchmark(build_reports, world)

    # Non-amplifier (general) population: cisco-led, as in the right column.
    general = non_amplifiers.os_distribution()
    assert general.get("cisco", 0) > 0.35
    assert general.get("unix", 0) > 0.2

    # Amplifier subset: linux-dominated (middle column).
    amp_dist = amplifiers.os_distribution()
    assert amp_dist.get("linux", 0) > 0.5
    assert amp_dist.get("cisco", 0) < 0.1

    # Mega subset: linux + junos lead; cygwin exists only here.
    if len(mega) >= 5:
        mega_dist = mega.os_distribution()
        assert mega_dist.get("linux", 0) + mega_dist.get("junos", 0) > 0.4
        assert general.get("cygwin", 0) == 0.0

    # §3.3 extras.
    assert 0.12 < full.stratum16_fraction() < 0.27  # paper: 19%
    cdf = full.compile_year_cdf()
    assert 0.05 < cdf[2004] < 0.22  # paper: 13% pre-2004
    assert 0.45 < cdf[2012] < 0.72  # paper: 59% pre-2012

    print()
    print(
        render_table2(
            mega.os_distribution() if len(mega) else {},
            amp_dist,
            general,
        )
    )
    print(f"stratum16={full.stratum16_fraction():.2f}  year CDF={ {k: round(v, 2) for k, v in cdf.items()} }")
