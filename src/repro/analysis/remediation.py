"""Remediation analyses (§3.1's Figure 3, §6's subgroup rates and Fig. 10).

Everything here consumes *observed* data — the weekly sets of responding
amplifier IPs — never the world's ground truth.
"""

from dataclasses import dataclass, field

from repro.net.routing import aggregate_counts
from repro.util.simtime import WEEK

__all__ = [
    "AmplifierCountRow",
    "amplifier_counts",
    "subset_counts",
    "SubgroupReduction",
    "subgroup_reductions",
    "continent_remediation",
    "pool_relative_to_peak",
    "overlap_with_dns",
]


@dataclass(frozen=True)
class AmplifierCountRow:
    """One Figure-3 / Table-1 (left half) row."""

    t: float
    ips: int
    slash24s: int
    blocks: int
    asns: int
    end_hosts: int
    end_host_fraction: float
    ips_per_block: float
    #: True when the week's sweep never ran — the zeros in this row are an
    #: apparatus gap, not a remediated-to-nothing pool.
    outage: bool = False


def amplifier_counts(parsed_samples, table, pbl):
    """Figure 3 / Table 1 left half: per-sample aggregation levels."""
    rows = []
    for parsed in parsed_samples:
        ips = parsed.amplifier_ips()
        agg = aggregate_counts(ips, table)
        end_hosts = pbl.end_host_count(ips)
        rows.append(
            AmplifierCountRow(
                t=parsed.t,
                ips=agg.ips,
                slash24s=agg.slash24s,
                blocks=agg.blocks,
                asns=agg.asns,
                end_hosts=end_hosts,
                end_host_fraction=end_hosts / agg.ips if agg.ips else 0.0,
                ips_per_block=agg.ips_per_block,
                outage=parsed.outage,
            )
        )
    return rows


def subset_counts(parsed_samples, prefixes):
    """Figure 3's Merit/FRGP lines: per-sample amplifier IPs inside the
    given prefixes."""
    rows = []
    for parsed in parsed_samples:
        count = sum(
            1 for ip in parsed.amplifier_ips() if any(p.contains(ip) for p in prefixes)
        )
        rows.append((parsed.t, count))
    return rows


@dataclass(frozen=True)
class SubgroupReduction:
    """§6.1's network-level reduction percentages."""

    level: str
    initial: int
    final: int

    @property
    def reduction(self):
        if self.initial == 0:
            return 0.0
        return 1.0 - self.final / self.initial


def subgroup_reductions(first_row, last_row):
    """§6.1: reduction is steepest at IP level and shallower at each
    aggregation level (IP 92% > /24 72% > routed 59% > AS 55%)."""
    return [
        SubgroupReduction("ip", first_row.ips, last_row.ips),
        SubgroupReduction("slash24", first_row.slash24s, last_row.slash24s),
        SubgroupReduction("block", first_row.blocks, last_row.blocks),
        SubgroupReduction("asn", first_row.asns, last_row.asns),
    ]


def continent_remediation(first_sample, last_sample, table):
    """§6.1's regional axis: {continent: fraction remediated}."""
    def by_continent(parsed):
        counts = {}
        for ip in parsed.amplifier_ips():
            continent = table.continent_of(ip)
            if continent is not None:
                counts[continent] = counts.get(continent, 0) + 1
        return counts

    first = by_continent(first_sample)
    last = by_continent(last_sample)
    out = {}
    for continent, initial in first.items():
        remaining = last.get(continent, 0)
        out[continent] = 1.0 - remaining / initial if initial else 0.0
    return out


def pool_relative_to_peak(series):
    """Normalize a pool-size series to its peak: [(t, fraction of peak)].

    Figure 10 plots these for the monlist, version, and DNS pools against
    weeks since each effort's publicity began.
    """
    values = [count for _, count in series]
    if not values:
        return []
    peak = max(values)
    if peak == 0:
        return [(t, 0.0) for t, _ in series]
    return [(t, count / peak) for t, count in series]


def weeks_since(series, start):
    """Re-index a [(t, value)] series to weeks since ``start``."""
    return [((t - start) / WEEK, value) for t, value in series]


def overlap_with_dns(monlist_ips, dns_overlap_ips):
    """§6.2: |monlist ∩ DNS| and the fraction of the monlist pool."""
    inter = set(monlist_ips) & set(dns_overlap_ips)
    if not monlist_ips:
        return 0, 0.0
    return len(inter), len(inter) / len(set(monlist_ips))
