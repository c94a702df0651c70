"""AS-level concentration of attack traffic (Figure 5).

For each amplifier/victim pair, attribute its packets both to the victim's
origin AS and to the amplifier's origin AS, then build the two rank-CDFs
the paper plots: the top 100 amplifier ASes source ~60% of victim packets,
and the top 100 victim ASes absorb ~75%.
"""

from dataclasses import dataclass

import numpy as np

from repro.util.stats import Ecdf, group_sums

__all__ = ["ConcentrationReport", "as_concentration"]


@dataclass
class ConcentrationReport:
    victim_as_packets: dict
    amplifier_as_packets: dict

    @property
    def victim_ecdf(self):
        return Ecdf(self.victim_as_packets.values())

    def top_victim_ases(self, n=10):
        """[(asn, packets)] sorted by packets received, descending."""
        return sorted(self.victim_as_packets.items(), key=lambda kv: kv[1], reverse=True)[:n]

    def victim_as_rank(self, asn):
        """1-based rank of an AS in the victim table, or None."""
        ordered = sorted(self.victim_as_packets.items(), key=lambda kv: kv[1], reverse=True)
        for rank, (a, _) in enumerate(ordered, start=1):
            if a == asn:
                return rank
        return None


def _as_packets(ips, packets, table):
    """{asn: packets} by group-by, keys in first-observation order.

    The AS lookup runs once per *unique* IP, as one array lookup; the
    dict is built in first-observation order, which is how ``sorted``
    ties in the rank methods above resolve.
    """
    unique_ips = np.unique(ips)
    asn_lookup = table.asns_of(unique_ips)
    asn_per_obs = asn_lookup[np.searchsorted(unique_ips, ips)]
    routed = asn_per_obs >= 0
    return group_sums(asn_per_obs[routed], packets[routed])


def as_concentration(report, table):
    """Build the Figure-5 view from a victimology report and a routing
    table (IPs outside the plan are dropped, as unrouted junk would be)."""
    parts = [(s.victim_ip, s.amplifier_ip, s.packets) for s in report.samples]
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return ConcentrationReport(victim_as_packets={}, amplifier_as_packets={})
    victims = np.concatenate([p[0] for p in parts])
    amplifiers = np.concatenate([p[1] for p in parts])
    packets = np.concatenate([p[2] for p in parts])
    return ConcentrationReport(
        victim_as_packets=_as_packets(victims, packets, table),
        amplifier_as_packets=_as_packets(amplifiers, packets, table),
    )
