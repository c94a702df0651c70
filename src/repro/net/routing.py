"""Routed-block table: the BGP-table stand-in used for aggregation.

Table 1 and Figure 3 aggregate IPs at four levels: unique IPs, /24s, routed
blocks, and origin ASNs.  The routed blocks here are the prefixes allocated
by the :class:`~repro.net.asn.ASRegistry` address plan.
"""

from dataclasses import dataclass

from repro.net.ipv4 import slash24_of
from repro.net.trie import PrefixTrie

__all__ = ["RoutedBlockTable", "AggregateCounts", "aggregate_counts"]


class RoutedBlockTable:
    """Longest-prefix-match lookup from IP to (routed block, origin AS)."""

    def __init__(self, registry):
        self._trie = PrefixTrie()
        for prefix, system in registry.all_prefixes():
            self._trie.insert(prefix, (prefix, system))

    def lookup(self, ip):
        """``(Prefix, AutonomousSystem)`` covering ``ip``, or ``None``."""
        return self._trie.lookup(ip)

    def origin_as(self, ip):
        hit = self._trie.lookup(ip)
        return hit[1] if hit else None

    def asn_of(self, ip):
        system = self.origin_as(ip)
        return system.asn if system else None

    def continent_of(self, ip):
        system = self.origin_as(ip)
        return system.continent if system else None


@dataclass(frozen=True)
class AggregateCounts:
    """The four aggregation levels reported in Table 1 / Figure 3."""

    ips: int
    slash24s: int
    blocks: int
    asns: int

    @property
    def ips_per_block(self):
        if self.blocks == 0:
            return 0.0
        return self.ips / self.blocks


def aggregate_counts(ips, table):
    """Count unique IPs, /24s, routed blocks, and origin ASNs for a set of IPs.

    IPs that fall outside the routed plan (there should be none in a
    well-formed scenario) are excluded from block/ASN counts but still
    counted as IPs and /24s, mirroring how unrouted junk would be handled
    with a real BGP snapshot.
    """
    unique = set(ips)
    nets24 = {slash24_of(ip) for ip in unique}
    blocks = set()
    asns = set()
    for ip in unique:
        hit = table.lookup(ip)
        if hit is None:
            continue
        prefix, system = hit
        blocks.add(prefix)
        asns.add(system.asn)
    return AggregateCounts(ips=len(unique), slash24s=len(nets24), blocks=len(blocks), asns=len(asns))
