"""Routed-block table: the BGP-table stand-in used for aggregation.

Table 1 and Figure 3 aggregate IPs at four levels: unique IPs, /24s, routed
blocks, and origin ASNs.  The routed blocks here are the prefixes allocated
by the :class:`~repro.net.asn.ASRegistry` address plan, which never
overlap, so the table is one sorted :class:`~repro.net.intervals.IntervalIndex`.
"""

from dataclasses import dataclass

import numpy as np

from repro.net.intervals import IntervalIndex, ip_array
from repro.net.ipv4 import slash24_of

__all__ = ["RoutedBlockTable", "AggregateCounts", "aggregate_counts"]


class RoutedBlockTable:
    """Lookup from IP to (routed block, origin AS) over disjoint prefixes."""

    def __init__(self, registry):
        hits = sorted(registry.all_prefixes(), key=lambda hit: hit[0].network)
        for (a, _), (b, _) in zip(hits, hits[1:]):
            if b.network <= a.last:
                # Nested or equal prefixes need a longest match, which an
                # interval table cannot take: refuse rather than answer wrong.
                raise ValueError(f"routed prefixes {a} and {b} overlap")
        self._index = IntervalIndex((p.first for p, _ in hits), (p.last for p, _ in hits))
        self._hits = hits
        #: The origin ASN of each routed block, by block index.
        self.block_asns = np.array([system.asn for _, system in hits], dtype=np.int64)

    def lookup(self, ip):
        """``(Prefix, AutonomousSystem)`` covering ``ip``, or ``None``."""
        i = self._index.find(ip)
        return self._hits[i] if i >= 0 else None

    def origin_as(self, ip):
        hit = self.lookup(ip)
        return hit[1] if hit else None

    def asn_of(self, ip):
        system = self.origin_as(ip)
        return system.asn if system else None

    def continent_of(self, ip):
        system = self.origin_as(ip)
        return system.continent if system else None

    def blocks_of(self, ips):
        """The routed block's index per IP of an int64 array; -1 unrouted."""
        return self._index.find_many(ips)

    def asns_of(self, ips):
        """The origin ASN per IP of an int64 array; -1 unrouted."""
        blocks = self.blocks_of(ips)
        routed = blocks >= 0
        asns = np.full(len(blocks), -1, dtype=np.int64)
        asns[routed] = self.block_asns[blocks[routed]]
        return asns


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
    unique = np.unique(ip_array(ips))
    blocks = table.blocks_of(unique)
    routed = np.unique(blocks[blocks >= 0])
    return AggregateCounts(
        ips=len(unique),
        slash24s=len(np.unique(slash24_of(unique))),
        blocks=len(routed),
        asns=len(np.unique(table.block_asns[routed])),
    )
