"""Spamhaus Policy Block List (PBL) stand-in.

The paper labels IPs as "end hosts" when they appear on the Spamhaus PBL,
which lists address space that policy says should not emit direct traffic —
overwhelmingly residential/dynamic pools.  Our stand-in lists:

* every prefix of every residential AS, and
* per-AS "dynamic pool" sub-ranges inside education and enterprise networks
  (universities and offices also have workstation pools).

Lookup semantics mirror the real PBL: an IP either is or is not covered.
"""

from repro.net.asn import NetworkKind
from repro.net.ipv4 import Prefix
from repro.net.trie import PrefixTrie

__all__ = ["PolicyBlockList"]

#: Fraction of each education/enterprise prefix listed as a dynamic pool.
_WORKSTATION_POOL_FRACTION = {
    NetworkKind.EDUCATION: 0.50,
    NetworkKind.ENTERPRISE: 0.25,
}


class PolicyBlockList:
    """End-host (residential/dynamic) address labeling."""

    def __init__(self, registry):
        self._trie = PrefixTrie()
        for system in registry:
            if system.kind == NetworkKind.RESIDENTIAL:
                for prefix in system.prefixes:
                    self._list(prefix)
            elif system.kind in _WORKSTATION_POOL_FRACTION:
                fraction = _WORKSTATION_POOL_FRACTION[system.kind]
                for prefix in system.prefixes:
                    self._list_leading_fraction(prefix, fraction)

    def _list(self, prefix):
        self._trie.insert(prefix, True)

    def _list_leading_fraction(self, prefix, fraction):
        """List the leading ``fraction`` of a prefix, as aligned sub-prefixes.

        A deterministic convention ("low half of the prefix is the dynamic
        pool") keeps the labeling reproducible without extra state; host
        generators elsewhere honor the same convention when they need to
        place a server vs. a workstation.
        """
        if fraction <= 0:
            return
        remaining = int(prefix.n_addresses * fraction)
        cursor = prefix.network
        length = prefix.length
        while remaining > 0 and length <= 32:
            size = 1 << (32 - length)
            if size <= remaining and cursor % size == 0:
                self._list(Prefix(cursor, length))
                cursor += size
                remaining -= size
            else:
                length += 1

    def is_end_host(self, ip):
        """True when ``ip`` is inside listed (end-host) space."""
        return self._trie.lookup(ip) is not None

    def end_host_count(self, ips):
        """How many of the given IPs are end hosts (Table 1's columns)."""
        return sum(1 for ip in ips if self.is_end_host(ip))

    def end_host_fraction(self, ips):
        """Fraction of the given IPs on the list; 0 for an empty input."""
        ips = list(ips)
        if not ips:
            return 0.0
        return self.end_host_count(ips) / len(ips)
