"""Spamhaus Policy Block List (PBL) stand-in.

The paper labels IPs as "end hosts" when they appear on the Spamhaus PBL,
which lists address space that policy says should not emit direct traffic —
overwhelmingly residential/dynamic pools.  Our stand-in lists:

* every prefix of every residential AS, and
* per-AS "dynamic pool" sub-ranges inside education and enterprise networks
  (universities and offices also have workstation pools).

Lookup semantics mirror the real PBL: an IP either is or is not covered.
The listed space is held as sorted, merged intervals
(:class:`~repro.net.intervals.IntervalIndex`).
"""

from repro.net.asn import NetworkKind
from repro.net.intervals import IntervalIndex, ip_array

__all__ = ["PolicyBlockList"]

#: Fraction of each education/enterprise prefix listed as a dynamic pool.
_WORKSTATION_POOL_FRACTION = {
    NetworkKind.EDUCATION: 0.50,
    NetworkKind.ENTERPRISE: 0.25,
}


class PolicyBlockList:
    """End-host (residential/dynamic) address labeling."""

    def __init__(self, registry):
        # The leading ``fraction`` of a pool prefix is the dynamic pool: a
        # deterministic convention that keeps the labeling reproducible
        # without extra state; host generators elsewhere honor the same
        # convention when they need to place a server vs. a workstation.
        listed = []
        for system in registry:
            if system.kind == NetworkKind.RESIDENTIAL:
                listed.extend((p.first, p.last) for p in system.prefixes)
            elif system.kind in _WORKSTATION_POOL_FRACTION:
                fraction = _WORKSTATION_POOL_FRACTION[system.kind]
                for p in system.prefixes:
                    size = int(p.n_addresses * fraction)
                    if size > 0:
                        listed.append((p.first, p.first + size - 1))
        merged = []
        for first, last in sorted(listed):
            if merged and first <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], last)
            else:
                merged.append([first, last])
        self._index = IntervalIndex((f for f, _ in merged), (last for _, last in merged))

    def is_end_host(self, ip):
        """True when ``ip`` is inside listed (end-host) space."""
        return self._index.find(ip) >= 0

    def end_host_count(self, ips):
        """How many of the given IPs are end hosts (Table 1's columns)."""
        return int((self._index.find_many(ip_array(ips)) >= 0).sum())
