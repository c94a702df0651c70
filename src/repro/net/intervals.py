"""Sorted, disjoint address intervals: the lookup behind routing and the PBL.

The address plan's allocator carves every routed prefix sequentially out
of its pools, so no two routed prefixes overlap and the prefix covering
an IP, if any, is unique.  A lookup is then one binary search over the
interval starts.  Scalar lookups bisect a Python list (one NumPy call on
a single IP costs more than the whole search); set-valued reads take one
``searchsorted`` over the same starts.
"""

from bisect import bisect_right

import numpy as np

__all__ = ["IntervalIndex", "ip_array"]


def ip_array(ips):
    """Any iterable of IPs (a set, a list, an array) as an int64 array."""
    if isinstance(ips, np.ndarray):
        return ips.astype(np.int64, copy=False)
    return np.fromiter(ips, dtype=np.int64)


class IntervalIndex:
    """Closed intervals ``[first, last]``, given sorted and pairwise disjoint."""

    def __init__(self, firsts, lasts):
        self._firsts = list(firsts)
        self._lasts = list(lasts)
        self._first_array = np.array(self._firsts, dtype=np.int64)
        self._last_array = np.array(self._lasts, dtype=np.int64)

    def find(self, ip):
        """The index of the interval holding ``ip``, or -1."""
        i = bisect_right(self._firsts, ip) - 1
        return i if i >= 0 and ip <= self._lasts[i] else -1

    def find_many(self, ips):
        """:meth:`find` for each IP of an int64 array, as an int64 array."""
        if not len(self._firsts):
            return np.full(len(ips), -1, dtype=np.int64)
        i = np.searchsorted(self._first_array, ips, side="right") - 1
        inside = (i >= 0) & (ips <= self._last_array[i])
        return np.where(inside, i, -1)
