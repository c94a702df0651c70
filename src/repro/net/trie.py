"""A binary longest-prefix-match trie over IPv4 prefixes.

Backs the routed-block table: lookups of "which routed block / origin AS does
this IP belong to" happen for every amplifier and victim IP in every weekly
sample, so the structure is kept simple and allocation-light.
"""

from repro.net.ipv4 import Prefix

__all__ = ["PrefixTrie"]


class _Node:
    __slots__ = ("children", "value", "has_value")

    def __init__(self):
        self.children = [None, None]
        self.value = None
        self.has_value = False


class PrefixTrie:
    """Maps IPv4 prefixes to values with longest-prefix-match lookup."""

    def __init__(self):
        self._root = _Node()

    def insert(self, prefix, value):
        """Insert (or replace) the value stored at ``prefix``."""
        if not isinstance(prefix, Prefix):
            raise TypeError("insert expects a Prefix")
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _Node()
            node = node.children[bit]
        node.value = value
        node.has_value = True

    def lookup(self, ip):
        """Longest-prefix-match: the value of the most specific covering
        prefix, or ``None`` when nothing covers ``ip``."""
        node = self._root
        best = node.value if node.has_value else None
        for depth in range(32):
            bit = (ip >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            if node.has_value:
                best = node.value
        return best
