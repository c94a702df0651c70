"""IPv4 addresses as plain integers.

The simulation handles millions of addresses; representing them as ``int``
(rather than ``ipaddress.IPv4Address`` objects) keeps sets and NumPy arrays
cheap.  These helpers convert between dotted-quad strings, ints, and prefix
aggregates.
"""

from dataclasses import dataclass

__all__ = [
    "MAX_IPV4",
    "parse_ip",
    "format_ip",
    "slash24_of",
    "ip_in_prefix",
    "Prefix",
]

MAX_IPV4 = 2**32 - 1


def parse_ip(text):
    """Parse a dotted-quad string into an integer address."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(value):
    """Format an integer address as a dotted-quad string."""
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"not an IPv4 address: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def slash24_of(value):
    """The /24 network (as an int) containing the given address."""
    return value & 0xFFFFFF00


def ip_in_prefix(ip, network, length):
    """True when ``ip`` falls inside ``network/length``."""
    if not 0 <= length <= 32:
        raise ValueError(f"bad prefix length {length}")
    if length == 0:
        return True
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    return (ip & mask) == (network & mask)


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix ``network/length`` with the host bits zeroed."""

    network: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= 32:
            raise ValueError(f"bad prefix length {self.length}")
        if not 0 <= self.network <= MAX_IPV4:
            raise ValueError(f"bad network {self.network}")
        masked = self.network & self.mask
        if masked != self.network:
            object.__setattr__(self, "network", masked)

    @classmethod
    def parse(cls, text):
        """Parse ``"a.b.c.d/len"`` notation."""
        addr, _, length = text.partition("/")
        if not length:
            raise ValueError(f"missing /length in {text!r}")
        return cls(parse_ip(addr), int(length))

    @property
    def mask(self):
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def n_addresses(self):
        return 1 << (32 - self.length)

    @property
    def first(self):
        return self.network

    @property
    def last(self):
        return self.network + self.n_addresses - 1

    def contains(self, ip):
        return ip_in_prefix(ip, self.network, self.length)

    def contains_prefix(self, other):
        """True when ``other`` is equal to or nested inside this prefix."""
        return other.length >= self.length and self.contains(other.network)

    def nth(self, offset):
        """The address at ``offset`` within the prefix (0-based)."""
        if not 0 <= offset < self.n_addresses:
            raise IndexError(f"offset {offset} outside {self}")
        return self.network + offset

    def __str__(self):
        return f"{format_ip(self.network)}/{self.length}"
