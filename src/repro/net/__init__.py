"""Networking substrate: addresses, framing, AS registry, geo, and the routed-block
table and PBL as sorted address intervals."""

from repro.net.ipv4 import (
    Prefix,
    format_ip,
    ip_in_prefix,
    parse_ip,
    slash24_of,
)
from repro.net.framing import (
    ETHERNET_OVERHEAD,
    MIN_ONWIRE_FRAME,
    UDP_IP_HEADERS,
    on_wire_bytes,
    udp_datagram_bytes,
)
from repro.net.routing import RoutedBlockTable, aggregate_counts
from repro.net.asn import ASRegistry, AutonomousSystem, NetworkKind
from repro.net.geo import CONTINENT_OF, GeoView
from repro.net.pbl import PolicyBlockList

__all__ = [
    "Prefix",
    "format_ip",
    "ip_in_prefix",
    "parse_ip",
    "slash24_of",
    "ETHERNET_OVERHEAD",
    "MIN_ONWIRE_FRAME",
    "UDP_IP_HEADERS",
    "on_wire_bytes",
    "udp_datagram_bytes",
    "RoutedBlockTable",
    "aggregate_counts",
    "ASRegistry",
    "AutonomousSystem",
    "NetworkKind",
    "CONTINENT_OF",
    "GeoView",
    "PolicyBlockList",
]
