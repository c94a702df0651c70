"""On-wire byte accounting.

The paper computes bandwidth amplification factors (BAF) from *on-wire*
bytes: every bit that occupies time on an Ethernet link, i.e. the frame
including header and FCS (minimum 64 bytes) plus the 8-byte preamble and the
12-byte inter-packet gap.  A minimum frame therefore costs 84 bytes on the
wire — the figure §3.2 uses for the monlist query packet.
"""

__all__ = [
    "ETHERNET_HEADER",
    "ETHERNET_FCS",
    "ETHERNET_PREAMBLE",
    "ETHERNET_IPG",
    "ETHERNET_OVERHEAD",
    "MIN_FRAME",
    "MIN_ONWIRE_FRAME",
    "IPV4_HEADER",
    "UDP_HEADER",
    "UDP_IP_HEADERS",
    "MAX_UDP_PAYLOAD",
    "udp_datagram_bytes",
    "frame_bytes",
    "on_wire_bytes",
    "on_wire_bytes_array",
]

ETHERNET_HEADER = 14
ETHERNET_FCS = 4
ETHERNET_PREAMBLE = 8
ETHERNET_IPG = 12
#: Per-frame cost beyond the frame itself (preamble + inter-packet gap).
ETHERNET_OVERHEAD = ETHERNET_PREAMBLE + ETHERNET_IPG
#: Minimum Ethernet frame size including header and FCS.
MIN_FRAME = 64
#: Minimum cost of any packet on the wire: 64-byte frame + preamble + IPG.
MIN_ONWIRE_FRAME = MIN_FRAME + ETHERNET_OVERHEAD

IPV4_HEADER = 20
UDP_HEADER = 8
UDP_IP_HEADERS = IPV4_HEADER + UDP_HEADER
#: Largest UDP payload in an unfragmented 1500-byte-MTU IP packet.
MAX_UDP_PAYLOAD = 1500 - UDP_IP_HEADERS


def udp_datagram_bytes(payload_len):
    """IP packet size of a UDP datagram with the given payload."""
    if payload_len < 0:
        raise ValueError("payload length must be non-negative")
    return UDP_IP_HEADERS + payload_len


def frame_bytes(payload_len):
    """Ethernet frame size (header + FCS, padded to the 64-byte minimum)."""
    return max(MIN_FRAME, ETHERNET_HEADER + udp_datagram_bytes(payload_len) + ETHERNET_FCS)


def on_wire_bytes(payload_len):
    """On-wire cost of one UDP packet with the given payload length.

    ``on_wire_bytes(0) == 84``, the minimum the paper uses for the monlist
    query packet.
    """
    return frame_bytes(payload_len) + ETHERNET_OVERHEAD


def on_wire_bytes_array(payload_lens):
    """Vectorized :func:`on_wire_bytes` over an array of payload lengths.

    Returns an ``int64`` array; elementwise equal to ``on_wire_bytes`` for
    non-negative lengths.
    """
    import numpy as np

    lens = np.asarray(payload_lens, dtype=np.int64)
    fixed = ETHERNET_HEADER + UDP_IP_HEADERS + ETHERNET_FCS + ETHERNET_OVERHEAD
    pad_below = MIN_FRAME - (ETHERNET_HEADER + UDP_IP_HEADERS + ETHERNET_FCS)
    return np.where(lens < pad_below, MIN_ONWIRE_FRAME, lens + fixed)
