"""Protocol constants for the NTP substrate.

The subset of NTPv4 (RFC 5905) plus the legacy mode-6 control and mode-7
private ("ntpdc") protocols that matter for the paper: the ``version``/READVAR
control query (mode 6), the ``monlist`` private request (mode 7), and the
association modes a monitor table records for the traffic it saw.
"""

__all__ = [
    "NTP_PORT",
    "MODE_CLIENT",
    "MODE_CONTROL",
    "MODE_PRIVATE",
    "VN_NTPV2",
    "VN_NTPV3",
    "IMPL_UNIV",
    "IMPL_XNTPD_OLD",
    "IMPL_XNTPD",
    "REQ_MON_GETLIST",
    "REQ_MON_GETLIST_1",
    "CTL_OP_READVAR",
    "MON_ENTRY_V1_SIZE",
    "MON_ENTRY_V2_SIZE",
    "MODE7_HEADER_SIZE",
    "MODE6_HEADER_SIZE",
    "MODE7_DATA_AREA",
    "MODE6_DATA_AREA",
    "MONLIST_CAPACITY",
    "STRATUM_UNSYNCHRONIZED",
    "items_per_packet",
]

NTP_PORT = 123

# NTP association modes (low 3 bits of the first header byte).
MODE_CLIENT = 3
MODE_CONTROL = 6
MODE_PRIVATE = 7

VN_NTPV2 = 2
VN_NTPV3 = 3

# Mode-7 "implementation" codes.  The two monlist-capable implementations the
# paper discusses ("there are several implementations of the NTP service, and
# they do not all respond to the same packet format"):
IMPL_UNIV = 0
IMPL_XNTPD_OLD = 2  # legacy xntpd: 32-byte v1 monitor entries
IMPL_XNTPD = 3  # modern ntpd: 72-byte v2 monitor entries

# Mode-7 request codes for the two monlist variants.
REQ_MON_GETLIST = 20  # v1 entries
REQ_MON_GETLIST_1 = 42  # v2 entries

# Mode-6 opcodes.
CTL_OP_READVAR = 2

# Entry and header sizes (bytes).
MON_ENTRY_V1_SIZE = 32
MON_ENTRY_V2_SIZE = 72
MODE7_HEADER_SIZE = 8
MODE6_HEADER_SIZE = 12
#: ntpd limits mode-7 response data areas to 500 bytes; entries per packet
#: follow from the entry size (6 for v2, 15 for v1).
MODE7_DATA_AREA = 500
#: Mode-6 responses are fragmented at ~468 data bytes per packet.
MODE6_DATA_AREA = 468

#: The monlist MRU list returns at most 600 entries (confirmed empirically
#: by the paper).
MONLIST_CAPACITY = 600

#: Stratum 16 means the server is unsynchronized (§3.3 finds 19% of servers
#: report it).
STRATUM_UNSYNCHRONIZED = 16


def items_per_packet(entry_size):
    """How many monitor entries fit in one mode-7 response packet."""
    if entry_size <= 0:
        raise ValueError("entry size must be positive")
    return MODE7_DATA_AREA // entry_size
