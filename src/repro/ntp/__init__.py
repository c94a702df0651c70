"""NTP protocol substrate: wire formats, the monlist MRU table, and a
simulated ntpd server that answers the ONP probes."""

from repro.ntp.constants import (
    IMPL_XNTPD,
    IMPL_XNTPD_OLD,
    MODE_CLIENT,
    MODE_CONTROL,
    MODE_PRIVATE,
    MONLIST_CAPACITY,
    NTP_PORT,
    REQ_MON_GETLIST,
    REQ_MON_GETLIST_1,
    STRATUM_UNSYNCHRONIZED,
)
from repro.ntp.monlist import MonlistRecord, MonlistTable
from repro.ntp.server import NtpServer, ProbeReply, ServerConfig
from repro.ntp.variables import (
    extract_compile_year,
    parse_system_variables,
    render_system_variables,
)
from repro.ntp.wire import (
    Mode6Packet,
    Mode7Packet,
    MonitorEntry,
    WireError,
    decode_mode6,
    decode_mode7,
    encode_mode6_request,
    encode_mode6_response,
    encode_mode7_request,
    encode_mode7_response,
    mode_of,
)

__all__ = [
    "IMPL_XNTPD",
    "IMPL_XNTPD_OLD",
    "MODE_CLIENT",
    "MODE_CONTROL",
    "MODE_PRIVATE",
    "MONLIST_CAPACITY",
    "NTP_PORT",
    "REQ_MON_GETLIST",
    "REQ_MON_GETLIST_1",
    "STRATUM_UNSYNCHRONIZED",
    "MonlistRecord",
    "MonlistTable",
    "NtpServer",
    "ProbeReply",
    "ServerConfig",
    "extract_compile_year",
    "parse_system_variables",
    "render_system_variables",
    "Mode6Packet",
    "Mode7Packet",
    "MonitorEntry",
    "WireError",
    "decode_mode6",
    "decode_mode7",
    "encode_mode6_request",
    "encode_mode6_response",
    "encode_mode7_request",
    "encode_mode7_response",
    "mode_of",
]
