"""Binary encode/decode for NTP packets (modes 6 and 7).

All multi-byte fields are big-endian, as on the wire.  The decoder functions
are the ones the analysis pipeline uses to re-parse captured ONP response
packets, so they are strict: malformed input raises :class:`WireError` rather
than yielding half-parsed garbage.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.ntp.constants import (
    MODE6_HEADER_SIZE,
    MODE7_HEADER_SIZE,
    MODE_CONTROL,
    MODE_PRIVATE,
    MON_ENTRY_V1_SIZE,
    MON_ENTRY_V2_SIZE,
    VN_NTPV2,
)

__all__ = [
    "WireError",
    "MonitorEntry",
    "Mode7Packet",
    "Mode6Packet",
    "MON_V1_DTYPE",
    "MON_V2_DTYPE",
    "encode_mode7_request",
    "encode_mode7_response",
    "encode_mode7_response_raw",
    "decode_mode7",
    "decode_mode7_stream",
    "encode_monitor_entry",
    "decode_monitor_entries",
    "encode_mode6_request",
    "encode_mode6_response",
    "decode_mode6",
    "mode_of",
]

_U32_MAX = 2**32 - 1


class WireError(ValueError):
    """Raised when a buffer cannot be parsed as the expected packet type."""


def mode_of(data):
    """The NTP association mode of a raw packet (low 3 bits of byte 0)."""
    if not data:
        raise WireError("empty packet")
    return data[0] & 0x07


# ---------------------------------------------------------------------------
# Monitor (monlist) entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorEntry:
    """One decoded monlist entry, version-independent.

    ``last_int``/``first_int`` are seconds since the client was last/first
    seen, as of the moment the response was generated (this is what ntpdc
    prints as "last seen" and what drives "inter-arrival").
    """

    last_int: int
    first_int: int
    count: int
    addr: int
    daddr: int
    flags: int
    port: int
    mode: int
    version: int
    restr: int = 0

    @property
    def avg_interval(self):
        """Average inter-arrival seconds, as ntpdc derives it."""
        if self.count <= 1:
            return 0.0
        return (self.first_int - self.last_int) / (self.count - 1)


_V2_STRUCT = struct.Struct(">IIIIIIIHBB4x4x16x16x")
_V1_STRUCT = struct.Struct(">IIIIIIHBB4x")

assert _V2_STRUCT.size == MON_ENTRY_V2_SIZE
assert _V1_STRUCT.size == MON_ENTRY_V1_SIZE

#: Big-endian on-wire monitor-entry layouts, mirroring ``_V2_STRUCT`` /
#: ``_V1_STRUCT`` field-for-field (the pad bytes land in the dtype gaps).
#: Shared by the bulk encoder (:mod:`repro.ntp.monlist`) and the columnar
#: capture decoder (:mod:`repro.analysis.event_columns`), so the wire
#: layout is defined in exactly one place.
MON_V2_DTYPE = np.dtype(
    {
        "names": ["last", "first", "restr", "count", "addr", "daddr", "flags", "port", "mode", "version"],
        "formats": [">u4", ">u4", ">u4", ">u4", ">u4", ">u4", ">u4", ">u2", "u1", "u1"],
        "offsets": [0, 4, 8, 12, 16, 20, 24, 28, 30, 31],
        "itemsize": MON_ENTRY_V2_SIZE,
    }
)
MON_V1_DTYPE = np.dtype(
    {
        "names": ["last", "first", "count", "addr", "daddr", "flags", "port", "mode", "version"],
        "formats": [">u4", ">u4", ">u4", ">u4", ">u4", ">u4", ">u2", "u1", "u1"],
        "offsets": [0, 4, 8, 12, 16, 20, 24, 26, 27],
        "itemsize": MON_ENTRY_V1_SIZE,
    }
)


def _clamp_u32(value):
    return min(max(int(value), 0), _U32_MAX)


def encode_monitor_fields(
    entry_version, last_int, first_int, count, addr, port, mode, version, daddr=0, flags=0, restr=0
):
    """Encode raw monitor-entry fields as v1 (32 B) or v2 (72 B) bytes.

    The allocation-free core of :func:`encode_monitor_entry`; bulk table
    rendering calls it directly so the hot path never materializes a
    :class:`MonitorEntry` per record.
    """
    if entry_version == 2:
        return _V2_STRUCT.pack(
            _clamp_u32(last_int),
            _clamp_u32(first_int),
            _clamp_u32(restr),
            _clamp_u32(count),
            addr & _U32_MAX,
            daddr & _U32_MAX,
            flags & _U32_MAX,
            port & 0xFFFF,
            mode & 0xFF,
            version & 0xFF,
        )
    if entry_version == 1:
        return _V1_STRUCT.pack(
            _clamp_u32(last_int),
            _clamp_u32(first_int),
            _clamp_u32(count),
            addr & _U32_MAX,
            daddr & _U32_MAX,
            flags & _U32_MAX,
            port & 0xFFFF,
            mode & 0xFF,
            version & 0xFF,
        )
    raise WireError(f"unknown monitor entry version {entry_version}")


def encode_monitor_entry(entry, entry_version):
    """Encode a :class:`MonitorEntry` as v1 (32 B) or v2 (72 B) bytes."""
    return encode_monitor_fields(
        entry_version,
        entry.last_int,
        entry.first_int,
        entry.count,
        entry.addr,
        entry.port,
        entry.mode,
        entry.version,
        daddr=entry.daddr,
        flags=entry.flags,
        restr=entry.restr,
    )


def decode_monitor_entries(data, item_size, n_items):
    """Decode ``n_items`` fixed-size entries from a response data area."""
    if item_size == MON_ENTRY_V2_SIZE:
        unpack = _V2_STRUCT.unpack_from
        v2 = True
    elif item_size == MON_ENTRY_V1_SIZE:
        unpack = _V1_STRUCT.unpack_from
        v2 = False
    else:
        raise WireError(f"unsupported monitor item size {item_size}")
    if len(data) < item_size * n_items:
        raise WireError("truncated monitor data area")
    entries = []
    for i in range(n_items):
        fields = unpack(data, i * item_size)
        if v2:
            last_int, first_int, restr, count, addr, daddr, flags, port, mode, ver = fields
        else:
            last_int, first_int, count, addr, daddr, flags, port, mode, ver = fields
            restr = 0
        entries.append(
            MonitorEntry(
                last_int=last_int,
                first_int=first_int,
                count=count,
                addr=addr,
                daddr=daddr,
                flags=flags,
                port=port,
                mode=mode,
                version=ver,
                restr=restr,
            )
        )
    return entries


# ---------------------------------------------------------------------------
# Mode 7 (private / ntpdc)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mode7Packet:
    """A decoded mode-7 packet (request or response)."""

    response: bool
    more: bool
    version: int
    sequence: int
    implementation: int
    request_code: int
    err: int
    n_items: int
    item_size: int
    data: bytes = b""
    items: tuple = field(default_factory=tuple)


def encode_mode7_request(implementation, request_code, version=VN_NTPV2):
    """A minimal 8-byte mode-7 request (the single ONP probe packet)."""
    byte0 = ((version & 0x07) << 3) | MODE_PRIVATE
    return struct.pack(">BBBBHH", byte0, 0, implementation & 0xFF, request_code & 0xFF, 0, 0)


def encode_mode7_response(
    implementation,
    request_code,
    sequence,
    more,
    items,
    item_size,
    err=0,
    version=VN_NTPV2,
):
    """One mode-7 response packet carrying pre-encoded fixed-size items."""
    data = b"".join(items)
    if item_size and len(data) != item_size * len(items):
        raise WireError("item byte length disagrees with item_size")
    return encode_mode7_response_raw(
        implementation,
        request_code,
        sequence,
        more,
        data,
        len(items),
        item_size,
        err=err,
        version=version,
    )


def encode_mode7_response_raw(
    implementation,
    request_code,
    sequence,
    more,
    data,
    n_items,
    item_size,
    err=0,
    version=VN_NTPV2,
):
    """One mode-7 response packet from an already-encoded data area.

    The bulk render path encodes a whole table into one contiguous blob and
    slices per-packet data areas out of it; this frames such a slice with
    the same header bytes :func:`encode_mode7_response` would produce for
    the individual items.
    """
    if sequence > 127 or sequence < 0:
        raise WireError("mode-7 sequence is a 7-bit field")
    byte0 = 0x80 | (0x40 if more else 0) | ((version & 0x07) << 3) | MODE_PRIVATE
    header = struct.pack(
        ">BBBBHH",
        byte0,
        sequence & 0x7F,
        implementation & 0xFF,
        request_code & 0xFF,
        ((err & 0x0F) << 12) | (n_items & 0x0FFF),
        item_size & 0x0FFF,
    )
    return header + data


def decode_mode7(data):
    """Decode a mode-7 packet, including its monitor entries when present."""
    if len(data) < MODE7_HEADER_SIZE:
        raise WireError("short mode-7 packet")
    byte0, byte1, impl, req, err_items, size_field = struct.unpack_from(">BBBBHH", data)
    if byte0 & 0x07 != MODE_PRIVATE:
        raise WireError("not a mode-7 packet")
    response = bool(byte0 & 0x80)
    more = bool(byte0 & 0x40)
    version = (byte0 >> 3) & 0x07
    sequence = byte1 & 0x7F
    err = (err_items >> 12) & 0x0F
    n_items = err_items & 0x0FFF
    item_size = size_field & 0x0FFF
    body = data[MODE7_HEADER_SIZE:]
    items = ()
    if response and n_items and item_size in (MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE):
        items = tuple(decode_monitor_entries(body, item_size, n_items))
    return Mode7Packet(
        response=response,
        more=more,
        version=version,
        sequence=sequence,
        implementation=impl,
        request_code=req,
        err=err,
        n_items=n_items,
        item_size=item_size,
        data=body,
        items=items,
    )


def decode_mode7_stream(packets):
    """Best-effort decode of a captured packet stream.

    Returns ``(decoded, n_undecodable)``: every packet that parses as
    mode 7, in arrival order, plus the count of packets that did not.
    The strict :func:`decode_mode7` contract (only :class:`WireError` on
    malformed input) is what makes this salvage loop safe.
    """
    decoded = []
    n_undecodable = 0
    for packet in packets:
        try:
            decoded.append(decode_mode7(packet))
        except WireError:
            n_undecodable += 1
    return decoded, n_undecodable


# ---------------------------------------------------------------------------
# Mode 6 (control)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mode6Packet:
    """A decoded mode-6 control packet."""

    response: bool
    error: bool
    more: bool
    opcode: int
    sequence: int
    status: int
    association_id: int
    offset: int
    count: int
    data: bytes = b""


def _mode6_header(opcode, sequence, response, more, status, assoc, offset, count, version):
    byte0 = ((version & 0x07) << 3) | MODE_CONTROL
    byte1 = (0x80 if response else 0) | (0x20 if more else 0) | (opcode & 0x1F)
    return struct.pack(">BBHHHHH", byte0, byte1, sequence, status, assoc, offset, count)


def encode_mode6_request(opcode, sequence=1, association_id=0, version=VN_NTPV2):
    """A 12-byte mode-6 request (e.g. READVAR, the ``version`` probe)."""
    return _mode6_header(opcode, sequence, False, False, 0, association_id, 0, 0, version)


def encode_mode6_response(
    opcode,
    data,
    sequence=1,
    offset=0,
    more=False,
    status=0,
    association_id=0,
    version=VN_NTPV2,
):
    """One mode-6 response fragment carrying ``data``."""
    if len(data) > 0xFFFF:
        raise WireError("mode-6 fragment too large")
    header = _mode6_header(
        opcode, sequence, True, more, status, association_id, offset, len(data), version
    )
    padding = b"\x00" * ((4 - len(data) % 4) % 4)
    return header + bytes(data) + padding


def decode_mode6(data):
    """Decode a mode-6 control packet."""
    if len(data) < MODE6_HEADER_SIZE:
        raise WireError("short mode-6 packet")
    byte0, byte1, sequence, status, assoc, offset, count = struct.unpack_from(">BBHHHHH", data)
    if byte0 & 0x07 != MODE_CONTROL:
        raise WireError("not a mode-6 packet")
    body = data[MODE6_HEADER_SIZE : MODE6_HEADER_SIZE + count]
    if len(body) < count:
        raise WireError("truncated mode-6 data")
    return Mode6Packet(
        response=bool(byte1 & 0x80),
        error=bool(byte1 & 0x40),
        more=bool(byte1 & 0x20),
        opcode=byte1 & 0x1F,
        sequence=sequence,
        status=status,
        association_id=assoc,
        offset=offset,
        count=count,
        data=bytes(body),
    )
