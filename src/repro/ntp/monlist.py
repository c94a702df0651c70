"""The ntpd monitor (monlist) MRU table.

``ntpd`` records every peer that talks to it — normal clients, control
queries, private-mode queries, and (crucially for the paper) spoofed victims
— in a most-recently-used list.  The ``monlist`` command dumps up to the 600
most recent entries.  This is the data structure whose dump the whole
victimology pipeline (§4) parses.

Implementation notes
--------------------
The table is keyed by remote address.  Rendering sorts by last-seen time, so
records may be inserted with out-of-order timestamps (the scenario layer
applies aggregate updates); capacity enforcement is lazy — the table prunes
to the 600 most recent entries when it grows past twice the capacity, and
rendering always truncates to the capacity.
"""

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.ntp.constants import (
    IMPL_XNTPD,
    MODE_PRIVATE,
    MON_ENTRY_V1_SIZE,
    MON_ENTRY_V2_SIZE,
    MODE7_HEADER_SIZE,
    MONLIST_CAPACITY,
    REQ_MON_GETLIST,
    REQ_MON_GETLIST_1,
    VN_NTPV2,
    items_per_packet,
)
from repro.ntp.wire import MON_V1_DTYPE, MON_V2_DTYPE, MonitorEntry

__all__ = ["MonlistRecord", "MonlistTable", "encode_reply_tables"]

_U32_MAX = 2**32 - 1

#: Per entry version: the on-wire entry layout (shared with the columnar
#: capture decoder, so encode and decode cannot drift apart), its size and
#: the monlist request code it answers.
_ENTRY_FORMATS = {
    1: (MON_V1_DTYPE, MON_ENTRY_V1_SIZE, REQ_MON_GETLIST),
    2: (MON_V2_DTYPE, MON_ENTRY_V2_SIZE, REQ_MON_GETLIST_1),
}

#: C-level sort key for the MRU orderings (the sorts dominate render time
#: for large tables; an attrgetter beats a lambda measurably there).
_BY_LAST_SEEN = attrgetter("last_seen")


def encode_reply_tables(now, sizes, rows, entry_version=2, implementation=IMPL_XNTPD, sequence_start=0):
    """Render many MRU-ordered tables as mode-7 monlist replies in one pass.

    ``rows`` maps ``last``, ``first``, ``count``, ``addr``, ``port``,
    ``mode`` and ``version`` to aligned arrays: the rows of every table
    back to back, most recent first, ``sizes[i]`` of them for table
    ``i``.  Returns ``(packet counts, packet lengths, payload)``: each
    table's reply in turn, as many entries a packet as fit the 500-byte
    data area, the 7-bit sequence number counting from
    ``sequence_start``, "more" on every packet but a table's last, and
    one header-only packet for an empty table.  Times become seconds ago
    truncated toward zero and, like counts, clamp to u32 (loop-pathology
    counts exceed it); ``np.zeros`` leaves the pad bytes zero, as
    struct's ``x`` codes do.
    """
    if entry_version not in _ENTRY_FORMATS:
        raise ValueError(f"unknown entry version {entry_version}")
    dtype, item_size, request_code = _ENTRY_FORMATS[entry_version]
    per = items_per_packet(item_size)
    sizes = np.asarray(sizes, dtype=np.int64)
    pkt_counts = np.maximum(1, (sizes + per - 1) // per)
    first_packet = pkt_counts.cumsum() - pkt_counts
    index = np.arange(int(pkt_counts.sum())) - first_packet.repeat(pkt_counts)
    items = np.minimum(np.maximum(sizes.repeat(pkt_counts) - index * per, 0), per)
    width = MODE7_HEADER_SIZE + per * item_size
    packets = np.zeros((len(index), width), dtype=np.uint8)
    packets[:, 0] = 0x80 | (VN_NTPV2 << 3) | MODE_PRIVATE
    packets[:, 0] |= (index < pkt_counts.repeat(pkt_counts) - 1) * np.uint8(0x40)
    packets[:, 1] = (sequence_start + index) % 128
    packets[:, 2] = implementation & 0xFF
    packets[:, 3] = request_code
    packets[:, 5] = items
    packets[:, 7] = item_size
    entries = np.zeros(len(rows["addr"]), dtype=dtype)
    entries["last"] = np.minimum(np.maximum((now - rows["last"]).astype(np.int64), 0), _U32_MAX)
    entries["first"] = np.minimum(np.maximum((now - rows["first"]).astype(np.int64), 0), _U32_MAX)
    entries["count"] = np.minimum(np.maximum(rows["count"], 0), _U32_MAX)
    entries["addr"] = rows["addr"] & _U32_MAX
    entries["port"] = rows["port"] & 0xFFFF
    entries["mode"] = rows["mode"] & 0xFF
    entries["version"] = rows["version"] & 0xFF
    # Each table's rows fill its packets' entry slots in order.
    slot = np.arange(len(entries)) + (first_packet * per - (sizes.cumsum() - sizes)).repeat(sizes)
    body = packets[:, MODE7_HEADER_SIZE:].reshape(len(index), per, item_size)
    body[slot // per, slot % per] = entries.view(np.uint8).reshape(-1, item_size)
    pkt_lens = MODE7_HEADER_SIZE + items * item_size
    payload = packets[np.arange(width) < pkt_lens[:, None]]
    return pkt_counts, pkt_lens, payload


@dataclass(slots=True)
class MonlistRecord:
    """Mutable per-client state inside the MRU table.

    ``slots``: hundreds of thousands of these are constructed per build
    (every background-client sync row), and the render hot path reads
    their attributes per entry — slots cut both costs measurably.
    """

    addr: int
    port: int
    mode: int
    version: int
    count: int
    first_seen: float
    last_seen: float

    def observe(self, now, packets=1, span=0.0, port=None, mode=None, version=None):
        """Fold ``packets`` arriving over ``[now - span, now]`` into the record."""
        if packets < 1:
            raise ValueError("packets must be >= 1")
        self.count += packets
        if now > self.last_seen:
            self.last_seen = now
        self.first_seen = min(self.first_seen, now - span)
        if port is not None:
            self.port = port
        if mode is not None:
            self.mode = mode
        if version is not None:
            self.version = version


class MonlistTable:
    """MRU list of the clients a server has seen, capped for rendering."""

    def __init__(self, capacity=MONLIST_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records = {}

    def __len__(self):
        return min(len(self._records), self.capacity)

    @property
    def n_tracked(self):
        """Distinct clients currently tracked (may exceed render capacity)."""
        return len(self._records)

    def clear(self):
        """Flush the table (ntpd restart)."""
        self._records.clear()

    def record(self, addr, port, mode, version, now, packets=1, span=0.0):
        """Record traffic from ``addr``: ``packets`` packets ending at ``now``
        that arrived over the preceding ``span`` seconds."""
        if span < 0:
            raise ValueError("span must be non-negative")
        if packets < 1:
            raise ValueError("packets must be >= 1")
        existing = self._records.get(addr)
        if existing is None:
            self._records[addr] = MonlistRecord(
                addr=addr,
                port=port,
                mode=mode,
                version=version,
                count=packets,
                first_seen=now - span,
                last_seen=now,
            )
        else:
            existing.observe(now, packets=packets, span=span, port=port, mode=mode, version=version)
        if len(self._records) > 2 * self.capacity:
            self._prune()

    def _prune(self):
        keep = sorted(self._records.values(), key=_BY_LAST_SEEN, reverse=True)
        keep = keep[: self.capacity]
        self._records = {r.addr: r for r in keep}

    def put_record(self, addr, port, mode, version, count, first_seen, last_seen):
        """Set the absolute state of one client's record.

        Used by the bulk-sync path, which recomputes a background client's
        cumulative (count, first, last) analytically instead of replaying
        individual polls; the result is identical to per-packet recording.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if last_seen < first_seen:
            raise ValueError("last_seen must not precede first_seen")
        self._records[addr] = MonlistRecord(
            addr=addr,
            port=port,
            mode=mode,
            version=version,
            count=count,
            first_seen=first_seen,
            last_seen=last_seen,
        )
        if len(self._records) > 2 * self.capacity:
            self._prune()

    def records(self):
        """The tracked records in insertion order, which breaks MRU ties."""
        return list(self._records.values())

    def get(self, addr):
        return self._records.get(addr)

    def __contains__(self, addr):
        return addr in self._records

    def entries_mru(self, now):
        """The renderable entries, most recent first, capped at capacity.

        ``last_int``/``first_int`` are computed relative to ``now``, exactly
        as ntpd reports them (seconds ago, floored at zero).
        """
        ordered = sorted(self._records.values(), key=_BY_LAST_SEEN, reverse=True)
        out = []
        for rec in ordered[: self.capacity]:
            out.append(
                MonitorEntry(
                    last_int=max(0, int(now - rec.last_seen)),
                    first_int=max(0, int(now - rec.first_seen)),
                    count=rec.count,
                    addr=rec.addr,
                    daddr=0,
                    flags=0,
                    port=rec.port,
                    mode=rec.mode,
                    version=rec.version,
                )
            )
        return out

    def render_response_packets(self, now, entry_version, implementation, sequence_start=0):
        """Encode the table as a series of mode-7 response packets.

        Returns a list of raw packets.  The request code and item size follow
        from the entry version; the "more" bit is set on all but the last
        packet and the 7-bit sequence number wraps as in ntpd.
        """
        ordered = sorted(self._records.values(), key=_BY_LAST_SEEN, reverse=True)[: self.capacity]
        rows = {
            "last": np.array([r.last_seen for r in ordered], dtype=np.float64),
            "first": np.array([r.first_seen for r in ordered], dtype=np.float64),
        }
        for name in ("count", "addr", "port", "mode", "version"):
            rows[name] = np.array([getattr(r, name) for r in ordered], dtype=np.int64)
        _, lens, payload = encode_reply_tables(
            now, [len(ordered)], rows, entry_version, implementation, sequence_start
        )
        data = payload.tobytes()
        ends = np.cumsum(lens).tolist()
        return [data[end - n : end] for n, end in zip(lens.tolist(), ends)]
