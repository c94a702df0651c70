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
    MON_ENTRY_V1_SIZE,
    MON_ENTRY_V2_SIZE,
    MONLIST_CAPACITY,
    REQ_MON_GETLIST,
    REQ_MON_GETLIST_1,
    items_per_packet,
)
from repro.ntp.wire import (
    MON_V1_DTYPE,
    MON_V2_DTYPE,
    MonitorEntry,
    encode_mode7_response,
    encode_mode7_response_raw,
    encode_monitor_fields,
)

__all__ = ["MonlistRecord", "MonlistTable"]

_U32_MAX = 2**32 - 1

# The on-wire layouts live in repro.ntp.wire (MON_V1_DTYPE / MON_V2_DTYPE),
# shared with the columnar capture decoder so encode and decode can never
# drift apart.
# ``np.zeros`` guarantees the pad bytes are zero, exactly like struct's
# ``x`` pad codes, so ``tobytes()`` of a row equals the struct encoding.
_V2_DTYPE = MON_V2_DTYPE
_V1_DTYPE = MON_V1_DTYPE

#: Below this many entries the per-array NumPy overhead exceeds the struct
#: loop; measured crossover is ~10 records on CPython 3.10–3.12.
_BULK_RENDER_MIN = 12

#: C-level sort key for the MRU orderings (the sorts dominate render time
#: for large tables; an attrgetter beats a lambda measurably there).
_BY_LAST_SEEN = attrgetter("last_seen")


def _encode_records_blob(ordered, entry_version, now):
    """Encode MRU-ordered records as one contiguous bytes blob.

    Byte-identical to concatenating :func:`encode_monitor_fields` per
    record: truncation toward zero (``astype``) matches ``int()``, and the
    clips reproduce ``_clamp_u32``; counts can legitimately exceed u32
    (loop-pathology amplifiers), hence int64 intermediates.
    """
    n = len(ordered)
    arr = np.zeros(n, dtype=_V2_DTYPE if entry_version == 2 else _V1_DTYPE)
    times = np.array([(r.last_seen, r.first_seen) for r in ordered], dtype=np.float64)
    ints = np.array([(r.count, r.addr, r.port, r.mode, r.version) for r in ordered], dtype=np.int64)
    arr["last"] = np.clip((now - times[:, 0]).astype(np.int64), 0, _U32_MAX)
    arr["first"] = np.clip((now - times[:, 1]).astype(np.int64), 0, _U32_MAX)
    arr["count"] = np.clip(ints[:, 0], 0, _U32_MAX)
    arr["addr"] = ints[:, 1] & _U32_MAX
    arr["port"] = ints[:, 2] & 0xFFFF
    arr["mode"] = ints[:, 3] & 0xFF
    arr["version"] = ints[:, 4] & 0xFF
    return arr.tobytes()


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

    def put_client_records(self, rows, mode, version):
        """Bulk :meth:`put_record` for background-client sync rows.

        ``rows`` is ``state_at`` output — ``(addr, port, count, first_seen,
        last_seen)`` tuples whose invariants (count >= 1, ordering) the
        analytic client model guarantees, so the per-row validation is
        skipped.  The prune cadence matches per-row :meth:`put_record`
        calls exactly, keeping the table byte-identical to the slow path.
        """
        records = self._records
        threshold = 2 * self.capacity
        for addr, port, count, first_seen, last_seen in rows:
            existing = records.get(addr)
            if existing is None:
                records[addr] = MonlistRecord(addr, port, mode, version, count, first_seen, last_seen)
                if len(records) > threshold:
                    self._prune()
                    records = self._records
            else:
                # Overwrite in place: replacing the dict value would keep
                # the key's insertion position anyway, so mutating the
                # existing record preserves MRU tie-breaking bit-for-bit
                # while skipping a construction (the common resync case).
                existing.port = port
                existing.mode = mode
                existing.version = version
                existing.count = count
                existing.first_seen = first_seen
                existing.last_seen = last_seen

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
        if entry_version == 2:
            item_size = MON_ENTRY_V2_SIZE
            request_code = REQ_MON_GETLIST_1
        elif entry_version == 1:
            item_size = MON_ENTRY_V1_SIZE
            request_code = REQ_MON_GETLIST
        else:
            raise ValueError(f"unknown entry version {entry_version}")
        # Hot path: encode straight from the records (same bytes as
        # entries_mru + encode_monitor_entry, without building a
        # MonitorEntry per record — this renders once per probe for every
        # alive amplifier in every weekly sample).
        ordered = sorted(self._records.values(), key=_BY_LAST_SEEN, reverse=True)
        ordered = ordered[: self.capacity]
        per_packet = items_per_packet(item_size)
        packets = []
        n = len(ordered)
        if not ordered:
            packets.append(
                encode_mode7_response(implementation, request_code, sequence_start % 128, False, [], item_size)
            )
            return packets
        if n >= _BULK_RENDER_MIN:
            # Vectorized: one blob for the whole table, sliced per packet.
            blob = _encode_records_blob(ordered, entry_version, now)
            n_chunks = (n + per_packet - 1) // per_packet
            stride = per_packet * item_size
            for index in range(n_chunks):
                start = index * per_packet
                count = min(per_packet, n - start)
                offset = index * stride
                packets.append(
                    encode_mode7_response_raw(
                        implementation,
                        request_code,
                        (sequence_start + index) % 128,
                        more=index < n_chunks - 1,
                        data=blob[offset : offset + count * item_size],
                        n_items=count,
                        item_size=item_size,
                    )
                )
            return packets
        encoded = [
            encode_monitor_fields(
                entry_version,
                max(0, int(now - rec.last_seen)),
                max(0, int(now - rec.first_seen)),
                rec.count,
                rec.addr,
                rec.port,
                rec.mode,
                rec.version,
            )
            for rec in ordered
        ]
        chunks = [encoded[i : i + per_packet] for i in range(0, len(encoded), per_packet)]
        for index, chunk in enumerate(chunks):
            packets.append(
                encode_mode7_response(
                    implementation,
                    request_code,
                    (sequence_start + index) % 128,
                    more=index < len(chunks) - 1,
                    items=chunk,
                    item_size=item_size,
                )
            )
        return packets
