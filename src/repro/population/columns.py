"""Columnar views of the world core: record batches over hosts and pulses.

The object layer (:class:`~repro.population.amplifiers.NtpHost`,
:class:`~repro.sim.events.AttackPulse`) stays the unit of *semantics* —
tests and analysis reason about individual hosts.  This module is the
unit of *throughput*: flat NumPy arrays aligned to the object lists, so
hot loops (per-amplifier pulse sync during ONP sweeps, reply-size
estimation over booter lists, full-pool fingerprints) touch contiguous
memory instead of chasing ~8.7M Python objects at ``scale=1.0``.

Two array families live here:

* **record batches** (``HOST_DTYPE``, ``PULSE_DTYPE``): big-endian
  structured dtypes in the style of ``repro.ntp.wire.MON_V1_DTYPE`` —
  a canonical serialized layout whose raw bytes double as a
  byte-identity fingerprint of the pool (the shard-equivalence tests
  hash them) and render as a near-memcpy.

* **compute columns** (:class:`MonlistColumns`, :class:`PulseColumns`):
  native-endian working arrays for arithmetic (liveness masks,
  searchsorted windows, vectorized reply-size estimates).

The native/big-endian split is deliberate: arithmetic on byte-swapped
arrays silently deoptimizes in NumPy, so compute columns stay native
and the wire-style batch is materialized on demand.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HOST_BLOCKS",
    "HOST_DTYPE",
    "PULSE_DTYPE",
    "VICTIM_DTYPE",
    "HOST_FLAG_MONLIST",
    "HOST_FLAG_VERSION",
    "HOST_FLAG_END_HOST",
    "HOST_FLAG_MEGA",
    "HOST_FLAG_DNS",
    "balanced_split",
    "concat_with_lengths",
    "length_slices",
    "host_record_batch",
    "MonlistColumns",
    "PulseColumns",
]

#: Number of fine-grained build blocks the host population is split into.
#: Fixed (never derived from ``--jobs``) so the block boundaries — and
#: therefore every per-block RNG child stream — are identical whether
#: the blocks run serially or across any number of workers.  The pool
#: merely distributes these same blocks; byte-identity at any ``--jobs``
#: follows by construction.
HOST_BLOCKS = 16


def balanced_split(n, blocks):
    """Deterministic near-even partition of ``n`` items into ``blocks``
    counts (earlier blocks absorb the remainder): sums to ``n`` exactly."""
    base, extra = divmod(int(n), int(blocks))
    return [base + (b < extra) for b in range(blocks)]


def concat_with_lengths(arrays):
    """``arrays`` (None entries allowed) as one concatenated array plus
    per-entry lengths, -1 for None.  The arrays must share a dtype:
    concatenating would silently convert them otherwise."""
    present = [array for array in arrays if array is not None]
    if len({array.dtype for array in present}) > 1:
        raise TypeError("arrays to concatenate differ in dtype")
    lengths = np.array([-1 if array is None else len(array) for array in arrays], dtype=np.int64)
    return (np.concatenate(present) if present else np.empty(0)), lengths


def length_slices(lengths):
    """Consecutive ``slice`` objects for per-entry ``lengths``, None
    where a length is -1: how to cut :func:`concat_with_lengths`'s
    array back into its entries."""
    out = []
    end = 0
    for length in lengths.tolist():
        if length < 0:
            out.append(None)
            continue
        out.append(slice(end, end + length))
        end += length
    return out


# -- host record batch ---------------------------------------------------------

#: Host flag bits packed into the record batch.
HOST_FLAG_MONLIST = 1 << 0
HOST_FLAG_VERSION = 1 << 1
HOST_FLAG_END_HOST = 1 << 2
HOST_FLAG_MEGA = 1 << 3
HOST_FLAG_DNS = 1 << 4

#: Big-endian serialized host record (MON_V1_DTYPE-style fixed layout).
#: ``ends`` is ``(monlist_end, version_end, exists_end)`` so liveness at
#: any instant is reconstructible from the batch alone.
HOST_DTYPE = np.dtype(
    [
        ("ip", ">u4"),
        ("asn", ">u4"),
        ("cluster_id", ">i8"),
        ("birth", ">f8"),
        ("monlist_end", ">f8"),
        ("version_end", ">f8"),
        ("exists_end", ">f8"),
        ("base_clients", ">u4"),
        ("loop_factor", ">u4"),
        ("impl", ">u1"),
        ("flags", ">u1"),
    ]
)

#: Big-endian serialized pulse record, lexsorted by (amplifier, end).
PULSE_DTYPE = np.dtype(
    [
        ("amp_ip", ">u4"),
        ("victim_ip", ">u4"),
        ("victim_port", ">u2"),
        ("mode", ">u1"),
        ("start", ">f8"),
        ("duration", ">f8"),
        ("query_count", ">i8"),
    ]
)

#: Big-endian serialized victim record.
VICTIM_DTYPE = np.dtype(
    [
        ("ip", ">u4"),
        ("asn", ">u4"),
        ("appear", ">f8"),
        ("until", ">f8"),
        ("popularity", ">f8"),
    ]
)


def host_record_batch(hosts, monlist_end, version_end, exists_end):
    """Serialize the full pool into one contiguous ``HOST_DTYPE`` array.

    ``*_end`` are the module-level end-time functions from
    :mod:`repro.population.amplifiers` (passed in to avoid a circular
    import).  Built column-at-a-time: one pass per field over the object
    list, everything else vectorized.
    """
    n = len(hosts)
    batch = np.zeros(n, dtype=HOST_DTYPE)
    batch["ip"] = [h.ip for h in hosts]
    batch["asn"] = [h.asn for h in hosts]
    batch["cluster_id"] = [h.cluster_id for h in hosts]
    batch["birth"] = [h.birth for h in hosts]
    batch["monlist_end"] = [monlist_end(h) for h in hosts]
    batch["version_end"] = [version_end(h) for h in hosts]
    batch["exists_end"] = [exists_end(h) for h in hosts]
    batch["base_clients"] = [h.base_clients for h in hosts]
    batch["loop_factor"] = [h.loop_factor for h in hosts]
    batch["impl"] = [max(h.implementations) if h.implementations else 0 for h in hosts]
    flags = np.zeros(n, dtype=np.uint8)
    flags |= np.array([h.monlist_amplifier for h in hosts], dtype=np.uint8) * HOST_FLAG_MONLIST
    flags |= np.array([h.responds_version for h in hosts], dtype=np.uint8) * HOST_FLAG_VERSION
    flags |= np.array([h.is_end_host for h in hosts], dtype=np.uint8) * HOST_FLAG_END_HOST
    flags |= np.array([h.is_mega for h in hosts], dtype=np.uint8) * HOST_FLAG_MEGA
    flags |= np.array([h.also_dns_resolver for h in hosts], dtype=np.uint8) * HOST_FLAG_DNS
    batch["flags"] = flags
    return batch


class MonlistColumns:
    """Native compute arrays aligned index-for-index to a pool's
    ``monlist_hosts`` list.

    ``reply_once`` is the vectorized twin of
    ``estimate_monlist_reply_bytes(host, include_loop=False)`` — the
    campaign's amplifier-ranking hot loop consumes it as one fancy-index
    instead of ~40 Python calls per attack.
    """

    __slots__ = (
        "ip",
        "birth",
        "monlist_end",
        "base_clients",
        "is_mega",
        "reply_once",
        "n_hosts",
    )

    def __init__(self, monlist_hosts):
        n = len(monlist_hosts)
        self.n_hosts = n
        self.ip = np.array([h.ip for h in monlist_hosts], dtype=np.int64)
        self.birth = np.array([h.birth for h in monlist_hosts], dtype=np.float64)
        from repro.population.amplifiers import _monlist_end

        self.monlist_end = np.array(
            [_monlist_end(h) for h in monlist_hosts], dtype=np.float64
        )
        self.base_clients = np.array(
            [h.base_clients for h in monlist_hosts], dtype=np.int64
        )
        self.is_mega = np.array([h.is_mega for h in monlist_hosts], dtype=bool)
        # estimate_monlist_reply_bytes(host, include_loop=False), exactly:
        # entries clamped to the 600-slot MRU, ceil-div into 6-entry
        # packets, 8B header + 72B/entry + 66B IP/UDP overhead per packet.
        entries = np.clip(self.base_clients, 1, 600)
        packets = (entries + 5) // 6
        self.reply_once = packets * 8 + entries * 72 + packets * 66

    def alive_mask(self, t):
        return (self.birth <= t) & (t < self.monlist_end)


class PulseColumns:
    """All attack pulses as flat arrays, lexsorted by (amplifier, end).

    Replaces per-object pulse registration in the amplifier state
    manager: the per-host sync becomes a ``searchsorted`` window over a
    contiguous slice instead of a bisect over a per-ip Python list.
    ``query_count`` is precomputed with ``AttackPulse``'s exact
    ``max(1, int(query_rate * duration))`` truncation.
    """

    __slots__ = (
        "amp_ip",
        "victim_ip",
        "victim_port",
        "mode",
        "start",
        "end",
        "duration",
        "query_count",
        "n_pulses",
    )

    def __init__(self, amp_ip, victim_ip, victim_port, mode, start, duration, query_rate):
        order = np.lexsort((start + duration, amp_ip))
        self.amp_ip = np.ascontiguousarray(amp_ip[order])
        self.victim_ip = np.ascontiguousarray(victim_ip[order])
        self.victim_port = np.ascontiguousarray(victim_port[order])
        self.mode = np.ascontiguousarray(mode[order])
        self.start = np.ascontiguousarray(start[order])
        self.duration = np.ascontiguousarray(duration[order])
        self.end = self.start + self.duration
        rate = query_rate[order]
        self.query_count = np.maximum(
            1, (rate * self.duration).astype(np.int64)
        )
        self.n_pulses = len(self.amp_ip)

    @classmethod
    def from_attacks(cls, attacks):
        """Columnarize every pulse of every attack without materializing
        ``AttackPulse`` objects (one ``np.repeat`` per attack field)."""
        counts = np.array([len(a.amplifiers) for a in attacks], dtype=np.int64)
        total = int(counts.sum())
        amp_ip = np.empty(total, dtype=np.int64)
        pos = 0
        for a in attacks:
            ips = a.amplifier_ips()
            amp_ip[pos : pos + len(ips)] = ips
            pos += len(ips)
        victim_ip = np.repeat(
            np.array([a.victim.ip for a in attacks], dtype=np.int64), counts
        )
        victim_port = np.repeat(
            np.array([a.port for a in attacks], dtype=np.int64), counts
        )
        mode = np.repeat(np.array([a.mode for a in attacks], dtype=np.int64), counts)
        start = np.repeat(
            np.array([a.start for a in attacks], dtype=np.float64), counts
        )
        duration = np.repeat(
            np.array([a.duration for a in attacks], dtype=np.float64), counts
        )
        rate = np.repeat(
            np.array([a.query_rate_per_amp for a in attacks], dtype=np.float64), counts
        )
        return cls(amp_ip, victim_ip, victim_port, mode, start, duration, rate)

    def ip_range(self, ip):
        """Half-open slice ``(lo, hi)`` of this amplifier's pulses."""
        lo = int(np.searchsorted(self.amp_ip, ip, side="left"))
        hi = int(np.searchsorted(self.amp_ip, ip, side="right"))
        return lo, hi

    def record_batch(self):
        """Big-endian ``PULSE_DTYPE`` serialization (fingerprint/render)."""
        batch = np.zeros(self.n_pulses, dtype=PULSE_DTYPE)
        batch["amp_ip"] = self.amp_ip
        batch["victim_ip"] = self.victim_ip
        batch["victim_port"] = self.victim_port
        batch["mode"] = self.mode
        batch["start"] = self.start
        batch["duration"] = self.duration
        batch["query_count"] = self.query_count
        return batch
