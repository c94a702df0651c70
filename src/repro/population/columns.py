"""Compute columns over the world core: hosts and attack legs as arrays.

The object layer (:class:`~repro.population.amplifiers.NtpHost`,
:class:`~repro.attack.campaign.AttackSpec`) stays the unit of
*semantics* — tests and analysis reason about individual hosts and
attacks.  This module is the unit of *throughput*:
:class:`MonlistColumns` and :class:`PulseColumns` are flat, native-endian
NumPy arrays aligned to the object lists, so hot loops (per-amplifier
pulse sync during ONP sweeps, reply-size estimation over booter lists)
run as liveness masks, ``searchsorted`` windows and vectorized estimates
over contiguous memory instead of chasing ~8.7M Python objects at
``scale=1.0``.  It also holds the block partition of the host build and
the concatenate-with-lengths helpers the packed world uses.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "HOST_BLOCKS",
    "balanced_split",
    "concat_with_lengths",
    "length_slices",
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
    """Every attack leg as flat arrays, lexsorted by (amplifier, end).

    One row per (attack, amplifier) pair: spoofed queries at
    ``query_rate`` per second for ``duration`` seconds.  The amplifier
    state manager's per-host sync is a ``searchsorted`` window over the
    host's contiguous slice.  ``end`` is ``start + duration`` and
    ``query_count`` is ``max(1, int(query_rate * duration))``.
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
        """Columnarize every leg of every attack (one ``np.repeat`` per
        attack field)."""
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
