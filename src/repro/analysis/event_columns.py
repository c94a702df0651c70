"""Columnar record-batch representation of the parsed monlist corpus.

The analysis layer's dominant per-query cost used to be materializing every
capture into Python objects (``MonitorEntry`` tuples, ``ReconstructedTable``
dataclasses) before any aggregation ran.  This module decodes the corpus
*directly* from :class:`~repro.measurement.capture_store.PackedCaptures`
blobs into three flat structured arrays — one row per sample, per table,
per monitor entry — in the big-endian ``MON_V1_DTYPE`` style the world core
adopted in PR 6.  Aggregation kernels (victimology, concentration, churn,
versions, timeseries) then run as NumPy group-bys over these columns, and
object views are materialized lazily only where a renderer still asks for
them.

:func:`decode_capture_batch` is the only capture decoder; the batch
corpus and the streaming engine both call it.  A single vectorized
validation pass over all packet headers classifies each capture,
well-formed captures are block-decoded straight out of the payload blob
(entry *objects* are never built), and any capture failing a check is
re-parsed from scratch by the salvage path,
:func:`~repro.analysis.monlist_parse.reconstruct_table_lenient` — so
hostile corpora produce the tables and :class:`ParseStats` that path
alone would, entry for entry and counter for counter.  A sample without
a packed store is packed first and decoded the same way.

The entries array is the memory ceiling at scale; :meth:`EventColumns
.maybe_spill` moves it through the same integrity-checked ``np.memmap``
spill machinery the capture store uses, and pickling re-inlines a spilled
payload so cache envelopes stay self-contained.
"""

from __future__ import annotations

import os

import numpy as np

from repro.measurement.capture_store import (
    map_spill,
    pack_captures,
    spill_threshold_bytes,
    sweep_stale_spills,
    write_spill,
)
from repro.net.framing import on_wire_bytes_array
from repro.ntp.constants import MODE7_HEADER_SIZE, MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE
from repro.ntp.wire import MonitorEntry, monitor_dtype_for
from repro.analysis.monlist_parse import (
    ParseStats,
    add_parse_calls,
    reconstruct_table_lenient,
)

__all__ = [
    "ENTRY_DTYPE",
    "TABLE_DTYPE",
    "SAMPLE_DTYPE",
    "EventColumns",
    "ColumnarSample",
    "CaptureBatch",
    "columns_for_sample",
    "build_event_columns",
    "decode_capture_batch",
]

#: One row per recovered monitor entry: the v2 on-wire field set packed
#: into 32 bytes (v1 entries leave ``restr`` zero, exactly as the object
#: decoder does).  Offsets match the leading 32 bytes of ``MON_V2_DTYPE``.
ENTRY_DTYPE = np.dtype(
    {
        "names": ["last", "first", "restr", "count", "addr", "daddr", "flags", "port", "mode", "version"],
        "formats": [">u4", ">u4", ">u4", ">u4", ">u4", ">u4", ">u4", ">u2", "u1", "u1"],
        "offsets": [0, 4, 8, 12, 16, 20, 24, 28, 30, 31],
        "itemsize": 32,
    }
)

#: One row per reconstructed table (= per parsed capture), mirroring the
#: scalar fields of :class:`~repro.analysis.monlist_parse.ReconstructedTable`;
#: ``entry_start``/``entry_count`` index into the entries array.
TABLE_DTYPE = np.dtype(
    {
        "names": [
            "sample",
            "amplifier",
            "entry_size",
            "n_packets_once",
            "n_repeats",
            "payload_once",
            "wire_once",
            "entry_start",
            "entry_count",
        ],
        "formats": [">u4", ">u4", ">u2", ">u4", ">u4", ">u8", ">u8", ">u8", ">u4"],
    }
)

_STAT_FIELDS = tuple(ParseStats.__dataclass_fields__)

#: One row per weekly sample: the apparatus flags plus the full
#: :class:`ParseStats` counter block; ``table_start``/``table_count``
#: index into the tables array.
SAMPLE_DTYPE = np.dtype(
    {
        "names": ["t", "outage", "coverage", "table_start", "table_count", *_STAT_FIELDS],
        "formats": [">f8", "u1", ">f8", ">u8", ">u4"] + [">u8"] * len(_STAT_FIELDS),
    }
)


def _gather_ranges(starts, counts):
    """Indices covering ``range(starts[i], starts[i]+counts[i])`` for all i.

    The standard repeat/arange gather: turns per-segment (start, count)
    pairs into one flat index array without a Python loop.  The index
    array itself is the dominant memory traffic of the byte-level body
    gather, so it is built in int32 whenever the addressed range fits —
    a ~2x throughput win on narrow cores — with a lossless int64
    fallback for larger stores.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    heads = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=heads[1:])
    base = starts - heads
    lo = int(base.min())
    if -(2**31) < lo and int(base.max()) + total < 2**31:
        return np.repeat(base.astype(np.int32), counts) + np.arange(
            total, dtype=np.int32
        )
    return np.repeat(base, counts) + np.arange(total, dtype=np.int64)


def _segment_sum(values, offsets):
    """Per-segment sums of ``values`` under prefix-sum ``offsets``.

    The cumsum-difference form handles empty segments uniformly (where
    ``np.add.reduceat`` would not).
    """
    cs = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    return cs[offsets[1:]] - cs[offsets[:-1]]


class EventColumns:
    """The parsed corpus as three flat structured arrays.

    ``samples``/``tables``/``entries`` hold big-endian rows (dtypes above);
    native-endian int64/float64 conversions of hot columns are memoized via
    :meth:`entry_native`/:meth:`table_native` so each kernel pays the
    byteswap once.
    """

    __slots__ = ("samples", "tables", "entries", "_native", "_views", "_toe")

    def __init__(self, samples, tables, entries):
        self.samples = samples
        self.tables = tables
        self.entries = entries
        self._native = {}
        self._views = None
        self._toe = None

    # -- shape -------------------------------------------------------------

    @property
    def n_samples(self):
        return len(self.samples)

    @property
    def n_tables(self):
        return len(self.tables)

    @property
    def n_entries(self):
        return len(self.entries)

    # -- native-endian column memos ---------------------------------------

    def entry_native(self, name):
        """The named entries column as a native int64 array (memoized)."""
        key = ("e", name)
        col = self._native.get(key)
        if col is None:
            col = self.entries[name].astype(np.int64)
            self._native[key] = col
        return col

    def table_native(self, name):
        """The named tables column as a native int64 array (memoized)."""
        key = ("t", name)
        col = self._native.get(key)
        if col is None:
            col = self.tables[name].astype(np.int64)
            self._native[key] = col
        return col

    def table_of_entry(self):
        """Table index of each entry row (memoized ``np.repeat``)."""
        if self._toe is None:
            self._toe = np.repeat(
                np.arange(self.n_tables, dtype=np.int64), self.table_native("entry_count")
            )
        return self._toe

    # -- per-sample access -------------------------------------------------

    def sample_table_span(self, index):
        """``(lo, hi)`` slice of the tables array for sample ``index``."""
        lo = int(self.samples["table_start"][index])
        return lo, lo + int(self.samples["table_count"][index])

    def sample_entry_span(self, index):
        """``(lo, hi)`` slice of the entries array for sample ``index``."""
        t_lo, t_hi = self.sample_table_span(index)
        if t_hi == t_lo:
            return 0, 0
        starts = self.table_native("entry_start")
        counts = self.table_native("entry_count")
        return int(starts[t_lo]), int(starts[t_hi - 1] + counts[t_hi - 1])

    def stats_of(self, index):
        """The :class:`ParseStats` recorded for sample ``index``."""
        row = self.samples[index]
        return ParseStats(**{name: int(row[name]) for name in _STAT_FIELDS})

    def sample_views(self):
        """One :class:`ColumnarSample` per sample row (memoized).

        Each exposes the sample's flags, :class:`ParseStats`, and lazily
        materialized tables and entries.
        """
        if self._views is None:
            self._views = [ColumnarSample(self, i) for i in range(self.n_samples)]
        return self._views

    # -- assembly ----------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls(
            np.zeros(0, dtype=SAMPLE_DTYPE),
            np.zeros(0, dtype=TABLE_DTYPE),
            np.zeros(0, dtype=ENTRY_DTYPE),
        )

    @classmethod
    def concat(cls, parts):
        """Merge per-sample parts in order, rebasing the index columns."""
        parts = [p for p in parts if p is not None]
        if not parts:
            return cls.empty()
        s_parts, t_parts, e_parts = [], [], []
        s_base = t_base = e_base = 0
        for part in parts:
            s = part.samples.copy()
            s["table_start"] = s["table_start"].astype(np.int64) + t_base
            t = part.tables.copy()
            t["sample"] = t["sample"].astype(np.int64) + s_base
            t["entry_start"] = t["entry_start"].astype(np.int64) + e_base
            s_parts.append(s)
            t_parts.append(t)
            e_parts.append(np.asarray(part.entries))
            s_base += len(part.samples)
            t_base += len(part.tables)
            e_base += len(part.entries)
        # np.concatenate (NumPy >= 2) normalizes structured results to
        # native byte order; cast back so the batch keeps the canonical
        # big-endian layout its spill/fingerprint consumers assume.
        return cls(
            np.concatenate(s_parts).astype(SAMPLE_DTYPE, copy=False),
            np.concatenate(t_parts).astype(TABLE_DTYPE, copy=False),
            np.concatenate(e_parts).astype(ENTRY_DTYPE, copy=False),
        )

    # -- spill -------------------------------------------------------------

    def maybe_spill(self, threshold=None):
        """Move the entries blob into an unlinked memmap spill file past the
        threshold (``REPRO_SPILL_MB``); a no-op below it or if already
        mapped.  Returns ``self`` so it chains after :meth:`concat`."""
        base = self.entries.base
        if isinstance(base, np.memmap) or isinstance(self.entries, np.memmap):
            return self
        if self.entries.nbytes == 0:
            return self
        if threshold is None:
            threshold = spill_threshold_bytes()
        if self.entries.nbytes <= threshold:
            return self
        sweep_stale_spills()
        dtype = self.entries.dtype  # never assume: concat may have recast
        path = write_spill(self.entries.tobytes())
        try:
            mapped = map_spill(path)
        finally:
            os.unlink(path)
        self.entries = mapped.view(dtype)
        return self

    # -- pickling ----------------------------------------------------------
    # Cache envelopes and worker→parent transport must be self-contained:
    # a spilled entries array is re-inlined, and derived memos are dropped.

    def __getstate__(self):
        entries = self.entries
        if isinstance(entries.base, np.memmap) or isinstance(entries, np.memmap):
            entries = np.asarray(entries).copy()
        return {"samples": self.samples, "tables": self.tables, "entries": entries}

    def __setstate__(self, state):
        self.samples = state["samples"]
        self.tables = state["tables"]
        self.entries = state["entries"]
        self._native = {}
        self._views = None
        self._toe = None


class _TableView:
    """A :class:`ReconstructedTable`-shaped view of one tables row.

    Scalar fields read straight out of the columns; ``entries`` lazily
    materializes :class:`MonitorEntry` objects only when a renderer still
    needs them.
    """

    __slots__ = ("_cols", "_index", "_entries")

    def __init__(self, cols, index):
        self._cols = cols
        self._index = index
        self._entries = None

    @property
    def amplifier_ip(self):
        return int(self._cols.tables["amplifier"][self._index])

    @property
    def t(self):
        sample = int(self._cols.tables["sample"][self._index])
        return float(self._cols.samples["t"][sample])

    @property
    def entry_size(self):
        return int(self._cols.tables["entry_size"][self._index])

    @property
    def n_packets_once(self):
        return int(self._cols.tables["n_packets_once"][self._index])

    @property
    def n_repeats(self):
        return int(self._cols.tables["n_repeats"][self._index])

    @property
    def payload_bytes_once(self):
        return int(self._cols.tables["payload_once"][self._index])

    @property
    def on_wire_bytes_once(self):
        return int(self._cols.tables["wire_once"][self._index])

    @property
    def total_packets(self):
        return self.n_packets_once * self.n_repeats

    @property
    def total_on_wire_bytes(self):
        return self.on_wire_bytes_once * self.n_repeats

    @property
    def total_payload_bytes(self):
        return self.payload_bytes_once * self.n_repeats

    @property
    def is_mega(self):
        return self.n_repeats > 1

    def __len__(self):
        return int(self._cols.tables["entry_count"][self._index])

    @property
    def entries(self):
        if self._entries is None:
            cols, index = self._cols, self._index
            lo = int(cols.tables["entry_start"][index])
            seg = cols.entries[lo : lo + len(self)]
            cells = {name: seg[name].tolist() for name in ENTRY_DTYPE.names}
            new = MonitorEntry.__new__
            out = []
            append = out.append
            for k in range(len(seg)):
                entry = new(MonitorEntry)
                entry.__dict__.update(
                    last_int=cells["last"][k],
                    first_int=cells["first"][k],
                    count=cells["count"][k],
                    addr=cells["addr"][k],
                    daddr=cells["daddr"][k],
                    flags=cells["flags"][k],
                    port=cells["port"][k],
                    mode=cells["mode"][k],
                    version=cells["version"][k],
                    restr=cells["restr"][k],
                )
                append(entry)
            self._entries = tuple(out)
        return self._entries


class _TableList:
    """Lazy list of :class:`_TableView` for one sample's tables slice."""

    __slots__ = ("_cols", "_lo", "_hi", "_views")

    def __init__(self, cols, lo, hi):
        self._cols = cols
        self._lo = lo
        self._hi = hi
        self._views = None

    def __len__(self):
        return self._hi - self._lo

    def __bool__(self):
        return self._hi > self._lo

    def _materialized(self):
        if self._views is None:
            self._views = [_TableView(self._cols, i) for i in range(self._lo, self._hi)]
        return self._views

    def __getitem__(self, key):
        return self._materialized()[key]

    def __iter__(self):
        return iter(self._materialized())


class ColumnarSample:
    """A view of one samples row: flags, stats, and lazy tables."""

    __slots__ = ("_cols", "_index", "_stats", "_tables", "_ip_cache")

    def __init__(self, cols, index):
        self._cols = cols
        self._index = index
        self._stats = None
        self._tables = None
        self._ip_cache = None

    @property
    def columns(self):
        """The backing :class:`EventColumns` (shared across samples)."""
        return self._cols

    @property
    def sample_index(self):
        return self._index

    @property
    def t(self):
        return float(self._cols.samples["t"][self._index])

    @property
    def outage(self):
        return bool(self._cols.samples["outage"][self._index])

    @property
    def coverage(self):
        return float(self._cols.samples["coverage"][self._index])

    @property
    def stats(self):
        if self._stats is None:
            self._stats = self._cols.stats_of(self._index)
        return self._stats

    @property
    def tables(self):
        if self._tables is None:
            lo, hi = self._cols.sample_table_span(self._index)
            self._tables = _TableList(self._cols, lo, hi)
        return self._tables

    def __len__(self):
        return len(self.tables)

    def amplifier_ips(self):
        """The set of amplifier IPs with a parsed table (cached)."""
        if self._ip_cache is None:
            lo, hi = self._cols.sample_table_span(self._index)
            self._ip_cache = set(self._cols.table_native("amplifier")[lo:hi].tolist())
        return self._ip_cache


# ---------------------------------------------------------------------------
# Decoding: PackedCaptures blob -> columns


class CaptureBatch:
    """Columnar decode of a subset of one :class:`PackedCaptures`.

    One row per capture that yielded a table, in ``cap_idx`` order;
    ``entries`` is the flat per-entry array indexed by ``entry_start``
    (prefix sums) and ``entry_counts``.  Produced by
    :func:`decode_capture_batch`, consumed both by the full-corpus column
    builder and by the streaming engine's micro-batch flush.
    """

    __slots__ = (
        "cap_positions",
        "amplifier",
        "entry_size",
        "entry_counts",
        "entry_start",
        "entries",
        "n_packets_once",
        "n_repeats",
        "payload_once",
        "wire_once",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])


def decode_capture_batch(packed, cap_idx, stats):
    """Vectorized fast/lenient decode of captures ``cap_idx`` of ``packed``.

    The vectorized header pass checks every selected packet at once for
    what makes a capture regular: response+mode-7 bits, one
    implementation, one supported item size, contiguous ascending
    sequence numbers, and a data area exactly ``n_items * item_size``
    long.  Regular captures are block-copied into the entries array and
    advance ``stats`` exactly as the lenient path would on them (one ok
    capture, all entries recovered, nothing discarded); captures that
    fail are handed — whole — to :func:`reconstruct_table_lenient`, so
    ``stats`` advances identically to that path alone (the counters are
    additive, hence order-free).  ``cap_idx`` may be any
    subset in any order — all gathers run over explicit index arrays with
    batch-local segment offsets — which is what lets the streaming engine
    decode whatever landed in one window without re-slicing the store.
    """
    cap_idx = np.asarray(cap_idx, dtype=np.int64)
    n_cap = len(cap_idx)
    pkt_counts_all = np.asarray(packed.pkt_counts, dtype=np.int64)
    pkt_offsets_all = np.asarray(packed.pkt_offsets, dtype=np.int64)
    lens_all = np.asarray(packed.pkt_lens, dtype=np.int64)
    byte_offsets = np.asarray(packed.byte_offsets, dtype=np.int64)
    payload = packed.payload
    n_bytes = int(byte_offsets[-1]) if len(byte_offsets) else 0

    counts = pkt_counts_all[cap_idx]
    # Batch-local prefix sums: segment i of the gathered packet arrays is
    # loc_off[i]:loc_off[i+1].
    loc_off = np.zeros(n_cap + 1, dtype=np.int64)
    np.cumsum(counts, out=loc_off[1:])
    n_pkt = int(loc_off[-1])
    # The repeat/arange gather, spelled so its intermediates are shared:
    # rep_head and within are exactly the terms the per-packet checks
    # below need again (fixed numpy-op overhead dominates at this batch
    # size, so every op fused away is measurable).
    rep_head = np.repeat(loc_off[:-1], counts)
    within = np.arange(n_pkt, dtype=np.int64) - rep_head
    pkt_idx = np.repeat(pkt_offsets_all[cap_idx], counts) + within
    lens = lens_all[pkt_idx]

    # An empty capture fails wholesale in the lenient path (nothing to
    # salvage); account the whole batch without visiting each one.
    empty = counts == 0
    n_empty = int(empty.sum())
    stats.captures_total += n_empty
    stats.captures_failed += n_empty

    if n_cap and n_pkt and n_bytes:
        starts = byte_offsets[:-1][pkt_idx]
        # Header gather, clipped so short packets read in-bounds garbage
        # that ok_len then masks out.
        hdr_idx = np.minimum(
            starts[:, None] + np.arange(MODE7_HEADER_SIZE, dtype=np.int64), n_bytes - 1
        )
        hdr = payload[hdr_idx].astype(np.int64)
        byte0 = hdr[:, 0]
        impl = hdr[:, 2]
        n_items = ((hdr[:, 4] << 8) | hdr[:, 5]) & 0x0FFF
        size_f = ((hdr[:, 6] << 8) | hdr[:, 7]) & 0x0FFF
        seq = hdr[:, 1] & 0x7F

        ok_len = lens >= MODE7_HEADER_SIZE
        resp_ok = (byte0 & 0x87) == 0x87

        first_idx = np.minimum(loc_off[:-1], n_pkt - 1)
        cap_impl = impl[first_idx]
        cap_seq0 = seq[first_idx]
        cap_item = size_f[first_idx]
        cap_item_valid = (cap_item == MON_ENTRY_V1_SIZE) | (cap_item == MON_ENTRY_V2_SIZE)

        # One stacked repeat broadcasts all three per-capture header
        # fields to packet granularity (vs. one repeat per field).
        rep = np.repeat(np.stack((cap_impl, cap_item, cap_seq0)), counts, axis=1)
        r_item = rep[1]
        pkt_ok = (
            ok_len
            & resp_ok
            & (impl == rep[0])
            & (size_f == r_item)
            & (seq == rep[2] + within)
            & (lens - MODE7_HEADER_SIZE == n_items * r_item)
        )
        # All four per-capture reductions share one stacked cumsum.
        stacked = np.stack(
            (pkt_ok.astype(np.int64), n_items, lens, on_wire_bytes_array(lens))
        )
        cs = np.zeros((4, n_pkt + 1), dtype=np.int64)
        np.cumsum(stacked, axis=1, out=cs[:, 1:])
        segs = cs[:, loc_off[1:]] - cs[:, loc_off[:-1]]
        ok_counts, items_per_cap, payload_per_cap, wire_per_cap = segs
        regular = (~empty) & cap_item_valid & (ok_counts == counts)
    else:
        cap_item = np.zeros(n_cap, dtype=np.int64)
        items_per_cap = np.zeros(n_cap, dtype=np.int64)
        payload_per_cap = np.zeros(n_cap, dtype=np.int64)
        wire_per_cap = np.zeros(n_cap, dtype=np.int64)
        regular = np.zeros(n_cap, dtype=bool)

    n_reg = int(regular.sum())
    stats.captures_total += n_reg
    stats.captures_ok += n_reg
    stats.entries_recovered += int(items_per_cap[regular].sum())

    # Irregular captures: the whole capture re-parses through the lenient
    # salvage path, whose bookkeeping starts from scratch.
    fallback = {}
    for pos in np.flatnonzero(~empty & ~regular).tolist():
        table = reconstruct_table_lenient(packed.view(int(cap_idx[pos])), stats)
        if table is not None:
            fallback[pos] = table

    has_table = regular.copy()
    for pos in fallback:
        has_table[pos] = True
    tbl_caps = np.flatnonzero(has_table)
    n_tbl = len(tbl_caps)

    tbl_pos = np.full(n_cap, -1, dtype=np.int64)
    tbl_pos[tbl_caps] = np.arange(n_tbl, dtype=np.int64)
    entry_counts = items_per_cap[tbl_caps].copy()
    entry_size_per = cap_item[tbl_caps].copy()
    for pos, table in fallback.items():
        row = int(tbl_pos[pos])
        entry_counts[row] = len(table.entries)
        entry_size_per[row] = table.entry_size
    entry_start = np.zeros(n_tbl + 1, dtype=np.int64)
    np.cumsum(entry_counts, out=entry_start[1:])
    n_entries = int(entry_start[-1])

    entries = np.zeros(n_entries, dtype=ENTRY_DTYPE)
    if n_entries:
        # Regular captures: one grouped body gather + structured view per
        # item size.  Body bytes of a regular capture are exactly
        # n_items * item_size, so the concatenated blob reinterprets
        # losslessly.
        for item_size in (MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE):
            sel_caps = np.flatnonzero(regular & (cap_item == item_size) & (items_per_cap > 0))
            if not len(sel_caps):
                continue
            wire_dtype = monitor_dtype_for(item_size)
            sub_pkt = _gather_ranges(loc_off[sel_caps], counts[sel_caps])
            body_starts = byte_offsets[:-1][pkt_idx[sub_pkt]] + MODE7_HEADER_SIZE
            body_lens = lens[sub_pkt] - MODE7_HEADER_SIZE
            blob = np.ascontiguousarray(payload[_gather_ranges(body_starts, body_lens)])
            src = blob.view(wire_dtype)
            if len(sel_caps) == n_tbl and len(src) == n_entries:
                # Every table is regular with this item size, so the
                # destination rows are exactly 0..n_entries in order —
                # field-copy by slice instead of a fancy scatter.
                for name in wire_dtype.names:
                    entries[name][:] = src[name]
            else:
                dest = _gather_ranges(entry_start[:-1][tbl_pos[sel_caps]], items_per_cap[sel_caps])
                for name in wire_dtype.names:
                    entries[name][dest] = src[name]
        # Fallback tables: convert the salvaged entry objects row by row
        # (rare by construction — only fault-irregular captures land here).
        for pos, table in fallback.items():
            lo = int(entry_start[int(tbl_pos[pos])])
            seg = entries[lo : lo + len(table.entries)]
            for j, e in enumerate(table.entries):
                seg[j] = (
                    e.last_int,
                    e.first_int,
                    e.restr,
                    e.count,
                    e.addr,
                    e.daddr,
                    e.flags,
                    e.port,
                    e.mode,
                    e.version,
                )

    sel = cap_idx[tbl_caps]
    return CaptureBatch(
        cap_positions=tbl_caps,
        amplifier=np.asarray(packed.target_ips, dtype=np.int64)[sel],
        entry_size=entry_size_per,
        entry_counts=entry_counts,
        entry_start=entry_start,
        entries=entries,
        n_packets_once=counts[tbl_caps],
        n_repeats=np.asarray(packed.n_repeats, dtype=np.int64)[sel],
        payload_once=payload_per_cap[tbl_caps],
        wire_once=wire_per_cap[tbl_caps],
    )


def columns_for_sample(sample):
    """Decode one ONP sample into a single-sample :class:`EventColumns`.

    A sample without a packed store (an outage gap, a test fixture) is
    packed first, so every sample goes through the one decoder.  Advances
    the parse-once ledger by one.
    """
    add_parse_calls(1)
    packed = getattr(sample, "packed", None)
    if packed is None:
        packed = pack_captures(sample.captures, sample.t)
    stats = ParseStats()
    batch = decode_capture_batch(packed, np.arange(len(packed), dtype=np.int64), stats)
    n_tbl = len(batch.amplifier)

    tables = np.zeros(n_tbl, dtype=TABLE_DTYPE)
    if n_tbl:
        tables["amplifier"] = batch.amplifier
        tables["entry_size"] = batch.entry_size
        tables["n_packets_once"] = batch.n_packets_once
        tables["n_repeats"] = batch.n_repeats
        tables["payload_once"] = batch.payload_once
        tables["wire_once"] = batch.wire_once
        tables["entry_start"] = batch.entry_start[:-1]
        tables["entry_count"] = batch.entry_counts

    row = np.zeros(1, dtype=SAMPLE_DTYPE)
    row["t"] = sample.t
    row["outage"] = 1 if getattr(sample, "outage", False) else 0
    row["coverage"] = getattr(sample, "coverage", 1.0)
    row["table_start"] = 0
    row["table_count"] = n_tbl
    for name in _STAT_FIELDS:
        row[name] = getattr(stats, name)
    return EventColumns(row, tables, batch.entries)


def _columns_task(samples, index):
    """One shard-pool task: decode sample ``index`` of the shared list."""
    return columns_for_sample(samples[index])


def build_event_columns(samples, jobs=1, runner=None):
    """Decode a corpus of ONP samples into one :class:`EventColumns`.

    Per-sample decodes run through the supervised shard pool in input
    order (results identical at any ``--jobs``), pooled workers'
    parse-call increments are mirrored into the parent ledger, and the
    merged entries blob spills past ``REPRO_SPILL_MB``.
    """
    from repro.util.pool import ShardRunner

    samples = list(samples)
    if runner is None:
        runner = ShardRunner(jobs)
    parts = runner.map(
        "parse", _columns_task, samples, len(samples), min_tasks=2 * max(1, runner.jobs)
    )
    stat = runner.stats["parse"]
    pooled = sum(1 for source in stat["task_source"] if source == "pooled")
    if pooled:
        add_parse_calls(pooled)
    return EventColumns.concat(parts).maybe_spill()
