"""Columnar record-batch representation of the parsed monlist corpus.

The analysis layer's dominant per-query cost used to be materializing every
capture into Python objects (``MonitorEntry`` tuples, ``ReconstructedTable``
dataclasses) before any aggregation ran.  This module decodes the corpus
*directly* from :class:`~repro.measurement.capture_store.PackedCaptures`
blobs into three flat structured arrays — one row per sample, per table,
per monitor entry — in the big-endian ``MON_V1_DTYPE`` style the world core
adopted in PR 6.  Aggregation kernels (victimology, concentration, churn,
versions, timeseries) then run as NumPy group-bys over these columns, and
every reader of the corpus reads these columns: no table or entry objects
are built from them.

:func:`decode_capture_batch` is the only capture decoder; the batch
corpus and the streaming engine both call it.  It works on a *stride-1
record view* of the payload blob, whose element ``i`` is the fixed-size
record starting at byte ``i``: one fancy index gathers every packet's
8-byte header, and one more gathers every kept monitor entry as a whole
record (entry *objects* are never built).  Captures whose packets are
each well formed are reassembled in NumPy — in arrival order when their
sequence numbers already count up, else under the salvage path's own
rule (first copy of a sequence wins, the run from the lowest sequence is
kept).  Only a capture with a malformed packet is re-parsed from scratch
by the salvage path,
:func:`~repro.analysis.monlist_parse.reconstruct_table_lenient` — so
hostile corpora produce the tables and :class:`ParseStats` that path
alone would, entry for entry and counter for counter.

The entries array is the memory ceiling at scale; :meth:`EventColumns
.maybe_spill` moves it through the same integrity-checked ``np.memmap``
spill machinery the capture store uses.
"""

from __future__ import annotations

import os

import numpy as np

from repro.measurement.capture_store import (
    map_spill,
    spill_threshold_bytes,
    sweep_stale_spills,
    write_spill,
)
from repro.net.framing import on_wire_bytes_array
from repro.ntp.constants import MODE7_HEADER_SIZE, MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE
from repro.ntp.wire import MON_V1_DTYPE
from repro.analysis.monlist_parse import ParseStats, reconstruct_table_lenient

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


#: The 8-byte mode-7 header as one record: byte 0 (response, more,
#: version, mode), sequence, implementation, request code, err|n_items,
#: item size.
_HEADER_DTYPE = np.dtype(
    [("flags", "u1"), ("seq", "u1"), ("impl", "u1"), ("req", "u1"), ("items", ">u2"), ("size", ">u2")]
)
assert _HEADER_DTYPE.itemsize == MODE7_HEADER_SIZE


def _gather_ranges(starts, counts, step=1):
    """``starts[i] + step*k`` for ``k in range(counts[i])``, over all i.

    The standard repeat/arange gather: turns per-segment (start, count)
    pairs into one flat int64 index array without a Python loop.
    ``step`` is a scalar or one value per segment; a record size turns
    packet body offsets into entry offsets.
    """
    heads = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=heads[1:])
    ramp = np.arange(int(counts.sum()), dtype=np.int64)
    if np.ndim(step):
        ramp *= np.repeat(step, counts)
    elif step != 1:
        ramp *= step
    ramp += np.repeat(starts - step * heads, counts)
    return ramp


def _segment_sums(rows, offsets):
    """Per-segment sums of each row of ``rows`` under prefix-sum ``offsets``.

    One stacked cumsum serves every row; the cumsum-difference form
    handles empty segments uniformly (where ``np.add.reduceat`` would not).
    """
    cs = np.zeros((len(rows), rows.shape[1] + 1), dtype=np.int64)
    np.cumsum(rows, axis=1, out=cs[:, 1:])
    return cs[:, offsets[1:]] - cs[:, offsets[:-1]]


#: An entry row as raw bytes.  Rows are gathered, scattered and spliced
#: as these: NumPy copies a structured dtype field by field, ~8-15x
#: slower than one ``memcpy`` of the record.  A v1 entry is exactly one
#: such record, a v2 entry's first 32 bytes are one.
_ENTRY_RECORD = np.dtype(f"V{ENTRY_DTYPE.itemsize}")
assert _ENTRY_RECORD.itemsize == MON_ENTRY_V1_SIZE


def _record_view(payload, size):
    """The stride-1 record view of ``payload``: element ``i`` is the raw
    ``size``-byte record that starts at byte ``i``.

    One fancy index into it copies whole records; callers ``.view`` the
    contiguous result as the dtype they need.  Empty when the payload is
    shorter than one record.
    """
    n = max(len(payload) - size + 1, 0)
    return np.ndarray(shape=(n,), dtype=f"V{size}", buffer=payload, strides=(1,))


class EventColumns:
    """The parsed corpus as three flat structured arrays.

    ``samples``/``tables``/``entries`` hold big-endian rows (dtypes above);
    native-endian int64/float64 conversions of hot columns are memoized via
    :meth:`entry_native`/:meth:`table_native` so each kernel pays the
    byteswap once.
    """

    __slots__ = ("samples", "tables", "entries", "_native", "_views")

    def __init__(self, samples, tables, entries):
        self.samples = samples
        self.tables = tables
        self.entries = entries
        self._native = {}
        self._views = None

    # -- shape -------------------------------------------------------------

    @property
    def n_samples(self):
        return len(self.samples)

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

        Each exposes the sample's flags, :class:`ParseStats` and table
        count; its tables and entries are read through the spans above.
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


class ColumnarSample:
    """A view of one samples row: flags, stats, and its slice of the
    tables columns (``len`` is its table count)."""

    __slots__ = ("_cols", "_index", "_stats", "_ip_cache")

    def __init__(self, cols, index):
        self._cols = cols
        self._index = index
        self._stats = None
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

    def __len__(self):
        lo, hi = self._cols.sample_table_span(self._index)
        return hi - lo

    def table_column(self, name):
        """The named tables column over this sample's tables, as native
        int64 (a slice of the memoized corpus column)."""
        lo, hi = self._cols.sample_table_span(self._index)
        return self._cols.table_native(name)[lo:hi]

    def amplifier_ips(self):
        """The set of amplifier IPs with a parsed table (cached)."""
        if self._ip_cache is None:
            self._ip_cache = set(self.table_column("amplifier").tolist())
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


def _reassemble(seq, n_items, loc_off, counts, caps):
    """:func:`reconstruct_table_lenient`'s reassembly rule, vectorized.

    ``caps`` are batch-local positions of well-formed captures whose
    packets are not already in sequence order.  Their packets are sorted
    by (capture, sequence, arrival); the first copy of a sequence wins
    and each capture keeps the contiguous run from its lowest sequence.
    Returns ``(slots, order, kept, sums)``: the captures' packet
    positions, the packet that goes in each of those positions once
    sorted, which of the sorted packets are kept, and per-capture rows
    of duplicate packets, packets after a gap, entries discarded with
    them, and entries kept.
    """
    cap_counts = counts[caps]
    slots = _gather_ranges(loc_off[caps], cap_counts)
    owner = np.repeat(np.arange(len(caps), dtype=np.int64), cap_counts)
    # Sequences are 7-bit, so (capture, sequence) packs into one key; the
    # stable sort keeps arrival order among copies of one sequence.
    order = slots[np.argsort(owner * 128 + seq[slots], kind="stable")]
    s_seq = seq[order]
    s_items = n_items[order]
    heads = np.zeros(len(caps) + 1, dtype=np.int64)
    np.cumsum(cap_counts, out=heads[1:])
    first_copy = np.ones(len(order), dtype=bool)
    np.not_equal(s_seq[1:], s_seq[:-1], out=first_copy[1:])
    first_copy[heads[:-1]] = True
    # Rank of each first copy among its capture's distinct sequences: the
    # run from the lowest sequence is where sequence - lowest == rank.
    rank = np.cumsum(first_copy)
    rank -= np.repeat(rank[heads[:-1]], cap_counts)
    kept = first_copy & (s_seq - np.repeat(s_seq[heads[:-1]], cap_counts) == rank)
    gap = first_copy & ~kept
    sums = _segment_sums(np.stack((~first_copy, gap, gap * s_items, kept * s_items)), heads)
    return slots, order, kept, sums


def _entry_rows(payload, body, items, sizes):
    """``ENTRY_DTYPE`` rows of the ``items[i]`` entries of ``sizes[i]``
    bytes each that start at ``body[i]``.

    One gather through the stride-1 record view copies each entry's
    leading 32 bytes: a v2 entry's are ``ENTRY_DTYPE`` as they stand (its
    40-byte tail is never read); a v1 entry is its whole
    ``MON_V1_DTYPE`` record, copied field by field into place.
    """
    step = int(sizes[0]) if len(sizes) and (sizes == sizes[0]).all() else sizes
    records = _record_view(payload, _ENTRY_RECORD.itemsize)[
        _gather_ranges(body, items, step=step)
    ]
    v1_packets = sizes == MON_ENTRY_V1_SIZE
    if v1_packets.any():
        v1 = np.repeat(v1_packets, items)
        wire = records[v1].view(MON_V1_DTYPE)
        rows = np.zeros(len(wire), dtype=ENTRY_DTYPE)
        for name in MON_V1_DTYPE.names:
            rows[name] = wire[name]
        records[v1] = rows.view(_ENTRY_RECORD)
    return records.view(ENTRY_DTYPE)


def _object_rows(table):
    """A salvaged table's entry objects as ``ENTRY_DTYPE`` rows."""
    return np.array(
        [
            (e.last_int, e.first_int, e.restr, e.count, e.addr, e.daddr, e.flags, e.port, e.mode, e.version)
            for e in table.entries
        ],
        dtype=ENTRY_DTYPE,
    )


def decode_capture_batch(packed, cap_idx, stats):
    """Decode captures ``cap_idx`` of ``packed`` into one :class:`CaptureBatch`.

    One pass over the selected packets' headers, each gathered as one
    8-byte record, splits the captures three ways:

    * **in order** — every packet is a response in mode 7 with the first
      packet's implementation and (supported) item size, a data area
      exactly ``n_items * item_size`` long, and sequence numbers
      counting up from the first packet's.  Nothing is discarded; the
      entries are gathered in arrival order.
    * **reordered** — every packet passes those checks except the last.
      These captures alone are sorted by (capture, sequence, arrival) and
      reassembled under :func:`reconstruct_table_lenient`'s rule: the
      first copy of a sequence wins and the contiguous run from the lowest
      sequence is kept.  Duplicates, packets after a gap and their
      entries are counted as that function counts them.
    * **malformed** — anything else (truncation, a flipped header bit,
      mixed implementations, an empty capture) is handed, whole, to
      :func:`reconstruct_table_lenient`, whose bookkeeping starts from
      scratch.

    Entries of the first two kinds are gathered with one fancy index
    into the payload's stride-1 record view, one whole record per entry.
    ``stats`` advances exactly as the lenient path alone would advance it
    on every capture (the counters are additive, hence order-free).
    ``cap_idx`` may be any subset in any order — all gathers run over
    explicit index arrays with batch-local segment offsets — which is
    what lets the streaming engine decode whatever landed in one window
    without re-slicing the store.
    """
    cap_idx = np.asarray(cap_idx, dtype=np.int64)
    n_cap = len(cap_idx)
    counts = np.asarray(packed.pkt_counts, dtype=np.int64)[cap_idx]
    # Batch-local prefix sums: segment i of the gathered packet arrays is
    # loc_off[i]:loc_off[i+1].
    loc_off = np.zeros(n_cap + 1, dtype=np.int64)
    np.cumsum(counts, out=loc_off[1:])
    n_pkt = int(loc_off[-1])
    within = np.arange(n_pkt, dtype=np.int64) - np.repeat(loc_off[:-1], counts)
    pkt_idx = np.repeat(np.asarray(packed.pkt_offsets, dtype=np.int64)[cap_idx], counts) + within
    lens = np.asarray(packed.pkt_lens, dtype=np.int64)[pkt_idx]
    starts = np.asarray(packed.byte_offsets, dtype=np.int64)[pkt_idx]
    payload = packed.payload

    # An empty capture fails wholesale in the lenient path (nothing to
    # salvage); account the whole batch without visiting each one.
    empty = counts == 0
    n_empty = int(empty.sum())
    stats.captures_total += n_empty
    stats.captures_failed += n_empty

    headers = _record_view(payload, MODE7_HEADER_SIZE)
    if n_pkt and len(headers):
        # Clipped so a short packet at the payload's end reads an
        # in-bounds header that its length check then rejects.
        hdr = headers[np.minimum(starts, len(headers) - 1)].view(_HEADER_DTYPE)
        impl = hdr["impl"].astype(np.int64)
        seq = hdr["seq"].astype(np.int64) & 0x7F
        n_items = hdr["items"].astype(np.int64) & 0x0FFF
        item = hdr["size"].astype(np.int64) & 0x0FFF
        first = np.minimum(loc_off[:-1], n_pkt - 1)
        cap_item = item[first]
        # One stacked repeat broadcasts the first packet's fields to
        # packet granularity.
        rep = np.repeat(np.stack((impl[first], cap_item, seq[first])), counts, axis=1)
        pkt_ok = (
            (lens >= MODE7_HEADER_SIZE)
            & ((hdr["flags"] & 0x87) == 0x87)
            & (impl == rep[0])
            & (item == rep[1])
            & (lens - MODE7_HEADER_SIZE == n_items * rep[1])
        )
        in_seq = seq == rep[2] + within
    else:
        seq = n_items = item = np.zeros(n_pkt, dtype=np.int64)
        cap_item = np.zeros(n_cap, dtype=np.int64)
        pkt_ok = in_seq = np.zeros(n_pkt, dtype=bool)
    ok_n, seq_n, items_per_cap, payload_per_cap, wire_per_cap = _segment_sums(
        np.stack((pkt_ok, in_seq, n_items, lens, on_wire_bytes_array(lens))), loc_off
    )
    well_formed = (
        ~empty
        & ((cap_item == MON_ENTRY_V1_SIZE) | (cap_item == MON_ENTRY_V2_SIZE))
        & (ok_n == counts)
    )
    in_order = well_formed & (seq_n == counts)

    # Entries kept per capture, and which packets supply them in output
    # order: all of an in-order capture's packets, in arrival order.
    kept_per_cap = np.where(in_order, items_per_cap, 0)
    keep = np.repeat(in_order, counts)
    out_order = None
    n_degraded = 0
    reordered = np.flatnonzero(well_formed & ~in_order)
    if len(reordered):
        slots, order, kept, sums = _reassemble(seq, n_items, loc_off, counts, reordered)
        n_dup, n_gap, gap_items, kept_items = sums
        out_order = np.arange(n_pkt, dtype=np.int64)
        out_order[slots] = order
        keep[slots] = kept
        kept_per_cap[reordered] = kept_items
        # Reordering alone discards nothing; only a duplicate or a gap
        # makes the capture a salvage.
        n_degraded = int(np.count_nonzero(n_dup + n_gap))
        stats.packets_duplicate += int(n_dup.sum())
        stats.packets_out_of_sequence += int(n_gap.sum())
        stats.entries_discarded += int(gap_items.sum())
    n_well_formed = int(np.count_nonzero(well_formed))
    stats.captures_total += n_well_formed
    stats.captures_ok += n_well_formed - n_degraded
    stats.captures_salvaged += n_degraded
    stats.entries_recovered += int(kept_per_cap.sum())

    # Malformed captures: the whole capture re-parses through the lenient
    # salvage path, whose bookkeeping starts from scratch.
    salvaged = {}
    for pos in np.flatnonzero(~empty & ~well_formed).tolist():
        table = reconstruct_table_lenient(packed.view(int(cap_idx[pos])), stats)
        if table is not None:
            salvaged[pos] = table

    has_table = well_formed.copy()
    has_table[list(salvaged)] = True
    tbl_caps = np.flatnonzero(has_table)
    n_tbl = len(tbl_caps)
    tbl_pos = np.full(n_cap, -1, dtype=np.int64)
    tbl_pos[tbl_caps] = np.arange(n_tbl, dtype=np.int64)
    entry_counts = kept_per_cap[tbl_caps]
    entry_size = cap_item[tbl_caps]
    for pos, table in salvaged.items():
        entry_counts[tbl_pos[pos]] = len(table.entries)
        entry_size[tbl_pos[pos]] = table.entry_size
    entry_start = np.zeros(n_tbl + 1, dtype=np.int64)
    np.cumsum(entry_counts, out=entry_start[1:])

    kept_pkts = np.flatnonzero(keep) if out_order is None else out_order[keep]
    entries = _entry_rows(
        payload, starts[kept_pkts] + MODE7_HEADER_SIZE, n_items[kept_pkts], item[kept_pkts]
    )
    if salvaged:
        # Splice each salvaged table's rows in at its place in table order.
        gathered = entries.view(_ENTRY_RECORD)
        merged = np.empty(int(entry_start[-1]), dtype=_ENTRY_RECORD)
        done = taken = 0
        for pos, table in salvaged.items():
            lo = int(entry_start[tbl_pos[pos]])
            merged[done:lo] = gathered[taken : taken + lo - done]
            taken += lo - done
            done = lo + len(table.entries)
            merged[lo:done] = _object_rows(table).view(_ENTRY_RECORD)
        merged[done:] = gathered[taken:]
        entries = merged.view(ENTRY_DTYPE)

    sel = cap_idx[tbl_caps]
    return CaptureBatch(
        cap_positions=tbl_caps,
        amplifier=np.asarray(packed.target_ips, dtype=np.int64)[sel],
        entry_size=entry_size,
        entry_counts=entry_counts,
        entry_start=entry_start,
        entries=entries,
        n_packets_once=counts[tbl_caps],
        n_repeats=np.asarray(packed.n_repeats, dtype=np.int64)[sel],
        payload_once=payload_per_cap[tbl_caps],
        wire_once=wire_per_cap[tbl_caps],
    )


def columns_for_sample(sample):
    """Decode one ONP sample's packed store into a single-sample
    :class:`EventColumns` (an outage gap's store is empty)."""
    packed = sample.packed
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
    row["outage"] = 1 if sample.outage else 0
    row["coverage"] = sample.coverage
    row["table_start"] = 0
    row["table_count"] = n_tbl
    for name in _STAT_FIELDS:
        row[name] = getattr(stats, name)
    return EventColumns(row, tables, batch.entries)


def build_event_columns(samples):
    """Decode a corpus of ONP samples into one :class:`EventColumns`.

    Samples decode in order, in this process: a whole corpus decodes
    faster than a fork pool can start and ship its parts back.  The
    merged entries blob spills past ``REPRO_SPILL_MB``.
    """
    return EventColumns.concat([columns_for_sample(sample) for sample in samples]).maybe_spill()
