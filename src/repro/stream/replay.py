"""Replay adapters: a built world's datasets as one sim-time record batch.

The batch pipeline reads each dataset whole; the streaming engine wants
the same material as a single merged sequence of timestamped records, the
shape a live tap would deliver.  This module is the bridge: it reads the
world's packed capture stores and compacted flow arrays *without*
materializing object corpora, and returns one :class:`RecordBatch` whose
rows are in nondecreasing sim-time order.

Columns
-------
A batch is five parallel NumPy columns plus side tables shared by every
slice of it:

``t`` (float64)
    Event time.
``kind`` (int8)
    The record kind, coded in tie-break rank order for records sharing a
    timestamp: ``sweep`` 0 < ``capture`` 1 < ``darknet`` 2 < ``isp`` 3 <
    ``arbor`` 4 (sweeps open their window before captures fill it; flow
    kinds follow).
``a``, ``b`` (int64)
    The record's identity, which is also what the engine deduplicates on:

    ========  =======================  ========================
    kind      ``(a, b)``               uid (as ``late_uids`` show it)
    ========  =======================  ========================
    sweep     (sample, 0)              ``("sweep", sample)``
    capture   (sample, position)       ``("cap", sample, position)``
    darknet   (day, scanner IP)        ``("dk", day, ip)``
    isp       (sequence, victim IP)    ``("isp", site, sequence)``
    arbor     (day, Arbor row)         ``("ab", day)``
    ========  =======================  ========================

    ``b`` always lies in ``[0, 2**32)`` (a position, an IPv4 address or a
    row number), which lets the engine pack an identity into one int64.
``value`` (float64)
    Merit victim bytes for ``isp`` rows (the Fig 13 signal); 0 elsewhere.

Side tables (:class:`ReplayTables`): each weekly ONP sample's
:class:`~repro.measurement.capture_store.PackedCaptures` — a capture row
is a position in its sample's store, decoded by the engine with the
*same* decoder the batch corpus uses, so ParseStats counters match the
batch per-sample stats counter for counter; each sample's sweep payload
(outage flag, coverage, capture count — a sweep window exists even when
an outage produced zero captures); and the Arbor rows, ``None`` marking a
collector-outage day (the explicit gap Fig 1 renders, never an
interpolated value).

Replay is a deliberate re-read of the measurement layer, so it does not
touch the parse-once ledger; the engine keeps its own ingest counters.
Slicing a batch (or indexing it with an integer array) gives a batch over
the same side tables, which is how the service feeds the engine and how
tests inject reordered and redelivered records.
"""

from __future__ import annotations

import numpy as np

from repro.measurement.capture_store import pack_captures
from repro.util.simtime import DAY, HOUR, WEEK

__all__ = ["KINDS", "RecordBatch", "ReplayTables", "replay_records", "replay_plan"]

#: Kind names by code; the code is also the same-timestamp tie-break rank.
KINDS = ("sweep", "capture", "darknet", "isp", "arbor")
SWEEP, CAPTURE, DARKNET, ISP, ARBOR = range(len(KINDS))


class ReplayTables:
    """The per-replay tables a batch's rows point into."""

    __slots__ = ("stores", "sweeps", "arbor", "site")

    def __init__(self, stores, sweeps, arbor, site):
        self.stores = stores
        self.sweeps = sweeps
        self.arbor = arbor
        self.site = site


class RecordBatch:
    """Records as parallel columns over shared :class:`ReplayTables`."""

    __slots__ = ("t", "kind", "a", "b", "value", "tables")

    def __init__(self, t, kind, a, b, value, tables):
        self.t = t
        self.kind = kind
        self.a = a
        self.b = b
        self.value = value
        self.tables = tables

    def __len__(self):
        return len(self.t)

    def __getitem__(self, key):
        """A sub-batch: ``key`` is a slice or an integer index array (an
        int gives a one-row batch)."""
        if isinstance(key, (int, np.integer)):
            key = [key]
        return RecordBatch(
            self.t[key], self.kind[key], self.a[key], self.b[key], self.value[key], self.tables
        )

    def uid(self, row):
        """Row ``row``'s identity in its readable tuple form."""
        kind, a, b = int(self.kind[row]), int(self.a[row]), int(self.b[row])
        if kind == SWEEP:
            return ("sweep", a)
        if kind == CAPTURE:
            return ("cap", a, b)
        if kind == DARKNET:
            return ("dk", a, b)
        if kind == ISP:
            return ("isp", self.tables.site, a)
        if kind == ARBOR:
            return ("ab", a)
        return ("?", kind, a, b)


def _darknet_pairs(world):
    """Deduplicated ``(days, ips)`` scanner memberships, sorted by day
    then IP."""
    darknet = world.darknet
    parts = []
    pairs = getattr(darknet, "_scanner_pairs", None)
    if pairs is not None and len(pairs):
        parts.append(np.asarray(pairs, dtype=np.int64))
    extra = [
        (int(day), int(ip))
        for day, ips in getattr(darknet, "_daily_scanners", {}).items()
        for ip in ips
    ]
    if extra:
        parts.append(np.array(extra, dtype=np.int64))
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    merged = np.concatenate(parts) if len(parts) > 1 else parts[0]
    # Dedupe + lex-sort (day, ip) in one pass over a packed 64-bit key;
    # IPs are u32 and days small, so the packing is lossless.
    uniq = np.unique((merged[:, 0] << np.int64(32)) | merged[:, 1])
    return uniq >> np.int64(32), uniq & np.int64(0xFFFFFFFF)


def _isp_cells(world, site_name):
    """The Merit site's ``(hours, ips, bytes)`` cells sorted by (hour, IP),
    or None when the world has no such site.  The sort is stable, so a
    cell present in both the compacted columns and the overlay keeps that
    order."""
    site = world.isp.sites.get(site_name)
    if site is None:
        return None
    ips, hours, volumes = [], [], []
    cols = getattr(site, "_victim_cols", None)
    if cols is not None:
        ips.append(np.asarray(cols[0], dtype=np.int64))
        hours.append(np.asarray(cols[1], dtype=np.int64))
        volumes.append(np.asarray(cols[2], dtype=np.float64))
    overlay = getattr(site, "victim_hourly", {})
    if overlay:
        keys = list(overlay)
        ips.append(np.array([ip for ip, _hour in keys], dtype=np.int64))
        hours.append(np.array([hour for _ip, hour in keys], dtype=np.int64))
        volumes.append(np.array(list(overlay.values()), dtype=np.float64))
    if not ips:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)
    ips, hours, volumes = (np.concatenate(c) for c in (ips, hours, volumes))
    order = np.lexsort((ips, hours))
    return hours[order], ips[order], volumes[order]


def _arbor_rows(world):
    """``[(day, payload)]`` merged by day: measured days carry
    ``(total, ntp, dns)`` bps, collector-outage days ``None``.  Merging
    keeps the source time-ordered, so the watermark never refuses a gap
    day arriving after later measured days."""
    arbor = world.arbor
    rows = [
        (daily.day, 0, (daily.total_bps, daily.ntp_bps, daily.dns_bps))
        for daily in arbor.daily
    ]
    rows.extend((day, 1, None) for day in getattr(arbor, "missing_days", ()) or ())
    rows.sort(key=lambda r: (r[0], r[1]))
    return [(day, payload) for day, _rank, payload in rows]


def replay_records(world, site_name="merit"):
    """The world's records as one :class:`RecordBatch` in nondecreasing
    sim-time order.

    Each source is already time-ordered and each kind code is its
    tie-break rank, so one stable lexsort over ``(t, kind)`` reproduces
    exactly the order a ``heapq.merge`` on ``(t, rank, sequence)`` keys
    would — records of equal key keep their source order.  Two replays of
    the same world produce identical batches.  A sample without a packed
    store (built capture-by-capture, or an outage gap) is packed here, so
    the engine only ever sees packed captures.
    """
    samples = world.onp.monlist_samples
    stores = []
    for sample in samples:
        packed = getattr(sample, "packed", None)
        if packed is None:
            packed = pack_captures(sample.captures, sample.t)
        stores.append(packed)
    sweeps = [
        {
            "outage": bool(getattr(sample, "outage", False)),
            "coverage": float(getattr(sample, "coverage", 1.0)),
            "n_captures": len(sample),
        }
        for sample in samples
    ]
    arbor = _arbor_rows(world)
    tables = ReplayTables(stores, sweeps, [payload for _day, payload in arbor], site_name)

    columns = []  # (t, kind, a, b, value) per source, in source order

    def add(t, kind, a, b, value=None):
        n = len(t)
        columns.append(
            (
                np.asarray(t, dtype=np.float64),
                np.full(n, kind, dtype=np.int8),
                np.asarray(a, dtype=np.int64),
                np.asarray(b, dtype=np.int64),
                np.zeros(n) if value is None else np.asarray(value, dtype=np.float64),
            )
        )

    sample_t = np.array([float(sample.t) for sample in samples], dtype=np.float64)
    sample_ix = np.arange(len(samples), dtype=np.int64)
    add(sample_t, SWEEP, sample_ix, np.zeros(len(samples), dtype=np.int64))
    sizes = np.array([len(store) for store in stores], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    positions = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(starts, sizes)
    add(np.repeat(sample_t, sizes), CAPTURE, np.repeat(sample_ix, sizes), positions)
    days, ips = _darknet_pairs(world)
    add(days * DAY, DARKNET, days, ips)
    cells = _isp_cells(world, site_name)
    if cells is not None:
        hours, ips, volumes = cells
        start = world.isp.sites[site_name].start
        add(start + (hours * HOUR).astype(np.float64), ISP, np.arange(len(hours)), ips, volumes)
    arbor_days = np.array([day for day, _payload in arbor], dtype=np.int64)
    add(arbor_days * DAY, ARBOR, arbor_days, np.arange(len(arbor), dtype=np.int64))

    t, kind, a, b, value = (np.concatenate(parts) for parts in zip(*columns))
    order = np.lexsort((kind, t))
    return RecordBatch(t[order], kind[order], a[order], b[order], value[order], tables)


def replay_plan(world, site_name="merit"):
    """The engine-configuration facts a replay implies.

    ``capture_origin`` aligns the weekly capture windows so each monlist
    sample lands in its own window; ``expected`` carries per-kind record
    counts for ingest-rate provenance (BENCH_serve.json) and end-of-run
    accounting checks.
    """
    samples = world.onp.monlist_samples
    origin = float(samples[0].t) if samples else 0.0
    site = world.isp.sites.get(site_name)
    cells = _isp_cells(world, site_name)
    counts = {
        "sweep": len(samples),
        "capture": sum(len(s) for s in samples),
        "darknet": len(_darknet_pairs(world)[0]),
        "isp": 0 if cells is None else len(cells[0]),
        "arbor": len(world.arbor.daily) + len(getattr(world.arbor, "missing_days", ()) or ()),
    }
    return {
        "capture_origin": origin,
        "capture_width": float(WEEK),
        "isp_origin": float(site.start) if site is not None else 0.0,
        "site": site_name,
        "expected": counts,
        "expected_total": sum(counts.values()),
    }
