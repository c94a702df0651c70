"""The incremental engine: windowed aggregates + sketches over a stream.

:class:`StreamEngine` consumes :class:`~repro.stream.replay.RecordBatch`
values — a whole replay, any slice of one, down to a single row — through
one vectorized path, :meth:`StreamEngine.ingest_many`, and maintains,
simultaneously:

* **per-window exact state** — one :class:`~repro.stream.windows.WindowSet`
  per record kind (weekly capture windows aligned to the first sweep,
  daily windows for the darknet / ISP / Arbor flows), finalized into small
  summary dicts once the watermark passes;
* **global sketches** — count-min plus space-saving top-K over victim
  packets (by IP and by origin AS), amplifier entry counts, and Merit
  victim bytes, so "top victims since the campaign started" is answerable
  from a few kilobytes at any point of the stream;
* **global exact counters** — totals kept redundantly with the window
  ledgers so a reader can check ``sum(windows) == global`` inside a single
  snapshot (the no-torn-reads contract the service tests assert).

Batch ingest
------------
``ingest_many`` computes every row's watermark up front (the running
maximum event time over known kinds, minus the skew), lets each kind's
window set decide late and duplicate rows for the whole batch
(:meth:`~repro.stream.windows.WindowSet.offer_batch`), applies the
surviving rows once per (kind, window) group in arrival order, and
advances the watermark once.  That equals applying the rows one at a
time: a row whose window the rising watermark would have closed mid-batch
is late by the same test, and every per-window aggregate is order-free
except three that the group apply keeps in arrival order — ISP per-IP
byte sums (sequential ``+=``), sweep coverage, and the last-written Arbor
row.  ``tests/test_stream_properties.py`` pins the ledger to a
record-at-a-time reference on reordered and redelivered streams, at
several batch sizes.

Capture decode path
-------------------
Capture rows are *buffered* per open window as ``(store, positions)``
arrays and decoded in columnar micro-batches through the decoder the
batch corpus uses (:func:`~repro.analysis.event_columns.decode_capture_batch`).
It reassembles in-order, reordered, duplicated and gapped captures
itself; only a capture with a malformed packet goes — whole — to
:func:`~repro.analysis.monlist_parse.reconstruct_table_lenient`, so
``ParseStats`` advance counter for counter with the batch corpus on clean
and fault-injected streams alike.  Entries are classified by
:func:`~repro.analysis.victimology.classify_columns`, the §4.2 filter
kernel the batch victimology report uses.  Each window keeps its table
amplifiers with entry counts and its victim IPs with packet counts as
array chunks, reduced on demand (and memoized) into sorted exact
``(keys, totals)``.  Buffers are decoded before any read and before their
window closes, and every per-window quantity is an order-free aggregate,
so decode timing is unobservable: answers depend only on the records
applied.

Sketch updates are deferred to window close: each open window's exact
per-key totals (victim packets by IP, by origin AS, amplifier entry
counts, ISP victim bytes) fold into the global sketches in sorted-key
order when the window closes.  Reads merge the still-open windows'
exact aggregates on top (:meth:`StreamEngine.sketches_view`), so
mid-window answers lose nothing — but the sketch add *sequence* becomes a
deterministic function of the applied records alone, independent of when
queries arrive or how the stream is batched.  Space-saving is sensitive
to add order, so this is what keeps its answers a function of the
records applied.

The streaming path deliberately counts in no analysis context's
``parse_calls`` — replay is a re-read of the measurement layer, and the
engine's own ingest accounting (``total == applied + late + duplicate``
per kind) is the discipline that replaces it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.analysis.event_columns import decode_capture_batch
from repro.analysis.monlist_parse import ParseStats
from repro.analysis.victimology import (
    CODE_NON_VICTIM,
    CODE_SCANNER,
    CODE_VICTIM,
    classify_columns,
)
from repro.stream.replay import ARBOR, CAPTURE, DARKNET, ISP, KINDS, SWEEP
from repro.stream.sketches import CountMinSketch, SpaceSavingTopK
from repro.stream.windows import WindowSet
from repro.util.simtime import DAY, HOUR, WEEK
from repro.util.stats import percentile

__all__ = ["StreamEngine", "QUERY_NAMES"]

_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(ParseStats))

#: Query names the engine (and therefore the service) answers.
QUERY_NAMES = (
    "amplifiers",
    "victims",
    "top_victims",
    "top_amplifiers",
    "top_ases",
    "top_isp_victims",
    "scanners",
    "traffic",
    "parse_stats",
    "ingest",
)

#: Sketch families and the record kind whose windows feed each (order
#: fixed — it is also the canonical family enumeration).  Folds happen per
#: closed window in ascending index order, keys sorted within a window.
_VIEW_SOURCES = {
    "victim_packets": "capture",
    "as_packets": "capture",
    "amplifier_entries": "capture",
    "isp_victim_bytes": "isp",
}

#: Queries whose answer is a pure function of one source's windows (the
#: sketch-backed tops carry no watermark or global counters), keyed by
#: that source for :meth:`StreamEngine.query_version`.
_QUERY_VERSION_SOURCES = {
    "top_victims": "capture",
    "top_amplifiers": "capture",
    "top_ases": "capture",
    "top_isp_victims": "isp",
}

_NO_KEYS = np.empty(0, dtype=np.int64)


def _stats_dict(stats):
    return {name: getattr(stats, name) for name in _STATS_FIELDS}


def _add_stats(into, stats):
    for name in _STATS_FIELDS:
        into[name] += getattr(stats, name)


def _sum_by_key(keys, weights):
    """Sorted unique ``keys`` and the exact int64 sum of ``weights`` per
    key."""
    if not len(keys):
        return _NO_KEYS, _NO_KEYS
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(weights[order], starts)


def _fold_totals(pair, keys, weights):
    """Add one window's exact per-key totals (keys sorted ascending — a
    fold sequence fixed by the window's contents, whatever order its
    records arrived in) into one sketch pair."""
    pair["cm"].add_many(keys, weights)
    pair["topk"].add_many(keys.tolist(), weights.tolist())


class _KeyTotals:
    """Per-key int totals kept as array chunks and reduced on demand."""

    __slots__ = ("chunks", "keys", "totals")

    def __init__(self):
        self.chunks = []
        self.keys = _NO_KEYS
        self.totals = _NO_KEYS

    def add(self, keys, weights):
        self.chunks.append((keys, weights))

    def reduced(self):
        """``(keys, totals)``, keys sorted; the chunks collapse into the
        result, so a repeated read costs nothing."""
        if self.chunks:
            self.keys, self.totals = _sum_by_key(
                np.concatenate([self.keys, *(keys for keys, _ in self.chunks)]),
                np.concatenate([self.totals, *(weights for _, weights in self.chunks)]),
            )
            self.chunks = []
        return self.keys, self.totals


class _CaptureState:
    """One weekly capture window's exact state."""

    __slots__ = (
        "stats",
        "pending",
        "amps",
        "victims",
        "last_seen",
        "victim_pairs",
        "victim_packets",
        "scanner_entries",
        "non_victim_entries",
        "by_as",
    )

    def __init__(self):
        self.stats = ParseStats()
        #: ``[(store, positions)]`` applied but not yet decoded.
        self.pending = []
        #: Table amplifier -> monlist entries (zero-entry tables included,
        #: so the keys are the window's amplifiers).
        self.amps = _KeyTotals()
        #: Victim IP -> packets.
        self.victims = _KeyTotals()
        #: Per decoded batch: each table-with-entries' max last-seen.
        self.last_seen = []
        self.victim_pairs = 0
        self.victim_packets = 0
        self.scanner_entries = 0
        self.non_victim_entries = 0
        #: Memo of the per-AS totals: ``(victim keys, asns, totals)``.
        self.by_as = None


def _new_sweep_state():
    return {"sweeps": 0, "outages": 0, "coverage": [], "n_captures": 0}


def _new_isp_state():
    return {"victims": {}, "cells": 0}


def _new_arbor_state():
    return {"total_bps": None, "ntp_bps": None, "dns_bps": None, "gap": False}


# -- finalizers: (state, records) -> summary dict.  Open windows are
# summarized through them for mid-window reads, so they change nothing an
# answer depends on (compacting memoized chunks is all they may do). --------


def _finalize_sweep(state, records):
    return dict(state)


def _finalize_capture(state, records):
    amps, _ = state.amps.reduced()
    victims, _ = state.victims.reduced()
    if len(state.last_seen) > 1:
        state.last_seen = [np.concatenate(state.last_seen)]
    return {
        "captures": records,
        "amplifiers": len(amps),
        "victim_pairs": state.victim_pairs,
        "unique_victims": len(victims),
        "victim_packets": state.victim_packets,
        "scanner_entries": state.scanner_entries,
        "non_victim_entries": state.non_victim_entries,
        "median_view_hours": percentile(state.last_seen[0], 50) / HOUR
        if state.last_seen
        else 0.0,
        "stats": _stats_dict(state.stats),
    }


def _finalize_darknet(state, records):
    return {"scanners": len(state)}


def _finalize_isp(state, records):
    return {
        "cells": state["cells"],
        "victims": len(state["victims"]),
        # Exactly-rounded, hence independent of dict insertion order —
        # the same records summarize identically however they arrived.
        "bytes": math.fsum(state["victims"].values()),
    }


def _finalize_arbor(state, records):
    total, ntp, dns = state["total_bps"], state["ntp_bps"], state["dns_bps"]
    if state["gap"] and total is None:
        return {"gap": True, "ntp_frac": None, "dns_frac": None}
    if not total:
        return {"gap": False, "ntp_frac": 0.0, "dns_frac": 0.0}
    return {"gap": False, "ntp_frac": ntp / total, "dns_frac": dns / total}


_FINALIZERS = {
    "sweep": _finalize_sweep,
    "capture": _finalize_capture,
    "darknet": _finalize_darknet,
    "isp": _finalize_isp,
    "arbor": _finalize_arbor,
}


class StreamEngine:
    """Windowed, sketch-backed aggregation over one merged record stream."""

    def __init__(
        self,
        capture_origin=0.0,
        capture_width=float(WEEK),
        skew=0.0,
        asn_of=None,
        onp_ip=None,
        topk_capacity=64,
        cm_epsilon=0.005,
        cm_delta=0.01,
    ):
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.skew = float(skew)
        self.asn_of = asn_of
        self.onp_ip = onp_ip
        self.max_event_t = None
        self.records_seen = 0
        self.unknown_kinds = 0
        #: Monotone change counter: bumps on every applied-or-not record
        #: and on close, so caches (service response cache, sketch view)
        #: can key on "has anything changed since I computed this".
        self.generation = 0
        self.config = {
            "capture_origin": float(capture_origin),
            "capture_width": float(capture_width),
            "skew": self.skew,
            "topk_capacity": int(topk_capacity),
            "cm_epsilon": float(cm_epsilon),
            "cm_delta": float(cm_delta),
        }

        # Window sets hold no engine callables, so a retired engine is
        # freed by reference counting alone.
        self.windows = {
            "sweep": WindowSet(capture_width, origin=capture_origin, state_factory=_new_sweep_state),
            "capture": WindowSet(capture_width, origin=capture_origin, state_factory=_CaptureState),
            "darknet": WindowSet(float(DAY), state_factory=set),
            "isp": WindowSet(float(DAY), state_factory=_new_isp_state),
            "arbor": WindowSet(float(DAY), state_factory=_new_arbor_state),
        }
        self._by_code = [self.windows[kind] for kind in KINDS]

        self.sketches = {
            name: {
                "cm": CountMinSketch(cm_epsilon, cm_delta),
                "topk": SpaceSavingTopK(topk_capacity),
            }
            for name in _VIEW_SOURCES
        }

        # Stream-global exact counters, redundant with the window ledgers
        # on purpose: every snapshot can be cross-checked internally.
        self.global_stats = {name: 0 for name in _STATS_FIELDS}
        self.totals = {
            "captures": 0,
            "tables": 0,
            "entries": 0,
            "victim_pairs": 0,
            "victim_packets": 0,
            "scanner_entries": 0,
            "non_victim_entries": 0,
            "darknet_memberships": 0,
            "isp_cells": 0,
            "arbor_days": 0,
            "arbor_gap_days": 0,
        }
        # The global ISP byte total is *not* a per-record running float:
        # it accumulates one exactly-rounded math.fsum per window at
        # close (ascending window order), and reads add the open
        # windows' fsums on top.  fsum is order-independent, so the
        # total is the same float however the records were batched or
        # queries interleaved, where a running += would drift by an ulp.
        self.isp_bytes_closed = 0.0

        # Capture micro-batch machinery: window indices with undecoded
        # buffered captures, the watermark the windows were last advanced
        # to (skip redundant sweeps), sketch-view cache.
        self._dirty = set()
        self._advanced_to = None
        # Per-family sketch-view cache, keyed on the *source* mutation
        # counters below rather than the global generation: a darknet-
        # only batch leaves every capture/ISP aggregate untouched, so
        # top-victims answers between capture bursts reuse the fold.
        self._view_cache = None
        self._cap_mut = 0
        self._isp_mut = 0

    @classmethod
    def for_world(cls, world, plan=None, **kwargs):
        """An engine configured for a world's replay stream."""
        from repro.attack.scanner import ONP_PROBER_IP
        from repro.stream.replay import replay_plan

        plan = plan or replay_plan(world)
        kwargs.setdefault("asn_of", world.table.asn_of)
        kwargs.setdefault("onp_ip", ONP_PROBER_IP)
        return cls(
            capture_origin=plan["capture_origin"],
            capture_width=plan["capture_width"],
            **kwargs,
        )

    # -- ingest ---------------------------------------------------------------

    @property
    def watermark(self):
        """Latest event time minus the tolerated skew (None before any
        record)."""
        if self.max_event_t is None:
            return None
        return self.max_event_t - self.skew

    def ingest_many(self, batch):
        """Apply a :class:`~repro.stream.replay.RecordBatch` (a one-row
        slice is a batch); returns the number of rows applied.

        Ledger decisions, window contents and window closes equal those
        of applying the rows one at a time, whatever the batch size.
        """
        n = len(batch)
        if not n:
            return 0
        self.records_seen += n
        self.generation += n
        kind, t = batch.kind, batch.t
        known = (kind >= 0) & (kind < len(KINDS))
        n_known = int(np.count_nonzero(known))
        self.unknown_kinds += n - n_known
        if not n_known:
            return 0
        rows_known = None if n_known == n else np.flatnonzero(known)
        running = np.maximum.accumulate(t if rows_known is None else np.where(known, t, -np.inf))
        if self.max_event_t is not None:
            np.maximum(running, self.max_event_t, out=running)
        self.max_event_t = float(running[-1])
        watermark = running - self.skew
        # Identity of (a, b) as one int64; ``b`` is below 2**32.
        ident = (batch.a << 32) | batch.b

        codes = kind if rows_known is None else kind[rows_known]
        order = np.argsort(codes, kind="stable")
        if rows_known is not None:
            order = rows_known[order]
        applied = lo = 0
        for code, hi in enumerate(np.cumsum(np.bincount(codes, minlength=len(KINDS))).tolist()):
            if hi == lo:
                continue
            rows = order[lo:hi]
            lo = hi
            groups = self._by_code[code].offer_batch(
                t[rows], ident[rows], watermark[rows], lambda j, rows=rows: batch.uid(rows[j])
            )
            for index, window, local in groups:
                applied += len(local)
                self._apply(code, index, window.state, batch, rows[local])
        if self.watermark != self._advanced_to:
            self._advance_windows(self.watermark)
        return applied

    def _apply(self, code, index, state, batch, rows):
        """Fold one window's applied rows (arrival order) into its state."""
        totals = self.totals
        if code == DARKNET:
            state.update(batch.b[rows].tolist())
            totals["darknet_memberships"] += len(rows)
        elif code == CAPTURE:
            samples, positions = batch.a[rows], batch.b[rows]
            stores = batch.tables.stores
            if samples[0] == samples[-1] and (samples == samples[0]).all():
                state.pending.append((stores[samples[0]], positions))
            else:
                for sample in np.unique(samples).tolist():
                    state.pending.append((stores[sample], positions[samples == sample]))
            self._dirty.add(index)
            self._cap_mut += 1
        elif code == ISP:
            victims = state["victims"]
            for ip, volume in zip(batch.b[rows].tolist(), batch.value[rows].tolist()):
                victims[ip] = victims.get(ip, 0.0) + volume
            state["cells"] += len(rows)
            totals["isp_cells"] += len(rows)
            self._isp_mut += 1
        elif code == SWEEP:
            sweeps = batch.tables.sweeps
            for sample in batch.a[rows].tolist():
                payload = sweeps[sample]
                state["sweeps"] += 1
                state["outages"] += 1 if payload["outage"] else 0
                state["coverage"].append(payload["coverage"])
                state["n_captures"] += payload["n_captures"]
        elif code == ARBOR:
            arbor = batch.tables.arbor
            for row in batch.b[rows].tolist():
                payload = arbor[row]
                if payload is None:
                    state["gap"] = True
                    totals["arbor_gap_days"] += 1
                else:
                    state["total_bps"], state["ntp_bps"], state["dns_bps"] = payload
                    totals["arbor_days"] += 1

    def _advance_windows(self, watermark):
        """Close every window the watermark has passed."""
        self._advanced_to = watermark
        for kind, ws in self.windows.items():
            closing = ws.advance(watermark)
            if closing:
                self._retire(kind, ws, closing)

    def _retire(self, kind, ws, closing):
        """Run the once-per-window close work, then record each summary
        (the capture hook decodes buffered captures before the finalizer
        reads the state)."""
        finalize = _FINALIZERS[kind]
        for index, _lo, _hi, window in closing:
            state = window.state
            if kind == "capture":
                self._close_capture_window(state)
            elif kind == "isp":
                self._close_isp_window(state)
            ws.retire(index, finalize(state, window.records))

    def close(self):
        """End of stream: finalize every still-open window."""
        self.flush()
        self.generation += 1
        for kind, ws in self.windows.items():
            closing = ws.close_all()
            if closing:
                self._retire(kind, ws, closing)
        self._dirty.clear()

    # -- capture micro-batch decode -------------------------------------------

    def flush(self):
        """Decode every buffered capture; answers never see a buffer."""
        if self._dirty:
            open_windows = self.windows["capture"].open
            for index in sorted(self._dirty):
                window = open_windows.get(index)
                if window is not None and window.state.pending:
                    self._decode_pending(window.state)
            self._dirty.clear()

    def _decode_pending(self, state):
        pending, state.pending = state.pending, []
        self.totals["captures"] += sum(len(positions) for _store, positions in pending)
        # Consecutive chunks from one sample's store decode as one batch.
        runs = []
        for store, positions in pending:
            if runs and runs[-1][0] is store:
                runs[-1][1].append(positions)
            else:
                runs.append((store, [positions]))
        for store, parts in runs:
            positions = parts[0] if len(parts) == 1 else np.concatenate(parts)
            self._apply_capture_batch(state, decode_capture_batch(store, positions, state.stats))

    def _apply_capture_batch(self, state, batch):
        """Fold one decoded columnar batch into the window's aggregates.

        Every update is order-free (counters, and key/total chunks whose
        reduction sorts), so batching granularity cannot change any
        answer; entries are classified by
        :func:`~repro.analysis.victimology.classify_columns`.
        """
        totals = self.totals
        if not len(batch.amplifier):
            return
        totals["tables"] += len(batch.amplifier)
        counts_tbl = batch.entry_counts
        state.amps.add(batch.amplifier, counts_tbl)
        entries = batch.entries
        if not len(entries):
            return
        totals["entries"] += len(entries)

        last = entries["last"].astype(np.int64)
        state.last_seen.append(np.maximum.reduceat(last, batch.entry_start[:-1][counts_tbl > 0]))
        addr = entries["addr"].astype(np.int64)
        count = entries["count"].astype(np.int64)
        codes, _avg = classify_columns(
            addr,
            entries["mode"].astype(np.int64),
            count,
            entries["first"].astype(np.int64),
            last,
            self.onp_ip,
        )
        n_by_code = np.bincount(codes, minlength=4)
        n_nv = int(n_by_code[CODE_NON_VICTIM])
        n_scan = int(n_by_code[CODE_SCANNER])
        n_vic = int(n_by_code[CODE_VICTIM])
        state.non_victim_entries += n_nv
        totals["non_victim_entries"] += n_nv
        state.scanner_entries += n_scan
        totals["scanner_entries"] += n_scan
        if not n_vic:
            return
        state.victim_pairs += n_vic
        totals["victim_pairs"] += n_vic
        victim = codes == CODE_VICTIM
        vcount = count[victim]
        packets = int(vcount.sum())
        state.victim_packets += packets
        totals["victim_packets"] += packets
        state.victims.add(addr[victim], vcount)

    # -- window close and per-window totals -----------------------------------

    def _close_capture_window(self, state):
        # Runs exactly once per window, at close: decode any buffered
        # captures, fold the window's ParseStats into the stream-global
        # counters, fold its per-key aggregates into the sketches.  Open
        # windows are folded non-destructively at read time instead.
        if state.pending:
            self._decode_pending(state)
        _add_stats(self.global_stats, state.stats)
        for name in ("victim_packets", "as_packets", "amplifier_entries"):
            keys, weights = self._window_totals(name, state)
            if len(keys):
                _fold_totals(self.sketches[name], keys, weights)
        self._cap_mut += 1

    def _close_isp_window(self, state):
        self.isp_bytes_closed += math.fsum(state["victims"].values())
        keys, weights = self._window_totals("isp_victim_bytes", state)
        if len(keys):
            _fold_totals(self.sketches["isp_victim_bytes"], keys, weights)
        self._isp_mut += 1

    def _window_totals(self, name, state):
        """One window's exact ``(keys, totals)`` for sketch family
        ``name``, keys sorted ascending."""
        if name == "victim_packets":
            return state.victims.reduced()
        if name == "amplifier_entries":
            keys, entries = state.amps.reduced()
            nonzero = entries > 0
            return keys[nonzero], entries[nonzero]
        if name == "as_packets":
            return self._as_totals(state)
        victims = state["victims"]
        keys = sorted(victims)
        return (
            np.array(keys, dtype=np.int64),
            np.array([victims[key] for key in keys], dtype=np.float64),
        )

    def _as_totals(self, state):
        """Victim packets per origin AS (unrouted IPs dropped), memoized
        against the window's reduced victim keys."""
        keys, packets = state.victims.reduced()
        memo = state.by_as
        if memo is not None and memo[0] is keys:
            return memo[1], memo[2]
        if self.asn_of is None or not len(keys):
            asns, sums = _NO_KEYS, _NO_KEYS
        else:
            found = list(map(self.asn_of, keys.tolist()))
            routed = np.array([asn is not None for asn in found])
            asns, sums = _sum_by_key(
                np.array([asn for asn in found if asn is not None], dtype=np.int64),
                packets[routed],
            )
        state.by_as = (keys, asns, sums)
        return asns, sums

    # -- queries --------------------------------------------------------------

    def sketches_view(self, names=None):
        """Effective sketches: the closed-window folds plus every open
        window's exact aggregates, merged non-destructively.

        ``names`` restricts the answer to the listed families; each
        family's merged pair is built lazily and cached against its
        *source* mutation counter — capture applies/closes for the
        capture-fed families, ISP ones for the byte sketch — so a
        top-victims query between capture bursts reuses the fold even
        though darknet records keep the global generation moving, and it
        never pays the (much larger) amplifier-entries fold.  Per family
        the fold sequence — open windows ascending, keys sorted within a
        window — is exactly the one the eager whole-view fold produced,
        so answers are byte-identical however the families are
        materialized.
        """
        self.flush()
        cap_open = self.windows["capture"].open
        isp_open = self.windows["isp"].open
        if not cap_open and not isp_open:
            return self.sketches
        built = self._view_cache
        if built is None:
            built = self._view_cache = {}
        out = {}
        for name in names if names is not None else _VIEW_SOURCES:
            source = _VIEW_SOURCES[name]
            mut = self._cap_mut if source == "capture" else self._isp_mut
            cached = built.get(name)
            if cached is not None and cached[0] == mut:
                out[name] = cached[1]
                continue
            base = self.sketches[name]
            pair = {"cm": base["cm"].copy(), "topk": base["topk"].copy()}
            open_map = cap_open if source == "capture" else isp_open
            for index in sorted(open_map):
                keys, weights = self._window_totals(name, open_map[index].state)
                if len(keys):
                    _fold_totals(pair, keys, weights)
            built[name] = (mut, pair)
            out[name] = pair
        return out

    def query_version(self, name):
        """A hashable token that changes whenever query ``name``'s answer
        can change.

        The sketch-backed top queries depend on exactly one source's
        windows, so they key on that source's mutation counter — batches
        of other kinds (most of a replay is darknet memberships) leave a
        cached response valid.  Everything else carries the watermark or
        global accounting and keys on the per-record generation.
        """
        source = _QUERY_VERSION_SOURCES.get(name)
        if source == "capture":
            return ("c", self._cap_mut)
        if source == "isp":
            return ("i", self._isp_mut)
        return ("g", self.generation)

    def query(self, name, **params):
        """Dispatch one named query (the service's surface)."""
        if name == "amplifiers":
            return self._windows_query("capture")
        if name == "victims":
            return self._windows_query("capture")
        if name == "top_victims":
            return self._top_query("victim_packets", params)
        if name == "top_amplifiers":
            return self._top_query("amplifier_entries", params)
        if name == "top_ases":
            return self._top_query("as_packets", params)
        if name == "top_isp_victims":
            return self._top_query("isp_victim_bytes", params)
        if name == "scanners":
            return self._windows_query("darknet")
        if name == "traffic":
            return self._windows_query("arbor")
        if name == "parse_stats":
            return self.query_parse_stats()
        if name == "ingest":
            return self.query_ingest()
        raise KeyError(f"unknown query {name!r} (have: {', '.join(QUERY_NAMES)})")

    def summaries(self, kind):
        """``[(index, lo, hi, summary, is_open)]`` for ``kind``'s windows,
        closed and open, ascending."""
        self.flush()
        return self.windows[kind].summaries(_FINALIZERS[kind])

    def _windows_query(self, kind):
        rows = [
            {"window": index, "lo": lo, "hi": hi, "open": is_open, **summary}
            for index, lo, hi, summary, is_open in self.summaries(kind)
        ]
        return {"kind": kind, "windows": rows, "watermark": self.watermark}

    def _top_query(self, sketch_name, params):
        n = params.get("n")
        n = int(n) if n is not None else 10
        if n < 1:
            raise ValueError("n must be >= 1")
        pair = self.sketches_view((sketch_name,))[sketch_name]
        top = pair["topk"].top(n)
        estimates = pair["cm"].estimate_many([key for key, _, _ in top])
        return {
            "sketch": sketch_name,
            "guarantee_threshold": pair["topk"].guarantee_threshold(),
            "cm_error_bound": pair["cm"].error_bound(),
            "entries": [
                {
                    "key": key,
                    "count": count,
                    "error": error,
                    "cm_estimate": estimate,
                }
                for (key, count, error), estimate in zip(top, estimates)
            ],
        }

    def query_parse_stats(self):
        """Stream-global ParseStats: closed windows' folded counters plus
        the still-open windows, read without closing them."""
        self.flush()
        out = dict(self.global_stats)
        for window in self.windows["capture"].open.values():
            _add_stats(out, window.state.stats)
        return out

    def totals_view(self):
        """The global totals with the ISP byte sum assembled from its
        per-window fsums: closed-window accumulator plus the still-open
        windows, in ascending window order."""
        out = dict(self.totals)
        isp_bytes = self.isp_bytes_closed
        isp_open = self.windows["isp"].open
        for index in sorted(isp_open):
            isp_bytes += math.fsum(isp_open[index].state["victims"].values())
        out["isp_bytes"] = isp_bytes
        return out

    def query_ingest(self):
        self.flush()
        accounting = {kind: ws.accounting() for kind, ws in self.windows.items()}
        return {
            "records_seen": self.records_seen,
            "unknown_kinds": self.unknown_kinds,
            "watermark": self.watermark,
            "skew": self.skew,
            "balanced": self.balanced,
            "kinds": accounting,
            "totals": self.totals_view(),
        }

    @property
    def balanced(self):
        """Every record accounted: per-kind ledgers balance and their
        totals plus unknown-kind records cover everything seen."""
        per_kind = all(ws.balanced for ws in self.windows.values())
        covered = (
            sum(ws.total for ws in self.windows.values()) + self.unknown_kinds
        ) == self.records_seen
        return per_kind and covered

    def snapshot(self):
        """One internally consistent view of everything the engine knows.

        The redundant global counters ride along so a reader can assert
        ``sum over windows == global`` without a second request — the
        torn-read check the service tests run against concurrent
        ingestion.
        """
        self.flush()
        capture_windows = self._windows_query("capture")["windows"]
        return {
            "records_seen": self.records_seen,
            "watermark": self.watermark,
            "capture_windows": capture_windows,
            "windowed_victim_pairs": sum(
                w["victim_pairs"] for w in capture_windows
            ),
            "totals": self.totals_view(),
            "parse_stats": self.query_parse_stats(),
            "ingest": self.query_ingest(),
            "sketches": {
                name: {"cm": pair["cm"].as_dict(), "topk": pair["topk"].as_dict(10)}
                for name, pair in self.sketches_view().items()
            },
        }
