"""The incremental engine: windowed aggregates + sketches over a stream.

:class:`StreamEngine` consumes :class:`~repro.stream.replay.StreamRecord`
values one at a time and maintains, simultaneously:

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

Capture decode path
-------------------
Mode-7 captures are *buffered* per open window and decoded in columnar
micro-batches through the decoder the batch corpus uses
(:func:`~repro.analysis.event_columns.decode_capture_batch`).  It
reassembles in-order, reordered, duplicated and gapped captures itself;
only a capture with a malformed packet goes — whole — to
:func:`~repro.analysis.monlist_parse.reconstruct_table_lenient`, so
``ParseStats`` advance counter for counter with the batch corpus on clean
and fault-injected streams alike.  Capture payloads without a packed
store (plain :class:`~repro.measurement.onp.ProbeCapture` values) are
packed at flush and take the same decoder.  Entries are classified by
:func:`~repro.analysis.victimology.classify_columns`, the §4.2 filter
kernel the batch victimology report uses.  Buffers are flushed
before any read and before their window closes, and every per-window
quantity is an order-free aggregate (sets, sums, per-key totals), so
flush timing is unobservable: answers depend only on the records applied.

Sketch updates are deferred to window close: each open window accumulates
exact per-key totals (victim packets by IP, by origin AS, amplifier entry
counts, ISP victim bytes) and folds them into the global sketches in
sorted-key order when the window closes.  Reads merge the still-open
windows' exact aggregates on top (:meth:`StreamEngine.sketches_view`), so
mid-window answers lose nothing — but the sketch add *sequence* becomes a
deterministic function of the applied records alone, independent of when
queries arrive or how the stream is batched.  Space-saving is sensitive
to add order, so this is what keeps its answers a function of the
records applied.

The streaming path deliberately does not advance the batch parse-once
ledger — replay is a re-read of the measurement layer, and the engine's
own ingest accounting (``total == applied + late + duplicate`` per kind)
is the discipline that replaces it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.analysis.monlist_parse import ParseStats
from repro.analysis.victimology import (
    CODE_NON_VICTIM,
    CODE_SCANNER,
    CODE_VICTIM,
    classify_columns,
)
from repro.measurement.capture_store import pack_captures
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

#: Sketch names fed by capture windows vs ISP windows; folds happen per
#: closed window in ascending index order, keys sorted within a window.
_CAPTURE_SKETCHES = (
    ("victim_packets", "victim_packets_by_ip"),
    ("as_packets", "as_packets"),
    ("amplifier_entries", "amp_entries"),
)

#: Per-family view sources: which open windows feed which sketch pair
#: (order fixed — it is also the canonical family enumeration).
_VIEW_SOURCES = {
    "victim_packets": ("capture", "victim_packets_by_ip"),
    "as_packets": ("capture", "as_packets"),
    "amplifier_entries": ("capture", "amp_entries"),
    "isp_victim_bytes": ("isp", "victims"),
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


def _stats_dict(stats):
    return {name: getattr(stats, name) for name in _STATS_FIELDS}


def _add_stats(into, stats):
    for name in _STATS_FIELDS:
        into[name] += getattr(stats, name)


def _fold_totals(pair, totals):
    """Add one window's exact per-key totals into one sketch pair, keys
    in sorted order (a fold sequence fixed by the window's contents,
    whatever order its records arrived in)."""
    keys = sorted(totals)
    weights = [totals[key] for key in keys]
    pair["cm"].add_many(keys, weights)
    pair["topk"].add_many(keys, weights)


def _fold_capture_aggregates(sketches, state):
    """Add one capture window's exact per-key totals into the sketches."""
    for sketch_name, state_key in _CAPTURE_SKETCHES:
        totals = state[state_key]
        if totals:
            _fold_totals(sketches[sketch_name], totals)


def _fold_isp_aggregates(sketches, state):
    """Add one ISP window's exact per-victim byte totals into the sketches."""
    victims = state["victims"]
    if victims:
        _fold_totals(sketches["isp_victim_bytes"], victims)


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

        self.windows = {
            "sweep": WindowSet(
                capture_width,
                origin=capture_origin,
                state_factory=self._new_sweep_state,
            ),
            "capture": WindowSet(
                capture_width,
                origin=capture_origin,
                state_factory=self._new_capture_state,
                finalize=self._finalize_capture,
                on_close=self._close_capture_window,
            ),
            "darknet": WindowSet(
                float(DAY),
                state_factory=set,
                finalize=self._finalize_darknet,
            ),
            "isp": WindowSet(
                float(DAY),
                state_factory=self._new_isp_state,
                finalize=self._finalize_isp,
                on_close=self._close_isp_window,
            ),
            "arbor": WindowSet(
                float(DAY),
                state_factory=self._new_arbor_state,
                finalize=self._finalize_arbor,
            ),
        }
        self._apply = {
            "sweep": self._apply_sweep,
            "darknet": self._apply_darknet,
            "isp": self._apply_isp,
            "arbor": self._apply_arbor,
        }

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
        # to (skip redundant sweeps), per-IP ASN memo, sketch-view cache.
        self._dirty = set()
        self._advanced_to = None
        self._asn_cache = {}
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

    # -- per-kind window state ------------------------------------------------

    @staticmethod
    def _new_sweep_state():
        return {"sweeps": 0, "outages": 0, "coverage": [], "n_captures": 0}

    @staticmethod
    def _new_capture_state():
        return {
            "stats": ParseStats(),
            "amplifiers": set(),
            "victims": set(),
            "victim_pairs": 0,
            "victim_packets": 0,
            "scanner_entries": 0,
            "non_victim_entries": 0,
            "max_last_seen": [],
            "victim_packets_by_ip": {},
            "as_packets": {},
            "amp_entries": {},
            "pending": [],
        }

    @staticmethod
    def _new_isp_state():
        return {"victims": {}, "cells": 0}

    @staticmethod
    def _new_arbor_state():
        return {"total_bps": None, "ntp_bps": None, "dns_bps": None, "gap": False}

    # -- appliers -------------------------------------------------------------

    def _apply_sweep(self, state, payload):
        state["sweeps"] += 1
        state["outages"] += 1 if payload["outage"] else 0
        state["coverage"].append(payload["coverage"])
        state["n_captures"] += payload["n_captures"]

    def _apply_darknet(self, state, scanner_ip):
        state.add(scanner_ip)
        self.totals["darknet_memberships"] += 1

    def _apply_isp(self, state, payload):
        ip, volume = payload
        state["victims"][ip] = state["victims"].get(ip, 0.0) + volume
        state["cells"] += 1
        self.totals["isp_cells"] += 1
        self._isp_mut += 1

    def _apply_arbor(self, state, payload):
        if payload is None:
            state["gap"] = True
            self.totals["arbor_gap_days"] += 1
            return
        state["total_bps"], state["ntp_bps"], state["dns_bps"] = payload
        self.totals["arbor_days"] += 1

    # -- capture micro-batch decode -------------------------------------------

    def _flush_capture_window(self, index):
        window = self.windows["capture"].open.get(index)
        if window is None:
            return
        pending = window.state["pending"]
        if pending:
            window.state["pending"] = []
            self._decode_pending(window.state, pending)

    def flush(self):
        """Decode every buffered capture; answers never see a buffer."""
        if self._dirty:
            for index in sorted(self._dirty):
                self._flush_capture_window(index)
            self._dirty.clear()

    def _decode_pending(self, state, pending):
        from repro.analysis.event_columns import decode_capture_batch

        self.totals["captures"] += len(pending)
        by_store = {}
        loose = []
        for capture in pending:
            store = getattr(capture, "_store", None)
            if store is None:
                loose.append(capture)
                continue
            group = by_store.get(id(store))
            if group is None:
                group = by_store[id(store)] = (store, [])
            group[1].append(capture._index)
        groups = list(by_store.values())
        if loose:
            store = pack_captures(loose)
            groups.append((store, np.arange(len(store))))
        for store, positions in groups:
            batch = decode_capture_batch(store, positions, state["stats"])
            self._apply_capture_batch(state, batch)

    def _apply_capture_batch(self, state, batch):
        """Fold one decoded columnar batch into the window's aggregates.

        Every update is order-free (set unions, per-key sums, a multiset
        for the percentile), so batching granularity cannot change any
        answer; entries are classified by
        :func:`~repro.analysis.victimology.classify_columns`.
        """
        amps = batch.amplifier.tolist()
        n_tbl = len(amps)
        if not n_tbl:
            return
        self.totals["tables"] += n_tbl
        state["amplifiers"].update(amps)
        counts_tbl = batch.entry_counts
        amp_totals = state["amp_entries"]
        for amp, n in zip(amps, counts_tbl.tolist()):
            if n:
                amp_totals[amp] = amp_totals.get(amp, 0) + n
        entries = batch.entries
        n_entries = len(entries)
        if not n_entries:
            return
        self.totals["entries"] += n_entries

        last = entries["last"].astype(np.int64)
        nonzero = counts_tbl > 0
        if nonzero.any():
            seg_starts = batch.entry_start[:-1][nonzero]
            state["max_last_seen"].extend(
                np.maximum.reduceat(last, seg_starts).tolist()
            )

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
        state["non_victim_entries"] += n_nv
        self.totals["non_victim_entries"] += n_nv
        state["scanner_entries"] += n_scan
        self.totals["scanner_entries"] += n_scan
        if not n_vic:
            return
        state["victim_pairs"] += n_vic
        self.totals["victim_pairs"] += n_vic
        victim = codes == CODE_VICTIM
        vaddr = addr[victim]
        vcount = count[victim]
        packets = int(vcount.sum())
        state["victim_packets"] += packets
        self.totals["victim_packets"] += packets
        uniq, inverse = np.unique(vaddr, return_inverse=True)
        # float64 bincount is exact here: per-window per-IP sums stay far
        # below 2**53.
        sums = np.bincount(inverse, weights=vcount.astype(np.float64))
        per_ip = state["victim_packets_by_ip"]
        keys = uniq.tolist()
        values = sums.astype(np.int64).tolist()
        for ip, total in zip(keys, values):
            per_ip[ip] = per_ip.get(ip, 0) + total
        state["victims"].update(keys)
        if self.asn_of is not None:
            per_as = state["as_packets"]
            cache = self._asn_cache
            for ip, total in zip(keys, values):
                asn = cache.get(ip, -1)
                if asn == -1:
                    asn = self.asn_of(ip)
                    cache[ip] = asn
                if asn is not None:
                    per_as[asn] = per_as.get(asn, 0) + total

    # -- finalizers -----------------------------------------------------------

    def _close_capture_window(self, state):
        # Runs exactly once per window, at close: decode any buffered
        # captures, fold the window's ParseStats into the stream-global
        # counters, fold its per-key aggregates into the sketches.  Open
        # windows are folded non-destructively at read time instead.
        pending = state["pending"]
        if pending:
            state["pending"] = []
            self._decode_pending(state, pending)
        _add_stats(self.global_stats, state["stats"])
        _fold_capture_aggregates(self.sketches, state)
        self._cap_mut += 1

    def _close_isp_window(self, state):
        self.isp_bytes_closed += math.fsum(state["victims"].values())
        _fold_isp_aggregates(self.sketches, state)
        self._isp_mut += 1

    def _finalize_capture(self, index, lo, hi, state, records):
        mls = state["max_last_seen"]
        return {
            "captures": records,
            "amplifiers": len(state["amplifiers"]),
            "victim_pairs": state["victim_pairs"],
            "unique_victims": len(state["victims"]),
            "victim_packets": state["victim_packets"],
            "scanner_entries": state["scanner_entries"],
            "non_victim_entries": state["non_victim_entries"],
            "median_view_hours": percentile(mls, 50) / HOUR if mls else 0.0,
            "stats": _stats_dict(state["stats"]),
        }

    @staticmethod
    def _finalize_darknet(index, lo, hi, state, records):
        return {"scanners": len(state)}

    @staticmethod
    def _finalize_isp(index, lo, hi, state, records):
        return {
            "cells": state["cells"],
            "victims": len(state["victims"]),
            # Exactly-rounded, hence independent of dict insertion
            # order — the same records summarize identically however
            # they arrived.
            "bytes": math.fsum(state["victims"].values()),
        }

    @staticmethod
    def _finalize_arbor(index, lo, hi, state, records):
        total, ntp, dns = state["total_bps"], state["ntp_bps"], state["dns_bps"]
        if state["gap"] and total is None:
            return {"gap": True, "ntp_frac": None, "dns_frac": None}
        if not total:
            return {"gap": False, "ntp_frac": 0.0, "dns_frac": 0.0}
        return {"gap": False, "ntp_frac": ntp / total, "dns_frac": dns / total}

    # -- ingest ---------------------------------------------------------------

    @property
    def watermark(self):
        """Latest event time minus the tolerated skew (None before any
        record)."""
        if self.max_event_t is None:
            return None
        return self.max_event_t - self.skew

    def _advance_windows(self, watermark):
        """Close every window the watermark has passed (buffers flush in
        the capture on_close hook before finalize reads the state)."""
        self._advanced_to = watermark
        for ws in self.windows.values():
            ws.advance(watermark)

    def ingest(self, record):
        """Apply one record; returns True iff it landed in an open window."""
        self.records_seen += 1
        self.generation += 1
        t, kind, uid, payload = record
        window_set = self.windows.get(kind)
        if window_set is None:
            self.unknown_kinds += 1
            return False
        max_t = self.max_event_t
        if max_t is None or t > max_t:
            self.max_event_t = max_t = t
        watermark = max_t - self.skew
        index = window_set.windows.index_of(t)
        state = window_set.offer_at(index, uid, watermark)
        applied = state is not None
        if applied:
            if kind == "capture":
                state["pending"].append(payload)
                self._dirty.add(index)
                self._cap_mut += 1
            else:
                self._apply[kind](state, payload)
        if watermark != self._advanced_to:
            self._advance_windows(watermark)
        return applied

    def ingest_many(self, records):
        """Drive a whole iterable through the ingest discipline in one
        hoisted loop; returns the number applied.

        Accounting-identical to per-record :meth:`ingest` (the property
        tests assert it on adversarial streams): same ledger decisions,
        same window closes, same aggregates.  Two layers of hoisting:

        * **Run batching** — a maximal run of same-kind darknet or
          capture records that stays time-sorted inside one already-open
          window with no duplicate uids is applied with bulk set/list
          operations.  Such a run is the sorted-replay common case; the
          per-record discipline cannot observe the difference because
          every run record lands in that one open window (its end is
          past every run timestamp, so nothing in the run is late and
          the window cannot close mid-run), the window aggregates are
          order-free, and deferring the watermark sweep to the run's
          end closes exactly the same windows — cross-kind close order
          is unobservable because each kind folds into disjoint
          accumulators, while same-kind closes stay in ascending index
          order either way.

        * **Per-record fallback** — anything irregular (out-of-order
          timestamps, duplicates, window boundaries, sweep/isp/arbor
          records, unknown kinds) drops to the inlined equivalent of
          :meth:`ingest` for that record alone, window-index boundary
          nudge included, so fault-injected streams take the exact
          per-record ledger path.
        """
        if not isinstance(records, list):
            records = list(records)
        windows = self.windows
        skew = self.skew
        apply = self._apply
        dirty = self._dirty
        totals = self.totals
        floor = math.floor
        max_t = self.max_event_t
        advanced_to = self._advanced_to
        # kind -> (origin, width, window set, bound offer_at).
        plans = {
            kind: (ws.windows.origin, ws.windows.width, ws, ws.offer_at)
            for kind, ws in windows.items()
        }
        seen = applied = unknown = 0
        i, n = 0, len(records)
        while i < n:
            record = records[i]
            t, kind, uid, payload = record
            plan = plans.get(kind)
            if plan is None:
                unknown += 1
                seen += 1
                i += 1
                continue
            origin, width, ws, offer_at = plan
            index = floor((t - origin) / width)
            if t < origin + index * width:
                index -= 1
            elif t >= origin + (index + 1) * width:
                index += 1
            # -- bulk path: sorted same-kind run inside one open window --
            if (kind == "darknet" or kind == "capture") and (
                max_t is None or t >= max_t
            ):
                window = ws.open.get(index)
                if window is not None:
                    hi = origin + (index + 1) * width
                    j = i + 1
                    t_end = t
                    while j < n:
                        r = records[j]
                        if r[1] != kind:
                            break
                        rt = r[0]
                        if rt < t_end or rt >= hi:
                            break
                        t_end = rt
                        j += 1
                    if j - i >= 4:
                        run = records[i:j]
                        uids = {r[2] for r in run}
                        wseen = window.seen
                        # A redelivery inside the run itself (uids
                        # collapse) must take the per-record duplicate
                        # path, not ride the bulk apply.
                        if len(uids) == j - i and wseen.isdisjoint(uids):
                            count = j - i
                            wseen.update(uids)
                            window.records += count
                            ws.total += count
                            ws.applied += count
                            applied += count
                            seen += count
                            if kind == "darknet":
                                window.state.update(r[3] for r in run)
                                totals["darknet_memberships"] += count
                            else:
                                window.state["pending"].extend(r[3] for r in run)
                                dirty.add(index)
                                self._cap_mut += 1
                            max_t = t_end
                            watermark = t_end - skew
                            if watermark != advanced_to:
                                advanced_to = watermark
                                self.max_event_t = max_t
                                self._advance_windows(watermark)
                            i = j
                            continue
            # -- per-record fallback ------------------------------------
            seen += 1
            i += 1
            if max_t is None or t > max_t:
                max_t = t
            watermark = max_t - skew
            state = offer_at(index, uid, watermark)
            if state is not None:
                applied += 1
                if kind == "darknet":
                    state.add(payload)
                    totals["darknet_memberships"] += 1
                elif kind == "capture":
                    state["pending"].append(payload)
                    dirty.add(index)
                    self._cap_mut += 1
                else:
                    apply[kind](state, payload)
            if watermark != advanced_to:
                advanced_to = watermark
                self.max_event_t = max_t
                self._advance_windows(watermark)
        self.max_event_t = max_t
        self.records_seen += seen
        self.unknown_kinds += unknown
        self.generation += seen
        return applied

    def close(self):
        """End of stream: finalize every still-open window."""
        self.flush()
        self.generation += 1
        for ws in self.windows.values():
            ws.close_all()
        self._dirty.clear()

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
            source, state_key = _VIEW_SOURCES[name]
            mut = self._cap_mut if source == "capture" else self._isp_mut
            cached = built.get(name)
            if cached is not None and cached[0] == mut:
                out[name] = cached[1]
                continue
            base = self.sketches[name]
            pair = {"cm": base["cm"].copy(), "topk": base["topk"].copy()}
            open_map = cap_open if source == "capture" else isp_open
            for index in sorted(open_map):
                totals = open_map[index].state[state_key]
                if totals:
                    _fold_totals(pair, totals)
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

    def _windows_query(self, kind):
        self.flush()
        rows = [
            {"window": index, "lo": lo, "hi": hi, "open": is_open, **summary}
            for index, lo, hi, summary, is_open in self.windows[kind].summaries()
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
            _add_stats(out, window.state["stats"])
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
