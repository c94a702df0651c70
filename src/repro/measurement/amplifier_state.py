"""The ONP sweep's monitor tables, kept as columns per build block.

Maintaining 1.4M monlist tables packet by packet would be wasteful: the
world only *observes* a table when the weekly ONP probe renders it.  A
table is therefore caught up to each sweep time from four feeds, which
the :class:`AmplifierStateManager` holds:

* the host's static **background clients** (absolute state: one
  count/first/last row per client, computed in closed form);
* **research scanners**, which sweep on a fixed schedule (absolute rows);
* **malicious scanners**, which hit a host with probability equal to
  their coverage (the only random draws, from a per-IP stream);
* **attack legs** (:class:`~repro.population.columns.PulseColumns`)
  that ended since the table's last sync.

A :class:`MonitorTableStore` keeps every table one build block ever
materialized as row arrays.  A sweep builds the new rows of all its
active hosts at once, folds them into the store with one sort, and
encodes every surviving reply through ``MON_V2_DTYPE``.  The store
reproduces the per-host ntpd table exactly (``tests/onp_oracle.py`` is
that per-host sync, the oracle it is checked against):

* a server is keyed by IP within its block, and its configuration comes
  from the first host that touched the IP, in either sweep;
* daemon restarts flush a table at ``(ip % 997) / 997 × interval`` and
  every ``interval`` after it (accumulated by repeated addition); a
  monlist sync rebuilds absolute rows from the flush base, the last
  boundary it crossed, while a flush inside a version sweep leaves that
  base where it was;
* absolute rows replace a row's values but keep its position;
  accumulating rows add their packets, take the max of last seen and the
  min of first seen, and replace port, mode and version;
* MRU order is last seen descending, then insertion order since the
  last flush; a table that grows past twice its capacity keeps its
  ``capacity`` most recent rows, a case the store replays one row at a
  time through a :class:`~repro.ntp.monlist.MonlistTable`.
"""

import numpy as np

from repro.ntp.constants import IMPL_XNTPD, MODE_CLIENT, MODE_CONTROL, MODE_PRIVATE, MONLIST_CAPACITY
from repro.ntp.monlist import MonlistTable, encode_reply_tables
from repro.ntp.server import ServerConfig, version_reply_packets
from repro.measurement.capture_store import PackedCaptures
from repro.population.amplifiers import client_columns
from repro.population.columns import index_ranges
from repro.util.simtime import DAY

__all__ = ["AmplifierStateManager", "MonitorTableStore", "extra_vars_for"]

#: The store's rows, one per (server slot, client address), as an int64
#: array with one row per field below and a float64 array with first and
#: last seen.  ``pos`` orders a table's rows by first insertion since its
#: last flush, which breaks MRU ties.  Each table's columns are
#: contiguous and in MRU order: last seen descending, then ``pos``.
ROW_INTS = ("slot", "addr", "port", "mode", "version", "count", "pos", "absolute")
SLOT, ADDR, PORT, MODE, VERSION, COUNT, POS, ABSOLUTE = range(len(ROW_INTS))
FIRST, LAST, SPAN = range(3)

#: A sweep's table operations, the same way, with ``sync`` (which host
#: sync an operation belongs to) where a row has ``pos``; and first, last
#: and span as floats.  An absolute operation sets a row (a stored row
#: counts as one); any other adds ``count`` packets arriving over
#: ``[last - span, last]`` (``first`` is ``last - span``).
OP_INTS = ROW_INTS[:POS] + ("sync", "absolute")
SYNC = POS

#: A probe's source port: the sweep's ``int(t) % 1000`` above this base.
_PROBE_PORT_BASE = 50557

#: Every simulated build reports the default reference ID.
_REFID = ServerConfig.refid


def extra_vars_for(ip):
    """How many optional system variables the build at ``ip`` reports:
    most builds a modest set, a minority a chatty one."""
    return (ip % 23) if ip % 5 == 0 else (ip % 9)


def _ops(n, first=0.0, last=0.0, span=0.0, **ints):
    """``n`` operations as ``(ints, floats)``; a scalar field (or a
    missing one, as zero) is the same for every operation."""
    out = np.zeros((len(OP_INTS), n), dtype=np.int64)
    for name, value in ints.items():
        out[OP_INTS.index(name)] = value
    floats = np.empty((3, n), dtype=np.float64)
    floats[FIRST], floats[LAST], floats[SPAN] = first, last, span
    return out, floats


def _concat_ops(parts):
    return tuple(np.concatenate([part[i] for part in parts], axis=1) for i in (0, 1))


class AmplifierStateManager:
    """The feeds every monitor table is caught up from.

    ``table_capacity`` is the monlist capacity the stores render and
    prune at; only tests shrink it, so that their tables prune.
    """

    def __init__(self, rng, research_scanners, malicious_coverage_per_day=None, table_capacity=MONLIST_CAPACITY):
        self._rng = rng.child("amp-state")
        #: Every attack leg as one PulseColumns batch (None until registered).
        self._pulse_columns = None
        self._research = research_scanners
        self._research_times = [np.array(sorted(s.sweep_times()), dtype=np.float64) for s in research_scanners]
        #: Every research sweep time, scanner after scanner; where each
        #: scanner's times start; each scanner's row address, port and mode.
        self._research_rows = (
            np.concatenate(self._research_times) if research_scanners else np.zeros(0),
            np.cumsum([0] + [len(times) for times in self._research_times[:-1]], dtype=np.int64),
            np.array([s.ip for s in research_scanners], dtype=np.int64),
            np.array([50000 + (s.ip % 10000) for s in research_scanners], dtype=np.int64),
            np.array([s.mode for s in research_scanners], dtype=np.int64),
        )
        #: {day index: (total malicious coverage, [scanner ips sample])}
        self._malicious_by_day = malicious_coverage_per_day or {}
        self.table_capacity = table_capacity
        # Derived (rebuilt on demand, dropped from pickles): a day-sorted
        # prefix index over _malicious_by_day plus a per-(day0, day1) memo
        # of window sums — sync windows are day-quantized, so thousands of
        # hosts share a handful of distinct windows per sample.
        self._malicious_index = None
        self._malicious_window_cache = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_malicious_index"] = None
        state["_malicious_window_cache"] = {}
        return state

    # -- wiring -------------------------------------------------------------------

    def register_pulse_columns(self, columns):
        """Give the manager every attack leg as one columnar batch.

        ``columns`` is a :class:`~repro.population.columns.PulseColumns`
        (sorted by amplifier, then end).  A later call replaces the batch.
        Legs must be registered before any sync whose window should
        contain them: a leg whose ``end`` precedes the table's last sync
        is never replayed.
        """
        self._pulse_columns = columns

    def register_malicious_activity(self, sweeps):
        """Summarize malicious sweeps into per-day (coverage, scanner IPs)."""
        for sweep in sweeps:
            if sweep.kind != "malicious":
                continue
            day = int(sweep.t // DAY)
            coverage, ips = self._malicious_by_day.get(day, (0.0, []))
            coverage += sweep.coverage
            if len(ips) < 64:
                ips = ips + [(sweep.scanner_ip, sweep.mode)]
            self._malicious_by_day[day] = (coverage, ips)
        self._malicious_index = None
        self._malicious_window_cache = {}

    def _malicious_prefix(self):
        """(sorted days, aligned coverages, flat ip pool, pool offsets)."""
        index = self._malicious_index
        if index is None:
            days = sorted(self._malicious_by_day)
            coverages = []
            offsets = [0]
            flat = []
            for day in days:
                coverage, ips = self._malicious_by_day[day]
                coverages.append(coverage)
                flat.extend(ips)
                offsets.append(len(flat))
            index = (days, coverages, flat, offsets)
            self._malicious_index = index
        return index

    def _malicious_window(self, day0, day1):
        """(summed coverage, pool lo, pool hi) of the days ``day0..day1``."""
        window = self._malicious_window_cache.get((day0, day1))
        if window is None:
            days, coverages, _flat, offsets = self._malicious_prefix()
            lo = int(np.searchsorted(days, day0, side="left"))
            hi = int(np.searchsorted(days, day1, side="right"))
            # Ascending-day sequential sum: prefix-sum differences would
            # round differently and shift the Poisson draw.
            total_coverage = 0.0
            for i in range(lo, hi):
                total_coverage += coverages[i]
            window = (total_coverage, offsets[lo], offsets[hi])
            self._malicious_window_cache[(day0, day1)] = window
        return window


class MonitorTableStore:
    """The monitor tables of one build block's servers, as row arrays.

    ``hosts`` is the block's host list; every method takes hosts as
    indices into it, in sweep (host) order.  A host may share its IP,
    and so its server, with other hosts of the block.
    """

    def __init__(self, feeds, hosts):
        self._feeds = feeds
        self._capacity = feeds.table_capacity
        self._hosts = hosts
        ips = np.array([h.ip for h in hosts], dtype=np.int64)
        self._birth = np.array([h.birth for h in hosts], dtype=np.float64)
        self._loop = np.array([h.loop_factor for h in hosts], dtype=np.int64)
        self._restart = np.array(
            [np.nan if h.restart_interval is None else h.restart_interval for h in hosts], dtype=np.float64
        )
        #: A server renders monlist replies only for IMPL_XNTPD builds.
        self._renders = np.array(
            [h.monlist_amplifier and IMPL_XNTPD in h.implementations for h in hosts], dtype=bool
        )
        self._answers_version = np.array([h.responds_version for h in hosts], dtype=bool)
        self._clients, self._client_offsets = client_columns(hosts)
        self._slot_ip, self._slot = np.unique(ips, return_inverse=True)
        n_slots = len(self._slot_ip)
        #: Per server slot: the host that configured it (-1: not yet touched).
        self._config = np.full(n_slots, -1, dtype=np.int64)
        self._last_sync = np.zeros(n_slots, dtype=np.float64)
        self._next_flush = np.full(n_slots, np.nan)
        self._flush_base = np.full(n_slots, np.nan)
        self._ints = np.zeros((len(ROW_INTS), 0), dtype=np.int64)
        self._floats = np.zeros((2, 0), dtype=np.float64)
        self._next_pos = 0
        self._now = -np.inf
        self._mal_rngs = {}
        #: Version probes not yet folded in (see record_version_probes).
        self._pending = None
        self._legs_source = None
        self._legs = None
        # Each slot's mode-6 reply, rendered once: its bytes, its packet
        # count (-1 until rendered) and where its packet lengths start.
        self._reply_bytes = [b""] * n_slots
        self._reply_count = np.full(n_slots, -1, dtype=np.int64)
        self._reply_first = np.zeros(n_slots, dtype=np.int64)
        self._reply_lens = np.zeros(0, dtype=np.int64)

    # -- servers -----------------------------------------------------------------------

    def _materialize(self, hosts, slots):
        """Configure each untouched server from the first of its hosts here."""
        fresh = self._config[slots] < 0
        if not fresh.any():
            return
        new_slots, first = np.unique(slots[fresh], return_index=True)
        source = hosts[fresh][first]
        self._config[new_slots] = source
        self._last_sync[new_slots] = self._birth[source]
        self._next_flush[new_slots] = (self._slot_ip[new_slots] % 997) / 997.0 * self._restart[source]

    def _advance_flush(self, slots, t):
        """Pass every restart boundary ``<= t`` of these slots; returns
        the slots that flushed.

        ntpd adds the interval once per boundary.  A cumulative sum along
        each row adds in the same order, so every boundary is the float
        that repeated addition gives (``start + k × interval`` is not);
        rows take up to 64 boundaries a round.
        """
        flushed = slots[self._next_flush[slots] <= t]
        boundary = self._next_flush[flushed]
        interval = self._restart[self._config[flushed]]
        late = np.arange(len(flushed))
        while len(late):
            steps = np.empty((len(late), 65))
            steps[:, 0] = boundary[late]
            steps[:, 1:] = interval[late, None]
            np.cumsum(steps, axis=1, out=steps)
            passed = np.minimum((steps <= t).sum(axis=1), 64)
            boundary[late] = steps[np.arange(len(late)), passed]
            late = late[boundary[late] <= t]
        self._next_flush[flushed] = boundary
        return flushed

    # -- the monlist sweep ----------------------------------------------------------------

    def sync(self, hosts, t, prober_ip):
        """Catch the tables of these hosts' servers up to ``t`` and record
        the probe from ``prober_ip``; returns the hosts whose server
        answers, in order.

        Servers that never render a monlist reply are configured but not
        synced: their tables, and the per-IP streams they would draw
        from, can never show in a capture.
        """
        if t < self._now:
            raise ValueError("sync cannot move backwards")
        self._now = t
        slots = self._slot[hosts]
        self._materialize(hosts, slots)
        renders = self._renders[self._config[slots]]
        hosts, slots = hosts[renders], slots[renders]
        if not len(hosts):
            return hosts
        # A host's second sync of one sweep (its IP shared) starts where
        # its first ended.
        last = self._last_sync[slots]
        shared = np.bincount(slots).max() > 1
        if shared:
            uniq, first = np.unique(slots, return_index=True)
            last = np.full(len(hosts), t)
            last[first] = self._last_sync[uniq]
        else:
            uniq = slots
        flushed = self._advance_flush(uniq, t)
        self._flush_base[flushed] = self._next_flush[flushed] - self._restart[self._config[flushed]]
        self._clear(flushed)
        self._last_sync[uniq] = t
        birth = self._birth[hosts]
        flush_base = self._flush_base[slots]
        base = np.where(np.isnan(flush_base), birth, np.maximum(flush_base, birth))
        start = np.maximum(last, base)
        loop = self._loop[self._config[slots]]
        ops = [
            *([] if self._pending is None else [self._pending]),
            self._background_ops(hosts, slots, np.where(base > birth, base, -np.inf), t),
            self._research_ops(slots, base, t),
            self._malicious_ops(slots, start, t),
            self._leg_ops(slots, start, t, loop),
            _ops(
                len(hosts),
                sync=np.arange(len(hosts)),
                slot=slots,
                addr=prober_ip,
                port=_PROBE_PORT_BASE + int(t) % 1000,
                mode=MODE_PRIVATE,
                version=2,
                count=loop,
                first=t,
                last=t,
            ),
        ]
        op_ints, op_floats = _concat_ops(ops)
        if shared:
            # The operations of a server's syncs apply sync by sync.
            order = np.argsort(op_ints[SYNC], kind="stable")
            op_ints, op_floats = op_ints.take(order, axis=1), op_floats.take(order, axis=1)
        self._fold(op_ints, op_floats)
        self._pending = None
        return hosts

    def _background_ops(self, hosts, slots, since, t):
        """Each client's absolute row: its polls in ``(since, t]``."""
        lo = self._client_offsets[hosts]
        lengths = self._client_offsets[hosts + 1] - lo
        rows = index_ranges(lo, lengths)
        sync = np.arange(len(hosts)).repeat(lengths)
        clients = self._clients
        firsts = clients.first_polls[rows]
        intervals = clients.intervals[rows]
        ones = clients.one_shot[rows]
        since = since[sync]
        total = np.where(ones, 1, 1 + np.floor((t - firsts) / intervals)).astype(np.int64)
        lasts = firsts + (total - 1) * intervals
        before = np.where(
            ones,
            (firsts <= since).astype(np.int64),
            np.maximum(1 + np.floor((since - firsts) / intervals), 0).astype(np.int64),
        )
        before = np.minimum(before, total)
        counts = total - before
        keep = (firsts <= t) & (counts >= 1) & (lasts > since)
        return _ops(
            int(keep.sum()),
            sync=sync[keep],
            slot=slots[sync[keep]],
            addr=clients.ips[rows[keep]],
            port=clients.ports[rows[keep]],
            mode=MODE_CLIENT,
            version=4,
            count=counts[keep],
            first=(firsts + before * intervals)[keep],
            last=lasts[keep],
            absolute=True,
        )

    def _research_ops(self, slots, base, t):
        """Each research scanner's absolute row: its sweeps in ``(base, t]``."""
        times = self._feeds._research_times
        lo = np.array([sweeps.searchsorted(base, side="right") for sweeps in times], dtype=np.int64)
        lo = lo.reshape(len(times), len(slots))
        hi = np.array([sweeps.searchsorted(t, side="right") for sweeps in times], dtype=np.int64)
        scanner, sync = np.nonzero(lo < hi[:, None])
        lo, hi = lo[scanner, sync], hi[scanner]
        flat, offsets, addr, port, mode = self._feeds._research_rows
        return _ops(
            len(sync),
            sync=sync,
            slot=slots[sync],
            addr=addr[scanner],
            port=port[scanner],
            mode=mode[scanner],
            version=2,
            count=hi - lo,
            first=flat[offsets[scanner] + lo],
            last=flat[offsets[scanner] + hi - 1],
            absolute=True,
        )

    def _malicious_ops(self, slots, start, t):
        """Malicious scanner hits in ``[start, t]``: up to six a sync, drawn
        per sync in host order from the server IP's own stream."""
        feeds = self._feeds
        if not feeds._malicious_by_day:
            return _ops(0)
        day1 = int(t // DAY)
        flat = feeds._malicious_prefix()[2]
        rngs = self._mal_rngs
        hits = []
        for k, (slot, window_start) in enumerate(zip(slots.tolist(), start.tolist())):
            coverage, lo, hi = feeds._malicious_window(int(window_start // DAY), day1)
            if hi == lo or coverage <= 0:
                continue
            rng = rngs.get(slot)
            if rng is None:
                rng = rngs[slot] = feeds._rng.child(f"host-{int(self._slot_ip[slot])}").generator
            span = max(1.0, t - window_start)
            for _ in range(min(int(rng.poisson(coverage)), 6)):
                ip, mode = flat[lo + int(rng.integers(0, hi - lo))]
                # rng.uniform(0, span), which NumPy draws as 0 + span * random().
                at = min(window_start + span * rng.random(), t)
                hits.append((k, slot, ip, int(rng.integers(1024, 65535)), mode, at))
        sync, slot, addr, port, mode, at = np.array(hits, dtype=np.float64).reshape(-1, 6).T
        return _ops(
            len(hits), sync=sync, slot=slot, addr=addr, port=port, mode=mode, version=2, count=1, first=at, last=at
        )

    def _leg_index(self):
        """The attack legs of this block's servers: a key that sorts them
        by (slot, end) exactly, plus their columns (rebuilt when the
        manager's legs are replaced)."""
        columns = self._feeds._pulse_columns
        if columns is not self._legs_source:
            self._legs_source = columns
            self._legs = None
            if columns is not None:
                lo = np.searchsorted(columns.amp_ip, self._slot_ip, side="left")
                lengths = np.searchsorted(columns.amp_ip, self._slot_ip, side="right") - lo
                legs = index_ranges(lo, lengths)
                distinct, rank = np.unique(columns.end[legs], return_inverse=True)
                stride = len(distinct) + 1
                key = np.repeat(np.arange(len(self._slot_ip)), lengths) * stride + rank + 1
                self._legs = (key, distinct, stride, legs)
        return self._legs

    def _leg_ops(self, slots, start, t, loop):
        """Every leg of a synced server that ended in ``(start, t]``,
        recorded at its end; legs still in flight wait for a later sync."""
        index = self._leg_index()
        if index is None:
            return _ops(0)
        key, distinct, stride, legs = index
        lo = key.searchsorted(slots * stride + distinct.searchsorted(start, side="right"), side="right")
        hi = key.searchsorted(slots * stride + distinct.searchsorted(t, side="right"), side="right")
        chosen = legs[index_ranges(lo, hi - lo)]
        sync = np.arange(len(slots)).repeat(hi - lo)
        columns = self._legs_source
        duration = columns.duration[chosen]
        end = columns.end[chosen]
        # A loop resends no faster than the uplink: ~30K replies a second.
        link_cap = (30_000 * np.maximum(1.0, duration)).astype(np.int64)
        return _ops(
            len(chosen),
            sync=sync,
            slot=slots[sync],
            addr=columns.victim_ip[chosen],
            port=columns.victim_port[chosen],
            mode=columns.mode[chosen],
            version=2,
            count=np.minimum(columns.query_count[chosen] * loop[sync], link_cap),
            first=end - duration,
            last=end,
            span=duration,
        )

    # -- the version sweep ---------------------------------------------------------------

    def version_repliers(self, hosts):
        """The hosts whose server answers a mode-6 READVAR, in order."""
        slots = self._slot[hosts]
        self._materialize(hosts, slots)
        return hosts[self._answers_version[self._config[slots]]]

    def record_version_probes(self, hosts, t, prober_ip):
        """Record the version probe each of these hosts received.

        ``record_client`` flushes at the probe's own time, so a restart
        boundary passed here clears the table, but the flush base the next
        monlist sync rebuilds from does not move.  The probes themselves
        wait, in order, for the next monlist sync to fold them in first:
        no table is rendered before then.
        """
        if t < self._now:
            raise ValueError("sync cannot move backwards")
        self._now = t
        slots = self._slot[hosts]
        slots = slots[self._renders[self._config[slots]]]
        if not len(slots):
            return
        self._clear(self._advance_flush(slots, t))
        probes = _ops(
            len(slots),
            sync=-1,
            slot=slots,
            addr=prober_ip,
            port=_PROBE_PORT_BASE,
            mode=MODE_CONTROL,
            version=2,
            count=self._loop[self._config[slots]],
            first=t,
            last=t,
        )
        self._pending = probes if self._pending is None else _concat_ops([self._pending, probes])

    def _clear(self, slots):
        """Flush these slots' tables: their rows and pending probes."""
        if not len(slots):
            return
        cleared = np.zeros(len(self._slot_ip), dtype=bool)
        cleared[slots] = True
        kept = ~cleared.take(self._ints[SLOT])
        self._ints, self._floats = self._ints.compress(kept, axis=1), self._floats.compress(kept, axis=1)
        if self._pending is not None:
            kept = ~cleared.take(self._pending[0][SLOT])
            self._pending = tuple(part.compress(kept, axis=1) for part in self._pending)

    def render_version(self, hosts, t):
        """The mode-6 replies of these hosts' servers, one capture each.

        Each server's reply is rendered once; a sweep gathers its
        captures from those.
        """
        slots = self._slot[hosts]
        needed = np.zeros(len(self._slot_ip), dtype=bool)
        needed[slots] = True
        lens = []
        for slot in (needed & (self._reply_count < 0)).nonzero()[0].tolist():
            host = self._hosts[self._config[slot]]
            packets = version_reply_packets(host.attrs, host.ip, _REFID, extra_vars_for(host.ip))
            self._reply_bytes[slot] = b"".join(packets)
            self._reply_first[slot] = len(self._reply_lens) + len(lens)
            self._reply_count[slot] = len(packets)
            lens.extend(map(len, packets))
        if lens:
            self._reply_lens = np.concatenate([self._reply_lens, lens])
        count = self._reply_count[slots]
        return PackedCaptures.build(
            t,
            self._slot_ip[slots],
            self._loop[self._config[slots]],
            count,
            self._reply_lens[index_ranges(self._reply_first[slots], count)],
            np.frombuffer(b"".join(map(self._reply_bytes.__getitem__, slots.tolist())), dtype=np.uint8),
        )

    # -- tables --------------------------------------------------------------------------

    def _fold(self, op_ints, op_floats):
        """Apply the operations ``(op_ints, op_floats)`` to the tables; a
        server's operations must be in the order they apply.

        Each (slot, addr) group folds its accumulating operations onto its
        last absolute one (an existing row counts as absolute), or onto
        nothing; a row keeps the position it was first inserted at.  Only
        the rows of the slots ``ops`` touches take part.
        """
        ints, floats = self._ints, self._floats
        touched = np.zeros(len(self._slot_ip), dtype=bool)
        touched[op_ints[SLOT]] = True
        row_touched = touched.take(ints[SLOT])
        old = row_touched.nonzero()[0]
        # A new row's position is the rank of its first operation.
        n_old, n_ops = len(old), op_ints.shape[1]
        merged = np.concatenate((ints.take(old, axis=1), op_ints), axis=1)
        merged[POS, n_old:] = np.arange(self._next_pos, self._next_pos + n_ops)
        self._next_pos += n_ops
        merged_floats = np.concatenate((floats.take(old, axis=1), op_floats[:2]), axis=1)
        # By (slot, addr): existing rows first, then the operations in order.
        key = (merged[SLOT] << 32) | merged[ADDR]
        order = key.argsort(kind="stable")
        key = key.take(order)
        n = len(order)
        start = np.concatenate(([True], key[1:] != key[:-1])).nonzero()[0]
        end = np.concatenate((start[1:], [n]))
        index = np.arange(n)
        last_absolute = np.maximum.accumulate(np.where(merged[ABSOLUTE].take(order), index, -1))[end - 1]
        keep = index >= np.maximum(last_absolute, start).repeat(end - start)
        # Slot, addr and position from a group's first entry; port, mode
        # and version from its last; the rest folded from its last absolute.
        folded = merged.take(order.take(start), axis=1)
        folded[PORT : VERSION + 1] = merged[PORT : VERSION + 1].take(order.take(end - 1), axis=1)
        folded[ABSOLUTE] = 1
        folded_floats = np.empty((2, len(start)), dtype=np.float64)
        if n:
            folded[COUNT] = np.add.reduceat(merged[COUNT].take(order) * keep, start)
            first, last = merged_floats.take(order, axis=1)
            folded_floats[FIRST] = np.minimum.reduceat(np.where(keep, first, np.inf), start)
            folded_floats[LAST] = np.maximum.reduceat(np.where(keep, last, -np.inf), start)
        pruned = (np.bincount(folded[SLOT], minlength=len(self._slot_ip)) > 2 * self._capacity).nonzero()[0]
        if len(pruned):
            folded, folded_floats = self._replay(
                pruned,
                (ints.take(old, axis=1), floats.take(old, axis=1)),
                (op_ints, op_floats),
                folded,
                folded_floats,
            )
        # Untouched tables as they were, then the folded ones in MRU order:
        # each table's rows stay contiguous.
        mru = np.lexsort((folded[POS], -folded_floats[LAST], folded[SLOT]))
        kept = (~row_touched).nonzero()[0]
        self._ints = np.concatenate((ints.take(kept, axis=1), folded.take(mru, axis=1)), axis=1)
        self._floats = np.concatenate((floats.take(kept, axis=1), folded_floats.take(mru, axis=1)), axis=1)

    def _replay(self, slots, old, ops, folded, folded_floats):
        """Re-run the tables of ``slots``, which grew past twice their
        capacity and so pruned on the way, one row at a time; ``old`` are
        their rows before ``ops``."""
        drop = np.isin(folded[SLOT], slots)
        ints, floats = [folded[:, ~drop]], [folded_floats[:, ~drop]]
        for slot in slots.tolist():
            table = MonlistTable(self._capacity)
            mine = np.flatnonzero(old[0][SLOT] == slot)
            mine = mine[np.argsort(old[0][POS, mine], kind="stable")]
            for addr, port, mode, version, count, first, last in zip(
                *old[0][ADDR:POS, mine].tolist(), *old[1][:, mine].tolist()
            ):
                table.put_record(addr, port, mode, version, count, first, last)
            mine = ops[0][SLOT] == slot
            for addr, port, mode, version, count, absolute, first, last, span in zip(
                *ops[0][[ADDR, PORT, MODE, VERSION, COUNT, ABSOLUTE]][:, mine].tolist(),
                *ops[1][:, mine].tolist(),
            ):
                if absolute:
                    table.put_record(addr, port, mode, version, count, first, last)
                else:
                    table.record(addr, port, mode, version, last, packets=count, span=span)
            records = table.records()
            part = np.zeros((len(ROW_INTS), len(records)), dtype=np.int64)
            part[SLOT] = slot
            part[ADDR:POS] = np.array(
                [(r.addr, r.port, r.mode, r.version, r.count) for r in records], dtype=np.int64
            ).reshape(-1, POS - ADDR).T
            part[POS] = self._next_pos + np.arange(len(records))
            part[ABSOLUTE] = 1
            self._next_pos += len(records)
            ints.append(part)
            floats.append(np.array([(r.first_seen, r.last_seen) for r in records], dtype=np.float64).reshape(-1, 2).T)
        return np.concatenate(ints, axis=1), np.concatenate(floats, axis=1)

    def render_monlist(self, hosts, t):
        """The monlist replies of these hosts' servers at ``t``, one
        capture each, as a :class:`PackedCaptures`: each table's first
        ``capacity`` rows in MRU order."""
        ints = self._ints
        slots = self._slot[hosts]
        column = ints[SLOT]
        heads = np.concatenate(([len(column) > 0], column[1:] != column[:-1])).nonzero()[0]
        first = np.zeros(len(self._slot_ip), dtype=np.int64)
        count = np.zeros(len(self._slot_ip), dtype=np.int64)
        first[column.take(heads)] = heads
        count[column.take(heads)] = np.diff(heads, append=len(column))
        lo = first.take(slots)
        sizes = np.minimum(count.take(slots), self._capacity)
        chosen = index_ranges(lo, sizes)
        rows = dict(zip(ROW_INTS, ints.take(chosen, axis=1)))
        rows["first"], rows["last"] = self._floats.take(chosen, axis=1)
        pkt_counts, pkt_lens, payload = encode_reply_tables(t, sizes, rows)
        return PackedCaptures.build(
            t, self._slot_ip[slots], self._loop[self._config[slots]], pkt_counts, pkt_lens, payload
        )
