"""Lazy per-amplifier state: materialized ntpd servers with synced tables.

Maintaining 1.4M monlist tables packet-by-packet would be wasteful: the
world only *observes* a table when something queries it (the weekly ONP
probe, mostly).  The :class:`AmplifierStateManager` therefore materializes
an :class:`~repro.ntp.server.NtpServer` per host on first touch and, before
each observation, synchronizes its table from three sources:

* the host's static **background clients** (absolute cumulative state
  from :meth:`~repro.population.amplifiers.BackgroundClients.state_at`:
  one count/first/last row per client, all a monitor table keeps);
* **scanner hits**: research sweeps touch every host on every sweep;
  malicious sweeps hit a host with probability equal to their coverage;
* **attack legs** (:class:`~repro.population.columns.PulseColumns`)
  routed through this amplifier since the last sync.

Daemon restarts (table flushes) are honored: state is rebuilt only from
events after the latest flush boundary before the observation time.
"""

import bisect

import numpy as np

from repro.ntp.constants import MODE_CLIENT
from repro.ntp.server import NtpServer, ServerConfig

__all__ = ["AmplifierStateManager"]


def _config_for(host):
    """Build the ntpd configuration matching a pool host."""
    attrs = host.attrs
    return ServerConfig(
        stratum=attrs.stratum,
        system=attrs.system,
        processor=attrs.processor,
        daemon_version=attrs.daemon_version,
        compile_year=attrs.compile_year,
        monlist_enabled=host.monlist_amplifier,
        implementations=host.implementations,
        responds_version=host.responds_version,
        loop_factor=host.loop_factor,
        restart_interval=host.restart_interval,
        # Most builds report a modest variable set; a minority are chatty.
        extra_vars=(host.ip % 23) if host.ip % 5 == 0 else (host.ip % 9),
    )


class AmplifierStateManager:
    """Owns the materialized servers and their event feeds."""

    def __init__(self, rng, research_scanners, malicious_coverage_per_day=None):
        self._rng = rng.child("amp-state")
        self._servers = {}
        self._last_sync = {}
        self._flush_base = {}
        #: Every attack leg as one PulseColumns batch (None until registered).
        self._pulse_columns = None
        # Per-host malicious-hit streams, derived lazily from the manager
        # RNG by host ip.  Keying draws by host (not by global sync order)
        # is what lets block-sharded sweeps consume the same draws for the
        # same host regardless of which worker syncs it.
        self._mal_rngs = {}
        self._research = research_scanners
        # Each research scanner's sweep schedule is fixed; computing it once
        # here (sorted) turns the per-host window query in `_sync_research`
        # into two bisects instead of an O(sweeps) rebuild per sync.
        self._research_times = [sorted(s.sweep_times()) for s in research_scanners]
        #: {day index: (total malicious coverage, [scanner ips sample])}
        self._malicious_by_day = malicious_coverage_per_day or {}
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
        # Per-host streams re-derive from (_rng, host ip) on demand —
        # identical in any process, so never worth pickling.
        state["_mal_rngs"] = {}
        return state

    def block_view(self):
        """A worker-process view sharing the registries but owning its own
        materialization state.

        Shared (read-only in workers): the RNG root, the pulse columns,
        research schedules, malicious-day summaries.  Owned: the server
        map, sync clocks, and per-process caches — each build block syncs
        a disjoint slice of hosts, so views never contend and the draws a
        host consumes (keyed per host) match the monolithic build's.
        """
        view = self.__class__.__new__(self.__class__)
        view.__dict__.update(self.__dict__)
        view._servers = {}
        view._last_sync = {}
        view._flush_base = {}
        view._malicious_index = None
        view._malicious_window_cache = {}
        view._mal_rngs = {}
        return view

    # -- wiring -------------------------------------------------------------------

    def register_pulse_columns(self, columns):
        """Give the manager every attack leg as one columnar batch.

        ``columns`` is a :class:`~repro.population.columns.PulseColumns`
        (sorted by amplifier, then end): a host's window query in
        ``_sync_pulses`` is two ``searchsorted`` calls over its contiguous
        slice, and the ~35M legs of a full-scale campaign never exist as
        objects.  A later call replaces the batch.  Legs must be
        registered before any sync whose window should contain them: a
        leg whose ``end`` precedes the host's last sync is never replayed.
        """
        self._pulse_columns = columns

    def register_malicious_activity(self, sweeps):
        """Summarize malicious sweeps into per-day (coverage, scanner IPs)."""
        from repro.util.simtime import DAY

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

    # -- server access ----------------------------------------------------------------

    def server_for(self, host):
        """The materialized server for a host (created on first touch)."""
        server = self._servers.get(host.ip)
        if server is None:
            server = NtpServer(ip=host.ip, config=_config_for(host))
            self._servers[host.ip] = server
            self._last_sync[host.ip] = host.birth
        return server

    def is_materialized(self, ip):
        return ip in self._servers

    @property
    def n_materialized(self):
        return len(self._servers)

    # -- synchronization ------------------------------------------------------------

    def sync(self, host, now):
        """Bring the host's table up to date as of ``now``; returns server."""
        server = self.server_for(host)
        last = self._last_sync[host.ip]
        if now < last:
            raise ValueError("sync cannot move backwards")
        if server.maybe_flush(now):
            # Everything before the last flush boundary is gone for good.
            self._flush_base[host.ip] = server.next_flush - server.config.restart_interval
        base = max(self._flush_base.get(host.ip, host.birth), host.birth)
        window_start = max(last, base)
        self._sync_background(host, server, now, base)
        self._sync_research(host, server, now, base)
        self._sync_malicious(host, server, now, window_start)
        self._sync_pulses(host, server, now, window_start)
        self._last_sync[host.ip] = now
        return server

    def _sync_background(self, host, server, now, base):
        if host.clients is None or len(host.clients) == 0:
            return
        since = base if base > host.birth else None
        # Absolute overwrite: recomputes cumulative counts since the last
        # flush, so syncing twice is idempotent for background clients.
        rows = host.clients.state_at(now, since=since)
        if rows:
            server.table.put_client_records(rows, MODE_CLIENT, 4)

    def _sync_research(self, host, server, now, base):
        for scanner, times in zip(self._research, self._research_times):
            # Absolute state: all sweeps since the flush base (idempotent).
            lo = bisect.bisect_right(times, base)
            hi = bisect.bisect_right(times, now)
            if lo >= hi:
                continue
            server.table.put_record(
                scanner.ip,
                50000 + (scanner.ip % 10000),
                scanner.mode,
                2,
                hi - lo,
                times[lo],
                times[hi - 1],
            )

    def _sync_malicious(self, host, server, now, window_start):
        from repro.util.simtime import DAY

        if not self._malicious_by_day:
            return
        day0 = int(window_start // DAY)
        day1 = int(now // DAY)
        window = self._malicious_window_cache.get((day0, day1))
        if window is None:
            days, coverages, flat, offsets = self._malicious_prefix()
            lo = bisect.bisect_left(days, day0)
            hi = bisect.bisect_right(days, day1)
            # Ascending-day sequential sum: the exact float the old
            # day-range loop accumulated (prefix-sum differences would
            # round differently and shift the poisson draw below).
            total_coverage = 0.0
            for i in range(lo, hi):
                total_coverage += coverages[i]
            window = (total_coverage, offsets[lo], offsets[hi])
            self._malicious_window_cache[(day0, day1)] = window
        total_coverage, pool_lo, pool_hi = window
        pool_len = pool_hi - pool_lo
        if pool_len == 0 or total_coverage <= 0:
            return
        flat = self._malicious_prefix()[2]
        # Per-host stream: derived once from (manager rng, host ip), so a
        # host consumes the same draws whether the sweep that syncs it runs
        # monolithically or inside any build-block worker.
        rng = self._mal_rngs.get(host.ip)
        if rng is None:
            rng = self._rng.child(f"host-{host.ip}")
            self._mal_rngs[host.ip] = rng
        # A scanner with coverage c hits this amplifier with probability c;
        # the window's expected hits is the summed coverage.  Capped: the
        # table only needs a plausible scanner background, not a census.
        hits = min(int(rng.poisson(total_coverage)), 6)
        for _ in range(hits):
            ip, mode = flat[pool_lo + int(rng.integers(0, pool_len))]
            t = window_start + float(rng.uniform(0, max(1.0, now - window_start)))
            server.record_client(ip, int(rng.integers(1024, 65535)), mode, 2, min(t, now))

    def _sync_pulses(self, host, server, now, window_start):
        """Fold every attack leg that ended in ``(window_start, now]``.

        Spoofed queries appear to ntpd as ordinary mode-6/7 queries from
        the victim, recorded at the leg's end instant.  With a loop
        pathology each is re-processed ``loop_factor`` times, which is
        why victim counts in mega-amplifier tables reach into the
        billions (Table 3b).  The recorded count is bounded by the
        amplifier's uplink (~30K response packets/second sustained): a
        loop can only resend as fast as the box can transmit.

        Legs still in flight at ``now`` are deliberately not recorded:
        applying them partially here and fully at the next sync would
        double-count.  Weekly probes land inside an attack rarely (median
        durations are seconds to minutes), so the undercount is small and
        conservative — the paper argues its own victim numbers are lower
        bounds for the same kind of reason.
        """
        columns = self._pulse_columns
        if columns is None:
            return
        lo, hi = columns.ip_range(host.ip)
        if lo >= hi:
            return
        ends = columns.end
        # This amplifier's slice is end-sorted.
        a = lo + int(np.searchsorted(ends[lo:hi], window_start, side="right"))
        b = lo + int(np.searchsorted(ends[lo:hi], now, side="right"))
        loop_factor = server.config.loop_factor
        record = server.record_client
        # Inline, not a method per leg: this loop runs inside the ONP
        # sweep for every leg of every synced amplifier.
        for j in range(a, b):
            duration = float(columns.duration[j])
            link_cap = int(30_000 * max(1.0, duration))
            packets = min(int(columns.query_count[j]) * loop_factor, link_cap)
            record(
                int(columns.victim_ip[j]),
                int(columns.victim_port[j]),
                int(columns.mode[j]),
                2,
                float(ends[j]),
                packets=packets,
                span=duration,
            )
