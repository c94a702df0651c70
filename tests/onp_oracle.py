"""The per-host ONP sweep: the test oracle of the columnar monitor-table store.

This is the sweep as it ran before the store: every active host's
:class:`~repro.ntp.server.NtpServer` is materialized on first touch, its
monitor table is caught up to the sweep time one host at a time
(:meth:`OracleStateManager.sync`), and each surviving reply is rendered by
``NtpServer.monlist_reply``.  The store must reproduce these bytes capture
for capture, quirks included; ``tests/test_onp_store.py`` compares the two
on generated blocks and ``tests/test_measurement_state.py`` runs its
semantic tests against both.
"""

import bisect
import math
from types import SimpleNamespace

import numpy as np

from repro.measurement.amplifier_state import ADDR, FIRST, LAST, POS, SLOT, MonitorTableStore, extra_vars_for
from repro.measurement.capture_store import PackedCapturesBuilder
from repro.ntp.constants import IMPL_XNTPD, MODE_CLIENT, MODE_CONTROL, MODE_PRIVATE
from repro.ntp.monlist import MonlistRecord, MonlistTable
from repro.ntp.server import NtpServer, ProbeReply, ServerConfig, version_reply_packets

__all__ = ["OracleStateManager", "StoreSync", "oracle_block_worker", "put_client_records", "state_at"]


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
        extra_vars=extra_vars_for(host.ip),
    )


#: Below this many clients the scalar ``state_at`` path beats NumPy.
_STATE_AT_SCALAR_MAX = 32


def state_at(clients, now, since=None):
    """(ip, port, count, first_seen, last_seen) rows for the clients of a
    :class:`~repro.population.amplifiers.BackgroundClients` with at least
    one poll in ``(since, now]`` (``since=None`` means "ever")."""
    if len(clients.ips) <= _STATE_AT_SCALAR_MAX:
        return state_at_scalar(clients, now, since)
    active = clients.first_polls <= now
    if not active.any():
        return []
    ips = clients.ips[active]
    ports = clients.ports[active]
    intervals = clients.intervals[active]
    firsts = clients.first_polls[active]
    ones = clients.one_shot[active]
    total = np.where(ones, 1, 1 + np.floor((now - firsts) / intervals)).astype(np.int64)
    lasts = firsts + (total - 1) * intervals
    if since is None:
        counts = total
        first_seen = firsts
    else:
        # Polls strictly after `since`.
        before = np.where(
            ones,
            (firsts <= since).astype(np.int64),
            np.clip(1 + np.floor((since - firsts) / intervals), 0, None).astype(np.int64),
        )
        before = np.minimum(before, total)
        counts = total - before
        first_seen = firsts + before * intervals
    keep = (counts >= 1) & (lasts > (since if since is not None else -np.inf))
    if not keep.any():
        return []
    return list(
        zip(
            ips[keep].tolist(),
            ports[keep].tolist(),
            counts[keep].tolist(),
            first_seen[keep].tolist(),
            lasts[keep].tolist(),
        )
    )


def state_at_scalar(clients, now, since):
    """Pure-Python :func:`state_at`: every arithmetic step mirrors the
    vectorized path on float64 scalars, so the rows are bit-identical."""
    out = []
    floor = math.floor
    rows = zip(
        clients.ips.tolist(),
        clients.ports.tolist(),
        clients.intervals.tolist(),
        clients.first_polls.tolist(),
        clients.one_shot.tolist(),
    )
    for ip, port, interval, first, one in rows:
        if first > now:
            continue
        total = 1 if one else 1 + int(floor((now - first) / interval))
        last = first + (total - 1) * interval
        if since is None:
            count = total
            first_seen = first
        else:
            if one:
                before = 1 if first <= since else 0
            else:
                before = max(0, 1 + int(floor((since - first) / interval)))
            before = min(before, total)
            count = total - before
            first_seen = first + before * interval
            if last <= since:
                continue
        if count >= 1:
            out.append((ip, port, count, first_seen, last))
    return out


def put_client_records(table, rows, mode, version):
    """Bulk ``put_record`` of background-client rows, prune cadence and
    in-place overwrite (which keeps a row's MRU tie position) included."""
    threshold = 2 * table.capacity
    for addr, port, count, first_seen, last_seen in rows:
        existing = table.get(addr)
        if existing is None:
            table._records[addr] = MonlistRecord(addr, port, mode, version, count, first_seen, last_seen)
            if len(table._records) > threshold:
                table._prune()
        else:
            existing.port = port
            existing.mode = mode
            existing.version = version
            existing.count = count
            existing.first_seen = first_seen
            existing.last_seen = last_seen


class OracleStateManager:
    """Materialized servers, synced one host at a time from the feeds of a
    :class:`~repro.measurement.amplifier_state.AmplifierStateManager`."""

    def __init__(self, feeds):
        self._feeds = feeds
        self._capacity = feeds.table_capacity
        self._servers = {}
        self._last_sync = {}
        self._flush_base = {}
        self._mal_rngs = {}
        self._research_times = [sorted(s.sweep_times()) for s in feeds._research]

    def server_for(self, host):
        server = self._servers.get(host.ip)
        if server is None:
            server = NtpServer(ip=host.ip, config=_config_for(host), capacity=self._capacity)
            self._servers[host.ip] = server
            self._last_sync[host.ip] = host.birth
        return server

    def is_materialized(self, ip):
        return ip in self._servers

    @property
    def n_materialized(self):
        return len(self._servers)

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
        rows = state_at(host.clients, now, since=since)
        if rows:
            put_client_records(server.table, rows, MODE_CLIENT, 4)

    def _sync_research(self, host, server, now, base):
        for scanner, times in zip(self._feeds._research, self._research_times):
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

        feeds = self._feeds
        if not feeds._malicious_by_day:
            return
        total_coverage, pool_lo, pool_hi = feeds._malicious_window(
            int(window_start // DAY), int(now // DAY)
        )
        pool_len = pool_hi - pool_lo
        if pool_len == 0 or total_coverage <= 0:
            return
        flat = feeds._malicious_prefix()[2]
        rng = self._mal_rngs.get(host.ip)
        if rng is None:
            rng = feeds._rng.child(f"host-{host.ip}")
            self._mal_rngs[host.ip] = rng
        hits = min(int(rng.poisson(total_coverage)), 6)
        for _ in range(hits):
            ip, mode = flat[pool_lo + int(rng.integers(0, pool_len))]
            t = window_start + float(rng.uniform(0, max(1.0, now - window_start)))
            server.record_client(ip, int(rng.integers(1024, 65535)), mode, 2, min(t, now))

    def _sync_pulses(self, host, server, now, window_start):
        columns = self._feeds._pulse_columns
        if columns is None:
            return
        lo = int(np.searchsorted(columns.amp_ip, host.ip, side="left"))
        hi = int(np.searchsorted(columns.amp_ip, host.ip, side="right"))
        if lo >= hi:
            return
        ends = columns.end
        a = lo + int(np.searchsorted(ends[lo:hi], window_start, side="right"))
        b = lo + int(np.searchsorted(ends[lo:hi], now, side="right"))
        loop_factor = server.config.loop_factor
        for j in range(a, b):
            duration = float(columns.duration[j])
            link_cap = int(30_000 * max(1.0, duration))
            packets = min(int(columns.query_count[j]) * loop_factor, link_cap)
            server.record_client(
                int(columns.victim_ip[j]),
                int(columns.victim_port[j]),
                int(columns.mode[j]),
                2,
                float(ends[j]),
                packets=packets,
                span=duration,
            )


#: The address ``StoreSync`` probes from: no host, client or scanner has
#: it, so its row is the probe's alone and is left out of the view.
_NO_PROBER = 0


class StoreSync:
    """The oracle's per-host interface over a
    :class:`~repro.measurement.amplifier_state.MonitorTableStore`: each
    ``sync(host, t)`` is a one-host sync of a store over ``hosts``, and
    returns a server-like view whose ``table`` is a
    :class:`~repro.ntp.monlist.MonlistTable` holding the store's rows.
    The store records the sweep's probe with every sync and the oracle's
    ``sync`` records none, so the view drops the probe's row."""

    def __init__(self, feeds, hosts):
        self._hosts = list(hosts)
        self._store = MonitorTableStore(feeds, self._hosts)
        self._views = {}

    def _index(self, host):
        return np.array([next(i for i, h in enumerate(self._hosts) if h is host)])

    def server_for(self, host):
        index = self._index(host)
        self._store.version_repliers(index)
        return self._views.setdefault(host.ip, SimpleNamespace(ip=host.ip))

    def is_materialized(self, ip):
        store = self._store
        return bool(store._config[np.searchsorted(store._slot_ip, ip)] >= 0)

    @property
    def n_materialized(self):
        return int((self._store._config >= 0).sum())

    def sync(self, host, now):
        store = self._store
        store.sync(self._index(host), now, _NO_PROBER)
        slot = int(np.searchsorted(store._slot_ip, host.ip))
        rows = np.flatnonzero((store._ints[SLOT] == slot) & (store._ints[ADDR] != _NO_PROBER))
        rows = rows[np.argsort(store._ints[POS, rows])]
        table = MonlistTable(store._capacity)
        for i in rows.tolist():
            addr, port, mode, version, count = store._ints[ADDR:POS, i].tolist()
            table.put_record(addr, port, mode, version, count, *store._floats[[FIRST, LAST], i].tolist())
        return SimpleNamespace(ip=host.ip, table=table)


def version_reply(server):
    """``server``'s READVAR reply as ``NtpServer.respond_version`` gives
    it, without logging the probe: a version probe that loss drops never
    reaches the table."""
    config = server.config
    if not config.responds_version:
        return None
    packets = version_reply_packets(config, server.ip, config.refid, config.extra_vars)
    return ProbeReply(packets, n_repeats=config.loop_factor)


def oracle_sweep_monlist(prober, state, active, t, rng, mangler):
    """One block's slice of a monlist sweep, one host at a time."""
    builder = PackedCapturesBuilder(t)
    src_ip = prober._ip
    src_port = 50557 + (int(t) % 1000)
    repliers = []
    for host in active:
        server = state.sync(host, t)
        config = server.config
        server.table.record(src_ip, src_port, MODE_PRIVATE, 2, t, packets=config.loop_factor)
        if config.monlist_enabled and IMPL_XNTPD in config.implementations:
            repliers.append((host, server))
    if not repliers:
        return builder.finish()
    draws = rng.random(len(repliers))
    for (host, server), u in zip(repliers, draws):
        if u < prober._loss:
            continue
        reply = server.monlist_reply(t, IMPL_XNTPD)
        packets = reply.packets
        if mangler is not None:
            packets = mangler.mangle(packets)
        builder.add(host.ip, packets, reply.n_repeats)
    return builder.finish()


def oracle_sweep_version(prober, state, active, t, rng):
    """One block's slice of a mode-6 version sweep, one host at a time."""
    builder = PackedCapturesBuilder(t)
    repliers = []
    for host in active:
        server = state.server_for(host)
        reply = version_reply(server)
        if reply is not None:
            repliers.append((host, server, reply))
    if not repliers:
        return builder.finish()
    draws = rng.random(len(repliers))
    for (host, server, reply), u in zip(repliers, draws):
        if u < prober._loss:
            continue
        if server.config.monlist_enabled:
            server.record_client(prober._ip, 50557, MODE_CONTROL, 2, t, packets=server.config.loop_factor)
        builder.add(host.ip, reply.packets, reply.n_repeats)
    return builder.finish()


def oracle_block_worker(ctx, block):
    """``repro.measurement.onp._onp_block_worker`` over the per-host sync."""
    prober, host_pool, rng, schedule, plan = ctx
    state = OracleStateManager(prober._state)
    faults = prober._faults
    mangler = faults.block_mangler(block) if faults is not None else None
    parts = []
    for (t, mode), (outage, limit, _coverage) in zip(schedule, plan):
        if outage:
            parts.append(None)
            continue
        if mode == 7:
            window = host_pool.monlist_block_bounds(block)
            active = host_pool.monlist_alive(t, limit=limit, window=window)
            srng = rng.child(f"monlist-{int(t)}").child(f"b{block}")
            parts.append(oracle_sweep_monlist(prober, state, active, t, srng, mangler))
        else:
            window = host_pool.version_block_bounds(block)
            active = host_pool.version_alive(t, limit=limit, window=window)
            srng = rng.child(f"version-{int(t)}").child(f"b{block}")
            parts.append(oracle_sweep_version(prober, state, active, t, srng))
    counts = dict(mangler.log.counts) if mangler is not None else None
    return parts, counts

