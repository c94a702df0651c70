"""The global NTP host population.

One generator builds every pool the paper measures, at a configurable scale:

* **all NTP servers** (≈6M at full scale) — answer mode 3; most also answer
  the mode-6 ``version`` query (the ≈4.9M-peak pool of §3.3/Fig 10);
* **monlist amplifiers** (≈1.405M initially) — answer mode-7 monlist for one
  or both implementation codes (§3.1);
* **mega amplifiers** (≈10K returning >100KB; a handful returning
  gigabytes, all in Japanese networks, §3.4) — modeled with a loop factor
  that re-processes each query;
* churn: end-host amplifiers sit in DHCP pools and change address
  (13–35% of the pool is residential, §3.1), and a trickle of brand-new
  amplifiers appears every week, which is why 15 weekly scans saw 2.17M
  unique IPs against a 1.4M starting pool.

Hosts are lightweight records; their monlist tables are materialized by the
scenario layer only for hosts that ever answer a probe or relay an attack.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import count, repeat
from operator import attrgetter, is_

import numpy as np

from repro.net.asn import NetworkKind
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD
from repro.population.columns import HOST_BLOCKS, MonlistColumns, balanced_split
from repro.population.osmodel import SystemAttributes, sample_system_attributes
from repro.util.simtime import DAY, HOUR, WEEK, date_to_sim

__all__ = [
    "NtpHost",
    "BackgroundClients",
    "PoolParams",
    "HostPool",
    "build_host_pool",
    "FieldColumns",
    "HostTable",
    "client_columns",
    "estimate_monlist_reply_bytes",
    "HOST_BLOCKS",
]


def estimate_monlist_reply_bytes(host, include_loop=True):
    """Approximate on-wire bytes one monlist query elicits from ``host``.

    Uses the host's steady-state table size (attackers size their query
    rates the same way — by observing the amplifier).  Exact per-probe reply
    sizes come from the materialized server; this estimate is for bulk
    traffic accounting, where the table's attack-time fluctuations wash out.

    ``include_loop=False`` gives the *table-only* size — what an attacker's
    list-building tooling records (mega amplifiers were "DDoS jackpot"
    lucky finds, §3.4, not something booter scanners ranked for).
    """
    entries = min(600, max(1, host.base_clients))
    packets = math.ceil(entries / 6)
    payload = packets * 8 + entries * 72
    once = payload + packets * 66
    if not include_loop:
        return once
    # Loop-pathology amplifiers multiply the reply, but what a victim
    # actually receives per query is bounded by the amplifier's uplink;
    # 15 MB per query matches §3.4's ">10,000 packets (at least 5 MB)"
    # giga-amplifier observations.
    return min(once * host.loop_factor, 15_000_000)

#: Mix of implementation codes among monlist amplifiers.  The ONP scans probe
#: only IMPL_XNTPD, so v1-only servers are invisible to them (the paper's
#: main acknowledged source of under-count; Kührer saw ~9% more).
_IMPL_MIX = [
    (frozenset({IMPL_XNTPD}), 0.60),
    (frozenset({IMPL_XNTPD, IMPL_XNTPD_OLD}), 0.30),
    (frozenset({IMPL_XNTPD_OLD}), 0.10),
]

#: Fraction of monlist amplifiers whose tables are primed/full (600 entries);
#: Fig 4a shows ~99% of amplifiers return less than a full table.
_FULL_TABLE_FRACTION = 0.012

#: Initial end-host share of the amplifier pool (Table 1, 2014-01-10).
_END_HOST_FRACTION = 0.185

#: Mean DHCP lease length for end-host amplifiers.
_LEASE_MEAN = 2.5 * WEEK

#: Weekly arrival rate of brand-new amplifiers, as a fraction of the
#: initial pool (sustains discovery of new IPs on every scan).
_ARRIVAL_WEEKLY_FRACTION = 0.006

#: AS kinds that host infrastructure (non-end-host) amplifiers, weighted.
_INFRA_KIND_WEIGHTS = [
    (NetworkKind.HOSTING, 0.30),
    (NetworkKind.TELECOM, 0.30),
    (NetworkKind.ENTERPRISE, 0.25),
    (NetworkKind.EDUCATION, 0.15),
]


@dataclass
class BackgroundClients:
    """Numpy-backed static description of a host's legitimate clients.

    ``one_shot`` clients polled exactly once (at ``first_poll``); periodic
    clients poll every ``interval`` seconds from ``first_poll`` onward.
    The ONP sweep reads every host's clients at once through
    :func:`client_columns`.
    """

    ips: np.ndarray
    ports: np.ndarray
    intervals: np.ndarray
    first_polls: np.ndarray
    one_shot: np.ndarray

    def __len__(self):
        return len(self.ips)


@dataclass(slots=True)
class NtpHost:
    """One NTP server in the world model.

    ``slots=True`` matters at ``scale=1.0``: ~8.7M host records carry no
    per-instance ``__dict__``, cutting resident memory by roughly half.
    """

    ip: int
    asn: int
    continent: str
    country: str
    is_end_host: bool
    attrs: SystemAttributes
    responds_version: bool
    monlist_amplifier: bool
    implementations: frozenset
    base_clients: int
    primed_full: bool
    loop_factor: int = 1
    is_mega: bool = False
    also_dns_resolver: bool = False
    restart_interval: float = None
    birth: float = 0.0
    death: float = None  # DHCP lease end (the host moves to a new IP)
    remediation_time: float = None  # monlist disabled from this time on
    version_off_time: float = None  # version responses disabled from here
    cluster_id: int = -1
    clients: BackgroundClients = field(default=None, repr=False)

    def exists_at(self, t):
        """Is this IP bound to the host at time ``t``?"""
        if t < self.birth:
            return False
        return self.death is None or t < self.death

    def monlist_active(self, t):
        """Does this host answer monlist (for its implementations) at ``t``?"""
        if not self.monlist_amplifier or not self.exists_at(t):
            return False
        return self.remediation_time is None or t < self.remediation_time

    def answers_implementation(self, implementation):
        return implementation in self.implementations


# -- host tables -----------------------------------------------------------------------
#
# Pickle rebuilds objects one at a time, and a world holds ~10^5 hosts
# plus five tiny client arrays each.  A finished world keeps its hosts
# as a HostTable instead: a handful of read-only columns that cross
# every process and file boundary (build transport, world cache,
# checkpoints) as they are.  Only a checkpoint resume, the build's own
# host blocks and tests turn rows back into NtpHost objects.

#: Column dtype of a dataclass field annotated with this type.
_COLUMN_DTYPES = {bool: np.bool_, int: np.int64, float: np.float64}


def read_only(array):
    """``array``, no longer writeable (a protocol-5 pickle keeps the flag)."""
    array.flags.writeable = False
    return array


class FieldColumns:
    """Fields of a list of dataclass objects as read-only columns.

    A field annotated ``bool``, ``int`` or ``float`` is an array of that
    type; when its default is None, ``missing[name]`` masks its None
    rows.  Any other field is an ``int32`` code array into
    ``values[name]``, the field's distinct values in first-seen order; a
    field annotated with a dataclass keeps each value as the tuple of its
    fields, so the table holds no such object.
    """

    def __init__(self, objects, columns):
        self.n_rows = len(objects)
        self.missing = {}
        self.values = {}
        self.record_types = {}
        for f in columns:
            getter = attrgetter(f.name)
            if is_dataclass(f.type):
                getter = attrgetter(*(f"{f.name}.{g.name}" for g in fields(f.type)))
                self.record_types[f.name] = f.type
            values = list(map(getter, objects))
            dtype = _COLUMN_DTYPES.get(f.type)
            if dtype is None:
                distinct = dict(zip(dict.fromkeys(values), count()))
                column = np.fromiter(map(distinct.__getitem__, values), np.int32, len(values))
                self.values[f.name] = tuple(distinct)
            elif f.default is None:
                self.missing[f.name] = read_only(
                    np.fromiter(map(is_, values, repeat(None)), bool, len(values))
                )
                column = np.array([0 if v is None else v for v in values], dtype)
            else:
                column = np.array(values, dtype)
            setattr(self, f.name, read_only(column))

    def __len__(self):
        return self.n_rows

    def decoded(self, name):
        """Column ``name`` as the Python values it was built from; rows
        with equal dataclass values get one object."""
        column = getattr(self, name).tolist()
        if name in self.values:
            distinct = self.values[name]
            if name in self.record_types:
                distinct = [self.record_types[name](*value) for value in distinct]
            return list(map(distinct.__getitem__, column))
        if name not in self.missing:
            return column
        return [None if gap else v for v, gap in zip(column, self.missing[name].tolist())]


#: The per-client arrays of :class:`BackgroundClients`, in field order.
_CLIENT_ARRAYS = tuple(f.name for f in fields(BackgroundClients))


def client_columns(hosts):
    """Every host's background clients as one :class:`BackgroundClients`
    plus offsets: host ``i``'s clients are rows ``offsets[i]`` to
    ``offsets[i + 1]`` (none for a host whose ``clients`` is None)."""
    clients = [host.clients for host in hosts]
    present = [c for c in clients if c is not None]
    offsets = np.zeros(len(hosts) + 1, dtype=np.int64)
    np.cumsum([0 if c is None else len(c.ips) for c in clients], out=offsets[1:])
    arrays = {}
    for name in _CLIENT_ARRAYS:
        parts = [getattr(c, name) for c in present]
        # Concatenating would silently convert arrays of another dtype.
        if len({part.dtype for part in parts}) > 1:
            raise TypeError(f"client {name} arrays differ in dtype")
        arrays[name] = np.concatenate(parts) if parts else np.empty(0)
    return BackgroundClients(**arrays), offsets


class HostTable(FieldColumns):
    """Hosts as read-only columns: row ``i`` is host ``i`` of the list.

    Every :class:`NtpHost` field is an attribute (see
    :class:`FieldColumns`): ``restart_interval``, ``death``,
    ``remediation_time`` and ``version_off_time`` have None masks, and
    ``continent``, ``country``, ``attrs`` and ``implementations`` are
    codes, an ``attrs`` value being a tuple, so no per-host object
    survives.  ``clients`` maps each :class:`BackgroundClients` array
    name to the array concatenated over every host: host ``i``'s clients
    are rows ``client_offsets[i]`` to ``client_offsets[i + 1]``, and
    ``missing["clients"]`` marks hosts whose ``clients`` is None.
    ``params`` and ``block_lengths`` are the pool's.
    """

    def __init__(self, hosts, params=None, block_lengths=None):
        super().__init__(hosts, [f for f in fields(NtpHost) if f.name != "clients"])
        self.params = params
        self.block_lengths = block_lengths
        clients, offsets = client_columns(hosts)
        self.clients = {name: read_only(getattr(clients, name)) for name in _CLIENT_ARRAYS}
        self.client_offsets = read_only(offsets)
        self.missing["clients"] = read_only(
            np.fromiter((h.clients is None for h in hosts), bool, len(hosts))
        )

    def decoded(self, name):
        """Column ``name`` as the hosts held it; client arrays are views
        into the concatenated ones."""
        if name == "clients":
            arrays = [self.clients[array] for array in _CLIENT_ARRAYS]
            bounds = self.client_offsets.tolist()
            return [
                None if gap else BackgroundClients(*[array[lo:hi] for array in arrays])
                for gap, lo, hi in zip(self.missing["clients"].tolist(), bounds, bounds[1:])
            ]
        return super().decoded(name)

    def unpack(self):
        """The :class:`NtpHost` list, in row order."""
        return [NtpHost(*row) for row in zip(*(self.decoded(f.name) for f in fields(NtpHost)))]


@dataclass(frozen=True)
class PoolParams:
    """Scale and calibration knobs for the host population.

    Full-scale counts mirror the paper; ``scale`` multiplies all of the
    *populations* (never protocol constants).  The handful of named giga
    amplifiers (§3.4's nine Japanese IPs) are absolute, not scaled.
    """

    scale: float = 0.01
    all_ntp_full: int = 6_000_000
    monlist_initial_full: int = 1_405_000
    version_responder_fraction: float = 0.85
    #: Monlist amplifiers respond to mode-6 less often than the general
    #: population (keeps Table 2's cisco-heavy "All NTP" column dominant
    #: even with DHCP-churn inflation of amplifier IPs).
    amplifier_version_fraction: float = 0.55
    mega_full: int = 10_000
    giga_count: int = 9
    dns_overlap_fraction: float = 0.092
    table_alpha: float = 0.9
    full_table_fraction: float = _FULL_TABLE_FRACTION
    end_host_fraction: float = _END_HOST_FRACTION
    lease_mean: float = _LEASE_MEAN
    arrival_weekly_fraction: float = _ARRIVAL_WEEKLY_FRACTION
    window_end: float = date_to_sim(2014, 6, 14)

    def __post_init__(self):
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")

    @property
    def n_all_ntp(self):
        return max(50, int(self.all_ntp_full * self.scale))

    @property
    def n_monlist(self):
        return max(20, int(self.monlist_initial_full * self.scale))

    @property
    def n_mega(self):
        return max(3, int(self.mega_full * self.scale))


class _LivenessIndex:
    """Vectorized [birth, end) interval index over a host list.

    Every liveness rule (``NtpHost.monlist_active``, ``exists_at``, and a
    version responder until its ``version_off_time``) reduces to
    ``birth <= t < end`` for a per-host effective end time, so one pair of NumPy arrays answers any "alive at
    t" query with two vectorized comparisons instead of a Python-level
    method call per host.  Results preserve the source list's order, so
    callers that index into the returned list with RNG draws see exactly
    the sequence the naive scan produced.

    The index is built lazily and rebuilt when the source list grows (the
    scenario layer plants local amplifiers after pool construction).
    Mutating liveness attributes of already-indexed hosts requires an
    explicit :meth:`invalidate`.
    """

    def __init__(self, hosts, end_times_of):
        self._hosts = hosts
        self._end_times_of = end_times_of
        self._births = None
        self._ends = None
        self._indexed = -1

    def invalidate(self):
        self._indexed = -1

    def _ensure(self):
        if self._indexed == len(self._hosts):
            return
        hosts = self._hosts
        self._births = np.array([h.birth for h in hosts], dtype=np.float64)
        self._ends = np.array([self._end_times_of(h) for h in hosts], dtype=np.float64)
        self._indexed = len(hosts)

    def alive(self, t, limit=None, window=None):
        """Hosts alive at ``t``, in source-list order (see :meth:`alive_index`)."""
        return list(map(self._hosts.__getitem__, self.alive_index(t, limit, window).tolist()))

    def alive_index(self, t, limit=None, window=None):
        """Source-list indices of the hosts alive at ``t``, ascending.

        ``limit`` restricts the query to the first ``limit`` hosts of the
        source list (a partial sweep probes only a prefix of the target
        list) — identical to slicing the list first, without the slice.

        ``window`` is an optional ``(lo, hi)`` half-open range of source
        indices (a build block's slice); ``limit`` still applies as a
        *global* prefix, so the union over all block windows equals the
        unwindowed query exactly.
        """
        self._ensure()
        births, ends = self._births, self._ends
        hosts = self._hosts
        lo, hi = 0, len(hosts)
        if window is not None:
            lo, hi = window
        if limit is not None and limit < hi:
            hi = limit
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        mask = (births[lo:hi] <= t) & (t < ends[lo:hi])
        return lo + np.flatnonzero(mask)

    def count_alive(self, t):
        self._ensure()
        return int(((self._births <= t) & (t < self._ends)).sum())


def _monlist_end(host):
    end = np.inf if host.death is None else host.death
    if host.remediation_time is not None:
        end = min(end, host.remediation_time)
    return end


def _version_end(host):
    end = np.inf if host.death is None else host.death
    if host.version_off_time is not None:
        end = min(end, host.version_off_time)
    return end


def _exists_end(host):
    return np.inf if host.death is None else host.death


class HostPool:
    """The generated population, with time-sliced views over each pool.

    The pool also carries the *block structure* of its own construction:
    hosts are generated in :data:`HOST_BLOCKS` fixed blocks plus a tail
    block (giga amplifiers and scenario-planted hosts), and several
    downstream phases (the ONP sweep shards, per-block fingerprints)
    need each block's contiguous slice of the host/monlist/version
    lists.  Because the filtered views preserve host order, each block's
    monlist (and version) hosts are contiguous in the filtered lists,
    so the bounds are plain ``(lo, hi)`` pairs.
    """

    def __init__(self, hosts, params, block_lengths=None):
        self.hosts = hosts
        self.params = params
        self._monlist_hosts = [h for h in hosts if h.monlist_amplifier]
        self._version_hosts = [h for h in hosts if h.responds_version]
        self._monlist_index = _LivenessIndex(self._monlist_hosts, _monlist_end)
        self._version_index = _LivenessIndex(self._version_hosts, _version_end)
        self._exists_index = _LivenessIndex(self.hosts, _exists_end)
        if block_lengths is None:
            block_lengths = [len(hosts)]
        if sum(block_lengths) != len(hosts):
            raise ValueError("block lengths do not cover the host list")
        self._block_lengths = list(block_lengths)
        self._compute_block_bounds()
        self._monlist_columns = None

    def _compute_block_bounds(self):
        """One pass over the host list computing each block's slice of
        the host, monlist, and version lists."""
        self._host_bounds = []
        self._mon_bounds = []
        self._ver_bounds = []
        mon = np.array([host.monlist_amplifier for host in self.hosts], dtype=bool)
        ver = np.array([host.responds_version for host in self.hosts], dtype=bool)
        #: Index into ``hosts`` of each monlist (version) host.
        self._mon_pos = np.flatnonzero(mon)
        self._ver_pos = np.flatnonzero(ver)
        pos = mi = vi = 0
        for length in self._block_lengths:
            h0, m0, v0 = pos, mi, vi
            pos += length
            mi += int(mon[h0:pos].sum())
            vi += int(ver[h0:pos].sum())
            self._host_bounds.append((h0, pos))
            self._mon_bounds.append((m0, mi))
            self._ver_bounds.append((v0, vi))

    @property
    def n_blocks(self):
        return len(self._block_lengths)

    def host_block_bounds(self, block):
        return self._host_bounds[block]

    def monlist_block_bounds(self, block):
        return self._mon_bounds[block]

    def version_block_bounds(self, block):
        return self._ver_bounds[block]

    def extend(self, new_hosts):
        """Append scenario-planted hosts to the tail block, keeping the
        filtered views, block bounds, and liveness indexes coherent."""
        for host in new_hosts:
            self.hosts.append(host)
            if host.monlist_amplifier:
                self._monlist_hosts.append(host)
            if host.responds_version:
                self._version_hosts.append(host)
        self._block_lengths[-1] += len(new_hosts)
        self._compute_block_bounds()
        self._monlist_columns = None
        self.invalidate_liveness_index()

    @property
    def monlist_hosts(self):
        """Every host that was ever a monlist amplifier (any lease/IP)."""
        return self._monlist_hosts

    @property
    def version_hosts(self):
        return self._version_hosts

    def monlist_columns(self):
        """Memoized :class:`MonlistColumns` over ``monlist_hosts``
        (rebuilt if the list has grown since it was materialized)."""
        cols = self._monlist_columns
        if cols is None or cols.n_hosts != len(self._monlist_hosts):
            cols = MonlistColumns(self._monlist_hosts)
            self._monlist_columns = cols
        return cols

    @property
    def block_lengths(self):
        """Host count of each build block, the tail block last."""
        return list(self._block_lengths)

    def invalidate_liveness_index(self):
        """Force index rebuilds after in-place edits to indexed hosts'
        birth/death/remediation/version-off attributes.  Appending hosts
        to the pool lists is detected automatically."""
        self._monlist_index.invalidate()
        self._version_index.invalidate()
        self._exists_index.invalidate()

    def monlist_alive(self, t, limit=None, window=None):
        return self._monlist_index.alive(t, limit=limit, window=window)

    def version_alive(self, t, limit=None, window=None):
        return self._version_index.alive(t, limit=limit, window=window)

    def monlist_alive_index(self, t, limit=None, window=None):
        """:meth:`monlist_alive` as ascending indices into ``hosts``."""
        return self._mon_pos[self._monlist_index.alive_index(t, limit, window)]

    def version_alive_index(self, t, limit=None, window=None):
        """:meth:`version_alive` as ascending indices into ``hosts``."""
        return self._ver_pos[self._version_index.alive_index(t, limit, window)]

    def host_count_alive(self, t):
        return self._exists_index.count_alive(t)


def _sample_cluster_sizes(rng, total):
    """Cluster sizes for infrastructure amplifiers: mostly singletons plus a
    heavy tail of server farms managed (and later patched) together."""
    sizes = []
    placed = 0
    while placed < total:
        if rng.random() < 0.55:
            size = 1
        else:
            size = int(rng.bounded_pareto(0.7, 2.0, 200.0))
        size = min(size, total - placed)
        sizes.append(size)
        placed += size
    return sizes


def _sample_table_sizes(rng, n, params):
    """Target monlist table sizes: heavy-tailed with a primed-full spike."""
    base = rng.bounded_pareto(params.table_alpha, 1.0, 600.0, size=n)
    sizes = np.floor(base).astype(int)
    full = rng.bernoulli(params.full_table_fraction, size=n)
    sizes[full] = 600
    return sizes


def _make_background_clients(rng, host_seed_rng, n_clients, birth):
    """Static client population for one host (see BackgroundClients)."""
    if n_clients <= 0:
        return BackgroundClients(
            ips=np.empty(0, dtype=np.int64),
            ports=np.empty(0, dtype=np.int64),
            intervals=np.empty(0, dtype=np.float64),
            first_polls=np.empty(0, dtype=np.float64),
            one_shot=np.empty(0, dtype=bool),
        )
    ips = host_seed_rng.integers(0x0B000000, 0xDF000000, size=n_clients)
    ports = host_seed_rng.integers(1024, 65535, size=n_clients)
    # Poll cadence: lognormal around ~2048 s with long tails out to days.
    intervals = np.clip(host_seed_rng.lognormal_for_median(2048.0, 1.6, size=n_clients), 64.0, 14 * DAY)
    first_polls = birth + host_seed_rng.uniform(0.0, 30 * DAY, size=n_clients)
    one_shot = host_seed_rng.bernoulli(0.3, size=n_clients)
    return BackgroundClients(
        ips=ips.astype(np.int64),
        ports=ports.astype(np.int64),
        intervals=intervals,
        first_polls=first_polls,
        one_shot=one_shot,
    )


def _sample_impl(rng):
    u = rng.random()
    acc = 0.0
    for impls, weight in _IMPL_MIX:
        acc += weight
        if u < acc:
            return impls
    return _IMPL_MIX[-1][0]


def _sample_restart_interval(rng):
    """Daemon restart cadence: ~10% never restart in-window, the rest have a
    lognormal uptime with median ≈ 55 h.  This is the lever behind §4.2's
    ~44 h median view window *and* the small (median ≈6 entry) tables: a
    short window retains only recent clients/scanners."""
    if rng.random() < 0.10:
        return None
    return float(np.clip(rng.lognormal_for_median(55 * HOUR, 0.8), 6 * HOUR, 45 * DAY))


def _pick_infra_ip(rng, registry, pbl, kind_systems):
    """A non-end-host address in a random infrastructure AS."""
    weights = [w for _, w in _INFRA_KIND_WEIGHTS]
    kinds = [k for k, _ in _INFRA_KIND_WEIGHTS]
    for _ in range(64):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        systems = kind_systems[kind]
        system = systems[int(rng.integers(0, len(systems)))]
        ip = system.random_ip(rng)
        if not pbl.is_end_host(ip):
            return ip, system
    raise RuntimeError("could not place an infrastructure host")


def _pick_end_host_ip(rng, kind_systems, pbl):
    """An end-host address (residential pool or a campus dynamic range)."""
    residential = kind_systems[NetworkKind.RESIDENTIAL]
    for _ in range(64):
        system = residential[int(rng.integers(0, len(residential)))]
        ip = system.random_ip(rng)
        if pbl.is_end_host(ip):
            return ip, system
    raise RuntimeError("could not place an end host")


#: Cluster-id stride per build block: block ``b`` allocates cluster ids in
#: ``[b * _CLUSTER_STRIDE, (b+1) * _CLUSTER_STRIDE)`` so ids never collide
#: across blocks without any cross-block coordination.
_CLUSTER_STRIDE = 2**22


class _HostBlock(list):
    """One build block's hosts.  Pickled back from a fork worker, the
    block travels as a :class:`HostTable`: a few columns rather than one
    object per host and client array.  A serial build never pickles it."""

    def __reduce__(self):
        return HostTable.unpack, (HostTable(self),)


def _host_block_worker(ctx, block):
    """Generate one block of the host population (cohort, DHCP chains,
    weekly arrivals, and a slice of the non-amplifier rest).

    Every draw comes from children of ``rng.child(f"block-{block}")`` —
    a pure derivation from the master seed, so the block's bytes are
    identical whether it runs in the parent or in a forked worker, in
    any order relative to the other blocks.
    """
    from repro.population.remediation import version_survival_curve

    rng, registry, pbl, params, remediation, mon_counts, rest_counts = ctx
    version_curve = version_survival_curve()
    brng = rng.child(f"block-{block}")
    place_rng = brng.child("placement")
    attr_rng = brng.child("attrs")
    table_rng = brng.child("tables")
    client_rng = brng.child("clients")
    remed_rng = brng.child("remediation")
    churn_rng = brng.child("churn")

    kind_systems = {kind: registry.systems_of_kind(kind) for kind in NetworkKind}
    hosts = []
    cluster_base = block * _CLUSTER_STRIDE
    cluster_counter = 0

    # ---- monlist amplifier cohort (this block's slice) ----------------------
    n_mon = mon_counts[block]
    n_end = int(n_mon * params.end_host_fraction)
    n_infra = n_mon - n_end
    attrs = sample_system_attributes(attr_rng, n_mon, population="amplifier")
    table_sizes = _sample_table_sizes(table_rng, n_mon, params)

    infra_sizes = _sample_cluster_sizes(place_rng, n_infra)
    slots = []  # (ip, system, is_end_host, cluster_id)
    for size in infra_sizes:
        ip, system = _pick_infra_ip(place_rng, registry, pbl, kind_systems)
        for offset in range(size):
            slots.append((ip + offset, system, False, cluster_base + cluster_counter))
        cluster_counter += 1
    for _ in range(n_end):
        ip, system = _pick_end_host_ip(place_rng, kind_systems, pbl)
        slots.append((ip, system, True, cluster_base + cluster_counter))
        cluster_counter += 1

    # Cluster-correlated remediation: members of a managed cluster usually
    # get patched together (§6.1's "closely-addressed ... managed together").
    cluster_u = {}
    for index, (ip, system, is_end, cluster_id) in enumerate(slots[:n_mon]):
        attr = attrs[index]
        if cluster_id not in cluster_u:
            cluster_u[cluster_id] = float(remed_rng.uniform(1e-12, 1.0))
        shared = cluster_u[cluster_id]
        u = shared if (not is_end and remed_rng.random() < 0.7) else float(
            remed_rng.uniform(1e-12, 1.0)
        )
        multiplier = remediation.multiplier_for(system.continent, is_end)
        remediation_time = remediation.sample_time(u, multiplier)
        size = int(table_sizes[index])
        host = NtpHost(
            ip=ip,
            asn=system.asn,
            continent=system.continent,
            country=system.country,
            is_end_host=is_end,
            attrs=attr,
            responds_version=bool(attr_rng.random() < params.amplifier_version_fraction),
            monlist_amplifier=True,
            implementations=_sample_impl(attr_rng),
            base_clients=size,
            primed_full=size >= 600,
            restart_interval=_sample_restart_interval(attr_rng),
            birth=0.0,
            remediation_time=remediation_time,
            also_dns_resolver=bool(attr_rng.random() < params.dns_overlap_fraction),
            cluster_id=cluster_id,
        )
        host.clients = _make_background_clients(client_rng, client_rng, size, host.birth)
        hosts.append(host)

    # ---- DHCP churn chains for this block's end-host amplifiers -------------
    chained = []
    for host in hosts:
        if not host.is_end_host:
            continue
        horizon = host.remediation_time if host.remediation_time is not None else params.window_end
        cursor = host.birth
        current = host
        while True:
            lease = float(churn_rng.exponential(params.lease_mean))
            lease = max(lease, DAY)
            if cursor + lease >= horizon:
                break
            current.death = cursor + lease
            cursor += lease
            ip, system = _pick_end_host_ip(place_rng, kind_systems, pbl)
            successor = NtpHost(
                ip=ip,
                asn=system.asn,
                continent=system.continent,
                country=system.country,
                is_end_host=True,
                attrs=current.attrs,
                responds_version=current.responds_version,
                monlist_amplifier=True,
                implementations=current.implementations,
                base_clients=current.base_clients,
                primed_full=current.primed_full,
                restart_interval=current.restart_interval,
                birth=cursor,
                remediation_time=current.remediation_time,
                also_dns_resolver=current.also_dns_resolver,
                cluster_id=current.cluster_id,
            )
            successor.clients = _make_background_clients(
                client_rng, client_rng, successor.base_clients, successor.birth
            )
            chained.append(successor)
            current = successor
    hosts.extend(chained)

    # ---- weekly trickle of brand-new amplifiers (1/HOST_BLOCKS each) --------
    # Thinning a Poisson stream is exact: the sum of the blocks' independent
    # Poisson(weekly / HOST_BLOCKS) draws is Poisson(weekly), so the global
    # arrival process keeps its calibrated rate at any block count.
    arrivals = []
    publicity_start = date_to_sim(2014, 1, 10)
    n_weeks = int((params.window_end - publicity_start) // WEEK)
    weekly = params.arrival_weekly_fraction * params.n_monlist / HOST_BLOCKS
    arrival_attrs_needed = int(weekly * n_weeks) + 8
    new_attrs = sample_system_attributes(attr_rng, arrival_attrs_needed, population="amplifier")
    attr_cursor = 0
    for week in range(n_weeks):
        n_new = int(churn_rng.poisson(weekly))
        for _ in range(n_new):
            if attr_cursor >= len(new_attrs):
                break
            birth = publicity_start + week * WEEK + float(churn_rng.uniform(0, WEEK))
            is_end = bool(churn_rng.random() < 0.5)
            if is_end:
                ip, system = _pick_end_host_ip(place_rng, kind_systems, pbl)
            else:
                ip, system = _pick_infra_ip(place_rng, registry, pbl, kind_systems)
            attr = new_attrs[attr_cursor]
            attr_cursor += 1
            # New arrivals are mostly transient (the "seen in a single
            # weekly sample" crowd): fresh installs noticed and patched
            # quickly while the community is actively remediating, with a
            # small long-lived residue.  This keeps the pool in the plateau
            # equilibrium Figure 3 shows from mid-March on.
            if churn_rng.random() < 0.05:
                remediation_time = None
            else:
                lifetime = max(2 * DAY, float(churn_rng.exponential(10 * DAY)))
                remediation_time = birth + lifetime
            size = int(_sample_table_sizes(table_rng, 1, params)[0])
            host = NtpHost(
                ip=ip,
                asn=system.asn,
                continent=system.continent,
                country=system.country,
                is_end_host=is_end,
                attrs=attr,
                responds_version=bool(attr_rng.random() < params.amplifier_version_fraction),
                monlist_amplifier=True,
                implementations=_sample_impl(attr_rng),
                base_clients=size,
                primed_full=size >= 600,
                restart_interval=_sample_restart_interval(attr_rng),
                birth=birth,
                remediation_time=remediation_time,
                also_dns_resolver=bool(attr_rng.random() < params.dns_overlap_fraction),
                cluster_id=cluster_base + cluster_counter,
            )
            cluster_counter += 1
            host.clients = _make_background_clients(client_rng, client_rng, size, birth)
            arrivals.append(host)
    hosts.extend(arrivals)

    # ---- this block's slice of the non-amplifier rest -----------------------
    n_rest = rest_counts[block]
    rest_attrs = sample_system_attributes(attr_rng, n_rest, population="all")
    version_u = remed_rng.uniform(1e-12, 1.0, size=n_rest)
    for i in range(n_rest):
        is_end = bool(attr_rng.random() < 0.30)
        if is_end:
            ip, system = _pick_end_host_ip(place_rng, kind_systems, pbl)
        else:
            ip, system = _pick_infra_ip(place_rng, registry, pbl, kind_systems)
        responds_version = bool(attr_rng.random() < params.version_responder_fraction)
        version_off = version_curve.inverse(min(max(float(version_u[i]), 1e-12), 1.0))
        hosts.append(
            NtpHost(
                ip=ip,
                asn=system.asn,
                continent=system.continent,
                country=system.country,
                is_end_host=is_end,
                attrs=rest_attrs[i],
                responds_version=responds_version,
                monlist_amplifier=False,
                implementations=frozenset(),
                base_clients=0,
                primed_full=False,
                birth=0.0,
                version_off_time=version_off,
                cluster_id=-1,
            )
        )
    return _HostBlock(hosts)


def build_host_pool(rng, registry, pbl, params=None, remediation_model=None, runner=None):
    """Generate the full NTP host population.

    Returns a :class:`HostPool`.  Determinism: everything is drawn from
    child streams of ``rng``, so the same (seed, params, registry) triple
    always yields the identical population.

    The population is generated in :data:`HOST_BLOCKS` fixed blocks, each
    sized by :func:`balanced_split` and seeded by its own
    ``rng.child(f"block-{b}")`` stream.  ``runner`` (a
    :class:`repro.util.ShardRunner`) distributes the blocks across a fork
    pool; with no runner — or with ``--jobs 1`` — the *same* blocks run
    serially in the same order, so the merged pool is byte-identical at
    any job count by construction.  Cross-block passes (mega selection,
    the giga tail, the version-off curve) run in the parent over the
    merged list, from their own named streams.
    """
    from repro.population.remediation import RemediationModel
    from repro.population.remediation import version_survival_curve
    from repro.util.pool import ShardRunner

    params = params or PoolParams()
    remediation = remediation_model or RemediationModel()
    version_curve = version_survival_curve()
    runner = runner or ShardRunner(1)

    mon_counts = tuple(balanced_split(params.n_monlist, HOST_BLOCKS))
    n_rest_total = max(0, params.n_all_ntp - params.n_monlist - params.giga_count)
    rest_counts = tuple(balanced_split(n_rest_total, HOST_BLOCKS))
    ctx = (rng, registry, pbl, params, remediation, mon_counts, rest_counts)
    blocks = runner.map("hosts", _host_block_worker, ctx, HOST_BLOCKS)

    hosts = []
    block_lengths = []
    for block in blocks:
        hosts.extend(block)
        block_lengths.append(len(block))

    # ---- mega amplifiers (§3.4): a cross-block pass in the parent ------------
    mega_rng = rng.child("mega")
    infra_hosts = [h for h in hosts if h.monlist_amplifier and not h.is_end_host]
    n_mega = min(params.n_mega, len(infra_hosts))
    mega_indices = mega_rng.choice(len(infra_hosts), size=n_mega, replace=False)
    mega_attrs = sample_system_attributes(mega_rng, n_mega, population="mega")
    jp_systems = [registry.special[f"JP-NET-{i}"] for i in range(1, 8)]
    for order, index in enumerate(mega_indices):
        host = infra_hosts[int(index)]
        host.is_mega = True
        host.attrs = mega_attrs[order]
        # Loop factors: heavy-tailed; most megas return 100KB..10MB.
        host.loop_factor = max(2, int(mega_rng.bounded_pareto(0.6, 2.0, 2.0e4)))
        host.responds_version = bool(mega_rng.random() < 0.5)
        # Mega amps tend to persist (badly managed): slow their remediation.
        if host.remediation_time is not None and mega_rng.random() < 0.35:
            host.remediation_time = None
    # The nine giga amplifiers, all in Japanese networks, largest ~136 GB.
    # They form the tail block (index HOST_BLOCKS), which also receives the
    # scenario layer's planted local amplifiers via :meth:`HostPool.extend`.
    giga_client_rng = rng.child("giga-clients")
    giga_cluster_base = HOST_BLOCKS * _CLUSTER_STRIDE
    giga_loops = [2_700_000, 900_000, 400_000, 250_000, 150_000, 90_000, 60_000, 40_000, 25_000]
    giga_attrs = sample_system_attributes(mega_rng, params.giga_count, population="mega")
    gigas = []
    for i in range(params.giga_count):
        system = jp_systems[i % len(jp_systems)]
        ip = system.random_ip(mega_rng)
        host = NtpHost(
            ip=ip,
            asn=system.asn,
            continent=system.continent,
            country=system.country,
            is_end_host=False,
            attrs=giga_attrs[i],
            responds_version=bool(i % 2 == 0),
            monlist_amplifier=True,
            implementations=frozenset({IMPL_XNTPD}),
            base_clients=600,
            primed_full=True,
            loop_factor=giga_loops[i % len(giga_loops)],
            is_mega=True,
            restart_interval=None,
            birth=0.0,
            remediation_time=date_to_sim(2014, 6, 7),  # fixed after JPCERT contact
            cluster_id=giga_cluster_base + i,
        )
        host.clients = _make_background_clients(giga_client_rng, giga_client_rng, 600, 0.0)
        gigas.append(host)
    hosts.extend(gigas)
    block_lengths.append(len(gigas))

    # Version turn-off for amplifier hosts follows the same slow curve —
    # one parent-side vectorized draw over the merged list, so it is
    # independent of how the blocks were distributed.
    voff_rng = rng.child("version-off")
    amp_version_u = voff_rng.uniform(1e-12, 1.0, size=len(hosts))
    for host, u in zip(hosts, amp_version_u):
        if host.monlist_amplifier and host.responds_version and host.version_off_time is None:
            host.version_off_time = version_curve.inverse(min(max(float(u), 1e-12), 1.0))

    return HostPool(hosts, params, block_lengths=block_lengths)
