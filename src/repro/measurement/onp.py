"""The OpenNTPProject-style active prober (§3's ONP dataset).

Weekly, from one measurement-network source IP, the prober sends every IPv4
address a single NTP packet and captures all response packets:

* **monlist scans** (mode 7, implementation ``IMPL_XNTPD`` only — the
  paper's scans used one of the two implementation codes, its main
  acknowledged undercount) — fifteen samples, 2014-01-10 .. 2014-04-18;
* **version scans** (mode 6 READVAR) — nine samples from 2014-02-21.

Captures store raw packet bytes; the analysis layer re-parses them with the
ntpdc protocol logic, exactly as the paper did.

Sharded sweeps
--------------
The sweep is partitioned along the host pool's fixed build blocks (see
``repro.population.columns.HOST_BLOCKS``): each block worker walks the
*whole* chronological schedule over its own disjoint host slice, with its
own :meth:`~repro.measurement.amplifier_state.AmplifierStateManager.block_view`
and per-(sample, block) loss streams, and returns one
:class:`~repro.measurement.capture_store.PackedCaptures` per sample.  The
parent concatenates block parts in block order — byte-identical at any
``--jobs`` because the blocks, their streams, and their merge order never
depend on the worker count.  Sweep-level fault decisions (outages, partial
sweeps) are drawn parent-side, serially, before any block runs.
"""

from dataclasses import dataclass, field

from repro.attack.scanner import ONP_PROBER_IP
from repro.measurement.capture_store import PackedCaptures, PackedCapturesBuilder
from repro.ntp.constants import IMPL_XNTPD, MODE_CONTROL, MODE_PRIVATE
from repro.util.pool import ShardRunner
from repro.util.simtime import date_to_sim, format_sim, week_samples

__all__ = [
    "MONLIST_SAMPLE_TIMES",
    "VERSION_SAMPLE_TIMES",
    "ProbeCapture",
    "OnpSample",
    "OnpDataset",
    "OnpProber",
]

MONLIST_SAMPLE_TIMES = week_samples(date_to_sim(2014, 1, 10), 15)
VERSION_SAMPLE_TIMES = week_samples(date_to_sim(2014, 2, 21), 9)


@dataclass(frozen=True)
class ProbeCapture:
    """All response packets one target sent to one probe.

    ``packets`` is one rendition; mega amplifiers repeat it ``n_repeats``
    times (§3.4), so aggregate sizes are exact without materializing
    gigabytes.
    """

    target_ip: int
    t: float
    packets: tuple
    n_repeats: int = 1

    @property
    def total_payload_bytes(self):
        return sum(len(p) for p in self.packets) * self.n_repeats


class OnpSample:
    """One Internet-wide scan: a date and every capture it produced.

    Captures live in the sample's :class:`PackedCaptures` store ``packed``
    (flat arrays over one payload blob, possibly memory-mapped), an empty
    one for an outage gap; a full-scale sample costs arrays, not millions
    of tuples.
    """

    def __init__(self, t, mode, packed, outage=False, coverage=1.0):
        self.t = t
        self.mode = mode
        self.packed = packed
        #: True when the whole weekly sweep is missing (apparatus outage);
        #: the sample is kept in the dataset so consumers can mark the gap.
        self.outage = outage
        #: Fraction of the target list the sweep actually covered (< 1.0
        #: when the apparatus aborted partway through the address space).
        self.coverage = coverage
        self._responder_cache = None

    @property
    def date(self):
        return format_sim(self.t)

    @property
    def captures(self):
        """A :class:`ProbeCapture`-shaped view of each capture, in order."""
        return self.packed.views()

    def __len__(self):
        return len(self.packed)

    def responder_ips(self):
        """The set of target IPs that produced a capture (cached)."""
        if self._responder_cache is None:
            self._responder_cache = set(self.packed.target_ips.tolist())
        return self._responder_cache

    # Cache pickles: the responder set re-materializes from the store.
    def __getstate__(self):
        return dict(self.__dict__, _responder_cache=None)


@dataclass
class OnpDataset:
    """The full ONP corpus: 15 monlist samples + 9 version samples."""

    monlist_samples: list = field(default_factory=list)
    version_samples: list = field(default_factory=list)
    _unique_cache: tuple = field(default=None, repr=False, compare=False)

    def monlist_unique_ips(self):
        """Union of responder IPs over all monlist samples (cached; the
        guard is the total capture count, append-only after the sweep)."""
        total = sum(len(s) for s in self.monlist_samples)
        cache = self._unique_cache
        if cache is None or cache[0] != total:
            out = set()
            for sample in self.monlist_samples:
                out |= sample.responder_ips()
            cache = (total, out)
            self._unique_cache = cache
        return cache[1]


def _sweep_monlist(prober, state, active, t, rng, mangler):
    """One block's slice of a monlist sweep; returns a PackedCaptures.

    Two-pass, replicating the paper apparatus: every *existing* active
    host is probed (ntpd monitors all traffic regardless of response
    loss), then a small loss rate models rate-limiting and filtering of
    the single scanning source.
    """
    builder = PackedCapturesBuilder(t)
    src_ip = prober._ip
    src_port = 50557 + (int(t) % 1000)  # hoisted: constant per sweep
    sync = state.sync
    # Pass 1 — probe every active host in target-list order: sync its
    # table, record the probe, and note which hosts would reply.  The
    # reply conditions mirror NtpServer.monlist_reply exactly.
    repliers = []
    for host in active:
        server = sync(host, t)
        config = server.config
        # Direct table.record: sync(host, t) already consumed every
        # flush boundary <= t, so record_client's maybe_flush(t) would
        # be a guaranteed no-op here.
        server.table.record(src_ip, src_port, MODE_PRIVATE, 2, t, packets=config.loop_factor)
        if config.monlist_enabled and IMPL_XNTPD in config.implementations:
            repliers.append((host, server))
    if not repliers:
        return builder.finish()
    # RNG-order contract (pinned; both sweep helpers obey it): the loss
    # draw happens AFTER reply generation and ONLY for hosts that produced
    # a reply.  One block draw consumes the PCG64 stream exactly like
    # len(repliers) scalar random() calls (pinned by the block-vs-scalar
    # RNG test), so each replier still sees the draw the per-host loop
    # would have given it — reordering either part shifts every subsequent
    # draw and breaks world determinism.
    draws = rng.random(len(repliers))
    loss = prober._loss
    # Pass 2 — render replies only for survivors.  Rendering is a pure
    # function of the table at ``t`` (no table mutates between the
    # passes), so skipping lost replies changes no surviving bytes.
    for (host, server), u in zip(repliers, draws):
        if u < loss:
            continue
        reply = server.monlist_reply(t, IMPL_XNTPD)
        packets = reply.packets
        if mangler is not None:
            # Degrade only what the apparatus recorded (post-loss), from
            # the block's own stream — the sweep RNG is untouched.
            packets = mangler.mangle(packets)
        builder.add(host.ip, packets, reply.n_repeats)
    return builder.finish()


def _sweep_version(prober, state, reply_memo, active, t, rng):
    """One block's slice of a mode-6 version sweep."""
    builder = PackedCapturesBuilder(t)
    src_ip = prober._ip
    server_for = state.server_for
    # Pass 1 — render every active host's reply.  Version replies don't
    # depend on monitor-table state (no sync needed) and are rendered
    # without logging the probe: version-scan loss models the probe being
    # filtered before it reaches the target, so a lost probe leaves no
    # monitor-table trace (unlike monlist loss, which drops only the
    # response of an already-recorded probe).  A mode-6 reply is a pure
    # function of the server's frozen config and ip, so the per-block
    # memo lets later sweeps skip the render.
    repliers = []
    for host in active:
        entry = reply_memo.get(host.ip)
        if entry is None:
            server = server_for(host)
            entry = (server, server.respond_version(src_ip, 50557, t, record=False))
            reply_memo[host.ip] = entry
        server, reply = entry
        if reply is not None:
            repliers.append((host, server, reply))
    if not repliers:
        return builder.finish()
    # Same RNG-order contract as the monlist sweep (pinned): loss is drawn
    # AFTER reply generation, one draw per replying host, and the block
    # draw equals len(repliers) scalar draws on the same stream.  The
    # surviving hosts' probes are then recorded in host order — each
    # record touches only that host's own table, so batching the records
    # after the draws mutates exactly the tables the interleaved ordering
    # did, identically.
    draws = rng.random(len(repliers))
    loss = prober._loss
    for (host, server, reply), u in zip(repliers, draws):
        if u < loss:
            continue
        if server.config.monlist_enabled:
            # The probe's monitor-table trace is observable only where
            # the table can ever be rendered — monlist amplifiers.  A
            # version-only server's table is write-only dead state, so
            # recording there is skipped (no RNG involved; the world's
            # observable bytes are identical).
            server.record_client(src_ip, 50557, MODE_CONTROL, 2, t, packets=server.config.loop_factor)
        builder.add(host.ip, reply.packets, reply.n_repeats)
    return builder.finish()


def _onp_block_worker(ctx, block):
    """Run the whole chronological sweep schedule over one host block.

    Module-level (fork/pickle-friendly).  Returns (per-schedule-entry
    PackedCaptures-or-None list, mangler fault counts dict or None).
    Every stream consumed here is derived from (seed, names) — never from
    shared mutable RNG state — so the block produces the same bytes in
    any process, in any worker arrangement.
    """
    prober, host_pool, rng, schedule, plan = ctx
    state = prober._state.block_view()
    faults = prober._faults
    mangler = faults.block_mangler(block) if faults is not None else None
    reply_memo = {}
    parts = []
    for (t, mode), (outage, limit, _coverage) in zip(schedule, plan):
        if outage:
            parts.append(None)
            continue
        if mode == 7:
            window = host_pool.monlist_block_bounds(block)
            active = host_pool.monlist_alive(t, limit=limit, window=window)
            srng = rng.child(f"monlist-{int(t)}").child(f"b{block}")
            parts.append(_sweep_monlist(prober, state, active, t, srng, mangler))
        else:
            window = host_pool.version_block_bounds(block)
            active = host_pool.version_alive(t, limit=limit, window=window)
            srng = rng.child(f"version-{int(t)}").child(f"b{block}")
            parts.append(_sweep_version(prober, state, reply_memo, active, t, srng))
    counts = dict(mangler.log.counts) if mangler is not None else None
    return parts, counts


class OnpProber:
    """Runs the weekly sweeps against the simulated world."""

    def __init__(self, state_manager, prober_ip=ONP_PROBER_IP, loss_rate=0.05, faults=None):
        if not 0 <= loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")
        self._state = state_manager
        self._ip = prober_ip
        self._loss = loss_rate
        #: Optional :class:`~repro.faults.FaultInjector`.  All fault draws
        #: come from the injector's own streams, never from the sweep RNG,
        #: so a clean profile leaves the sweeps byte-identical.
        self._faults = faults

    def _fault_plan(self, schedule, host_pool):
        """Draw every sweep-level fault decision, serially, in schedule
        order: [(outage, target-prefix limit or None, coverage)] per entry.

        Parent-side by design — the injector's sweep-level stream is
        consumed in one deterministic order before any block (or worker)
        runs, so the plan is independent of ``--jobs``.
        """
        faults = self._faults
        plan = []
        for t, mode in schedule:
            outage = False
            limit = None
            coverage = 1.0
            if faults is not None:
                if faults.sample_outage(mode, t):
                    outage = True
                else:
                    cutoff = faults.sweep_cutoff(mode, t)
                    if cutoff is not None:
                        # Aborted sweep: only the first fraction of the
                        # target list was ever probed.  Unprobed hosts
                        # consume no draws, exactly as never-replying
                        # hosts already don't.
                        coverage = cutoff
                        n_targets = len(
                            host_pool.monlist_hosts if mode == 7 else host_pool.version_hosts
                        )
                        limit = int(n_targets * cutoff)
            plan.append((outage, limit, coverage))
        return plan

    def run_all(self, host_pool, rng, monlist_times=None, version_times=None, runner=None):
        """The full campaign, interleaved chronologically (table syncs must
        advance monotonically); returns an :class:`OnpDataset`.

        ``runner`` is an optional :class:`~repro.util.pool.ShardRunner`;
        the sweep is partitioned along the pool's build blocks either way,
        so serial and pooled runs are byte-identical.
        """
        dataset = OnpDataset()
        schedule = [(t, 7) for t in (monlist_times or MONLIST_SAMPLE_TIMES)]
        schedule += [(t, 6) for t in (version_times or VERSION_SAMPLE_TIMES)]
        schedule.sort()
        plan = self._fault_plan(schedule, host_pool)
        if runner is None:
            runner = ShardRunner(1)
        n_blocks = host_pool.n_blocks
        ctx = (self, host_pool, rng, schedule, plan)
        outputs = runner.map("onp", _onp_block_worker, ctx, n_blocks)
        for i, ((t, mode), (outage, limit, coverage)) in enumerate(zip(schedule, plan)):
            if outage:
                packed = PackedCapturesBuilder(t).finish()
            else:
                packed = PackedCaptures.concat(block_parts[i] for block_parts, _ in outputs)
            sample = OnpSample(t, mode, packed.maybe_spill(), outage=outage, coverage=coverage)
            if mode == 7:
                dataset.monlist_samples.append(sample)
            else:
                dataset.version_samples.append(sample)
        faults = self._faults
        if faults is not None:
            # Block manglers counted into local logs; merge in block order
            # so the world log is identical at any --jobs.
            for _, counts in outputs:
                if counts:
                    for kind, n in counts.items():
                        faults.log.record(kind, n)
        return dataset
