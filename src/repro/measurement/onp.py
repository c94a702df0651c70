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
own :class:`~repro.measurement.amplifier_state.MonitorTableStore` and
per-(sample, block) loss streams, and returns one
:class:`~repro.measurement.capture_store.PackedCaptures` per sample.  The
parent concatenates block parts in block order — byte-identical at any
``--jobs`` because the blocks, their streams, and their merge order never
depend on the worker count.  Sweep-level fault decisions (outages, partial
sweeps) are drawn parent-side, serially, before any block runs.

Within a block a sweep is arrays end to end: the store catches every
active host's monitor table up to the sweep time at once, one loss draw
covers the repliers, and the survivors' replies are encoded in one pass.
Only the malicious-scanner hits (per sync, inside the store) and fault
mangling (per surviving capture) stay scalar.
"""

from dataclasses import dataclass, field

from repro.attack.scanner import ONP_PROBER_IP
from repro.measurement.amplifier_state import MonitorTableStore
from repro.measurement.capture_store import PackedCaptures, PackedCapturesBuilder
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


def _sweep_monlist(prober, store, active, t, rng, mangler):
    """One block's slice of a monlist sweep; returns a PackedCaptures.

    Every active host is probed (ntpd monitors all traffic regardless of
    response loss), then a small loss rate models rate-limiting and
    filtering of the single scanning source.
    """
    repliers = store.sync(active, t, prober._ip)
    # RNG-order contract (pinned; both sweep helpers obey it): the loss
    # draw happens AFTER reply generation and ONLY for hosts that produce
    # a reply, in host order.  One block draw consumes the PCG64 stream
    # exactly like len(repliers) scalar random() calls (pinned by the
    # block-vs-scalar RNG test).  Rendering is a pure function of the
    # tables at ``t``, so only survivors are rendered.
    survivors = repliers[rng.random(len(repliers)) >= prober._loss]
    packed = store.render_monlist(survivors, t)
    if mangler is None:
        return packed
    # Degrade only what the apparatus recorded (post-loss), capture by
    # capture from the block's own stream; the sweep RNG is untouched.
    builder = PackedCapturesBuilder(t)
    for capture in packed.views():
        builder.add(capture.target_ip, mangler.mangle(capture.packets), capture.n_repeats)
    return builder.finish()


def _sweep_version(prober, store, active, t, rng):
    """One block's slice of a mode-6 version sweep.

    Version-scan loss models the probe being filtered before it reaches
    the target, so only a surviving probe leaves a monitor-table trace
    (unlike monlist loss, which drops only the response of an
    already-recorded probe).  The same RNG-order contract holds.
    """
    repliers = store.version_repliers(active)
    survivors = repliers[rng.random(len(repliers)) >= prober._loss]
    store.record_version_probes(survivors, t, prober._ip)
    return store.render_version(survivors, t)


def _onp_block_worker(ctx, block):
    """Run the whole chronological sweep schedule over one host block.

    Module-level (fork/pickle-friendly).  Returns (per-schedule-entry
    PackedCaptures-or-None list, mangler fault counts dict or None).
    Every stream consumed here is derived from (seed, names) — never from
    shared mutable RNG state — so the block produces the same bytes in
    any process, in any worker arrangement.
    """
    prober, host_pool, rng, schedule, plan = ctx
    lo, hi = host_pool.host_block_bounds(block)
    store = MonitorTableStore(prober._state, host_pool.hosts[lo:hi])
    faults = prober._faults
    mangler = faults.block_mangler(block) if faults is not None else None
    parts = []
    for (t, mode), (outage, limit, _coverage) in zip(schedule, plan):
        if outage:
            parts.append(None)
            continue
        if mode == 7:
            window = host_pool.monlist_block_bounds(block)
            active = host_pool.monlist_alive_index(t, limit=limit, window=window) - lo
            srng = rng.child(f"monlist-{int(t)}").child(f"b{block}")
            parts.append(_sweep_monlist(prober, store, active, t, srng, mangler))
        else:
            window = host_pool.version_block_bounds(block)
            active = host_pool.version_alive_index(t, limit=limit, window=window) - lo
            srng = rng.child(f"version-{int(t)}").child(f"b{block}")
            parts.append(_sweep_version(prober, store, active, t, srng))
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
