"""The end-to-end paper world.

``PaperWorld.build(seed, scale)`` runs the entire study: it generates the
synthetic Internet (AS plan, NTP host population, victim population),
the attacker ecosystem (scanners, booters, the attack campaign including
the February 10-12 OVH event and the scripted FRGP reflection spike), and
then runs all five measurement apparatus against it, materializing the
synthetic equivalents of the paper's five datasets:

1. ``world.arbor``   — global traffic and labeled-attack statistics,
2. ``world.onp``     — the ONP weekly monlist/version probe captures,
3. ``world.darknet`` — the IPv4 ≈/9 telescope,
4. ``world.darknet_v6`` — the IPv6 telescope (negative result),
5. ``world.isp``     — Merit and FRGP/CSU flow vantage points.

Every analysis in :mod:`repro.analysis` consumes these dataset objects
only — never the ground truth — so the pipeline would run unchanged on
real data with the same schemas.

The ground truth is built as objects and kept as columns: a finished
world's ``hosts``, ``local_amplifiers`` and ``attacks`` are what
:func:`pack_population` makes of them, and the world pickles those
arrays as they are.  :func:`unpack_population` turns them back into
objects, for a checkpoint resume and for tests.
"""

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.attack.campaign import AttackCampaign, AttackSpec, CampaignParams
from repro.attack.scanner import RESEARCH_SCANNERS, ScannerEcosystem, windows_observed_ttl
from repro.faults import CLEAN_PROFILE, FaultInjector, FaultProfile
from repro.measurement.amplifier_state import AmplifierStateManager
from repro.measurement.arbor import ArborCollector
from repro.measurement.isp import IspMeasurement
from repro.measurement.onp import OnpProber
from repro.net.asn import ASRegistry
from repro.net.geo import GeoView
from repro.net.pbl import PolicyBlockList
from repro.net.routing import RoutedBlockTable
from repro.population.amplifiers import (
    BackgroundClients,
    FieldColumns,
    HostPool,
    HostTable,
    NtpHost,
    PoolParams,
    build_host_pool,
    read_only,
)
from repro.population.columns import PulseColumns
from repro.population.dns_resolvers import DnsResolverPool
from repro.population.osmodel import sample_system_attributes
from repro.population.victims import VictimParams, build_victim_pool
from repro.telescope.darknet import Ipv4Darknet, Ipv6Darknet
from repro.util.pool import ShardRunner, summarize_shard_stats
from repro.util.rng import RngStream
from repro.util.simtime import DAY, HOUR, date_to_sim

__all__ = ["WorldParams", "PaperWorld", "AttackTable", "pack_population", "unpack_population"]


@dataclass(frozen=True)
class WorldParams:
    """One knob to rule them all: the world's seed and scale."""

    seed: int = 2014
    #: Population scale relative to the real Internet (1.0 = 1.4M monlist
    #: amplifiers; benchmarks default to small worlds).
    scale: float = 0.003
    #: ASes in the synthetic registry (defaults scale sub-linearly so small
    #: worlds still have AS-level structure).
    n_ases: int = None
    observation_start: float = date_to_sim(2013, 9, 1)
    observation_end: float = date_to_sim(2014, 5, 1)
    #: Measurement-apparatus imperfection model (see :mod:`repro.faults`).
    #: The default clean profile injects nothing and leaves the world
    #: byte-identical to a build without the fault layer.
    faults: FaultProfile = CLEAN_PROFILE

    def resolved_n_ases(self):
        if self.n_ases is not None:
            return self.n_ases
        return max(400, int(3000 * math.sqrt(self.scale / 0.01)))


#: Local amplifier deployments (§7.1): counts are absolute, like the paper's.
_LOCAL_AMPLIFIER_PLAN = {
    # site AS name: (count, n_elite_full_table, remediation description)
    "REGIONAL-MI": (50, 5, "tickets"),  # Merit: tracked via trouble tickets
    "FRGP-CO": (48, 4, "slow"),  # FRGP: ongoing through February
    "CSU-EDU": (9, 3, "jan24"),  # CSU: all secured on January 24
}


@dataclass
class PaperWorld:
    """The fully-built world: ground truth plus the five datasets."""

    params: WorldParams
    registry: object
    table: object
    pbl: object
    geo: object
    #: The :class:`~repro.population.amplifiers.HostTable` of every host.
    hosts: object
    victims: object
    sweeps: list
    #: The campaign's :class:`AttackTable`, in start order.
    attacks: object
    onp: object
    arbor: object
    darknet: object
    darknet_v6: object
    isp: object
    dns_pool: object
    #: Each site's planted local amplifiers, as rows of ``hosts``.
    local_amplifiers: dict = field(default_factory=dict)
    #: Wall-clock seconds per build phase (see ``build``); purely
    #: observational — never feeds back into the simulation.
    build_timings: dict = field(default_factory=dict)
    #: Per-phase shard-pool engagement and per-task timings (see
    #: :class:`~repro.util.pool.ShardRunner`); observational only.
    shard_stats: dict = field(default_factory=dict)
    #: The :class:`~repro.faults.InjectionLog` of every apparatus fault
    #: injected during the build.
    fault_log: object = None
    #: :class:`~repro.scenario.checkpoint.BuildCheckpoint` provenance
    #: (resumed?, phases loaded, saves) when ``checkpoint_dir`` was set;
    #: None otherwise.
    checkpoint_stats: object = None

    # -- reporting -------------------------------------------------------------------

    def timing_summary(self):
        """Per-phase build timings as text lines (empty if not recorded)."""
        if not self.build_timings:
            return []
        total = self.build_timings.get("total", sum(self.build_timings.values()))
        lines = [f"Build: {total:.2f}s wall clock"]
        for phase, seconds in self.build_timings.items():
            if phase == "total":
                continue
            share = seconds / total if total else 0.0
            lines.append(f"  {phase:<10} {seconds:8.2f}s  {100 * share:5.1f}%")
        return lines

    def summary(self, include_timings=False, context=None):
        """A text digest of the study's headline findings for this world.

        ``include_timings`` appends per-phase build wall-clock lines; it is
        off by default so the summary stays a pure function of (seed,
        params) — golden tests depend on that.  ``context`` is an optional
        shared :class:`~repro.analysis.AnalysisContext`; passing one lets
        the CLI reuse this summary's corpus decode for later artifacts
        (and vice versa) — the text is identical either way.
        """
        from repro.analysis import (
            AnalysisContext,
            amplifier_counts,
            churn_report,
            peak_traffic_date,
            sample_baf_boxplot,
            version_sample_baf_boxplot,
        )
        from repro.util.simtime import format_sim

        if context is None:
            context = AnalysisContext(self)

        lines = []
        lines.append(
            f"PaperWorld(seed={self.params.seed}, scale={self.params.scale}): "
            f"{len(self.hosts)} host records, {len(self.victims)} victims, "
            f"{len(self.attacks)} attacks, {len(self.sweeps)} scan sweeps"
        )
        daily = self.arbor.daily
        if daily:
            nov = max(d.ntp_fraction for d in daily[:20])
            peak = max(d.ntp_fraction for d in daily)
            lines.append(
                f"NTP traffic fraction: {nov:.2e} (Nov) -> {peak:.2e} "
                f"(peak {peak_traffic_date(self.arbor)}; paper: 1e-5 -> 1e-2 on 2014-02-11)"
            )
        else:
            lines.append("NTP traffic fraction: (no data: collector recorded no days)")
        parsed = context.parsed_samples()
        rows = amplifier_counts(parsed, self.table, self.pbl)
        # Apparatus outages leave all-zero rows; the remediation headline is
        # computed between the first and last weeks that actually measured.
        measured = [r for r in rows if not r.outage and r.ips > 0]
        if len(measured) >= 2:
            first_row, last_row = measured[0], measured[-1]
            lines.append(
                f"Amplifier pool: {first_row.ips} -> {last_row.ips} "
                f"({100 * (1 - last_row.ips / first_row.ips):.0f}% remediated; paper: 92%)"
            )
        else:
            lines.append("Amplifier pool: (no data: fewer than two measured weeks)")
        churn = churn_report(parsed)
        lines.append(
            f"Unique amplifier IPs: {churn.total_unique} "
            f"(first sample {100 * churn.first_sample_share:.0f}%; paper: ~60%)"
        )
        with_tables = [p for p in parsed if len(p)]
        version_ok = [s for s in self.onp.version_samples if len(s)]
        if with_tables and version_ok:
            box = sample_baf_boxplot(with_tables[0])
            vbox = version_sample_baf_boxplot(version_ok[0])
            lines.append(
                f"BAF: monlist median {box.median:.1f}x / Q3 {box.q3:.1f}x / max {box.maximum:.1e}x; "
                f"version {vbox.q1:.1f}/{vbox.median:.1f}/{vbox.q3:.1f} (paper: 4.3/15/1e9; 3.5/4.6/6.9)"
            )
        else:
            lines.append("BAF: (no data: no parsed monlist or version samples)")
        report = context.victim_report()
        victims = report.all_victim_ips()
        lines.append(
            f"Victims observed: {len(victims)} "
            f"(~{int(len(victims) / self.params.scale):,} full-scale-equivalent; paper: 437K), "
            f"{report.total_attack_packets():.2e} packets, "
            f"undersampling {report.undersampling_factor():.1f}x (paper: 3.8x)"
        )
        samples = self.onp.monlist_samples
        if samples:
            window = f"{format_sim(samples[0].t)} .. {format_sim(samples[-1].t)}"
            lines.append(f"Window: {window} ({len(samples)} weekly samples)")
        else:
            lines.append("Window: (no data: the campaign recorded no monlist samples)")
        if include_timings:
            lines.extend(self.timing_summary())
        return "\n".join(lines)

    # -- construction --------------------------------------------------------------

    @classmethod
    def build(
        cls,
        seed=2014,
        scale=0.003,
        params=None,
        quiet=True,
        jobs=1,
        task_timeout=None,
        retries=None,
        checkpoint_dir=None,
    ):
        """Run the whole study.  Deterministic in (seed, params).

        ``jobs`` parallelizes the heavy build phases (hosts, campaign,
        ONP sweeps) across a fork pool.  The world is byte-identical at
        any ``jobs``: the work is partitioned along fixed build blocks
        with derived per-block RNG streams, and the pool merely
        distributes those same blocks (see :mod:`repro.util.pool`).

        ``task_timeout`` and ``retries`` tune the pool's supervision
        layer (per-task wall-clock budget; extra pooled attempts before
        the in-process serial fallback) — they affect scheduling only,
        never the bytes of the result.  ``checkpoint_dir`` persists the
        build state after every completed phase so an interrupted build
        resumes from the last finished phase to a byte-identical world
        (see :mod:`repro.scenario.checkpoint`).
        """
        params = params or WorldParams(seed=seed, scale=scale)
        rng = RngStream(params.seed, "paper-world")
        runner_kwargs = {}
        if task_timeout is not None:
            runner_kwargs["task_timeout"] = task_timeout
        if retries is not None:
            runner_kwargs["retries"] = retries
        runner = ShardRunner(jobs, **runner_kwargs)
        env = _BuildEnv(params=params, rng=rng, runner=runner, quiet=quiet)

        checkpoint = None
        checkpoint_stats = None
        completed = []
        state = None
        if checkpoint_dir:
            from repro.scenario.checkpoint import BuildCheckpoint

            checkpoint = BuildCheckpoint(checkpoint_dir, params)
            checkpoint_stats = checkpoint.stats
            loaded = checkpoint.load()
            if loaded is not None:
                completed, state = loaded
                env.say(
                    f"resuming from checkpoint ({len(completed)} phases done: "
                    f"{', '.join(completed)})"
                )
        resumed = bool(completed)
        if state is None:
            state = {
                "timings": {},
                # Fault decisions live on dedicated child streams
                # ("faults/...") so the clean (empty) profile leaves every
                # simulation stream — and therefore the world — byte-identical.
                "injector": FaultInjector(params.faults, rng.child("faults")),
            }
        timings = state["timings"]
        build_start = time.perf_counter()
        for name, phase_fn in _BUILD_PHASES:
            if name in completed:
                continue
            phase_start = time.perf_counter()
            phase_fn(env, state)
            timings[name] = timings.get(name, 0.0) + (time.perf_counter() - phase_start)
            completed.append(name)
            if checkpoint is not None:
                checkpoint.save(completed, state)
        if resumed:
            # Wall clock for this process would undercount the resumed
            # prefix; the per-phase sum is the honest total.
            timings["total"] = sum(v for k, v in timings.items() if k != "total")
        else:
            timings["total"] = time.perf_counter() - build_start
        if checkpoint is not None:
            checkpoint.clear()

        env.say("done")
        hosts, local, attacks = pack_population(
            state["hosts"], state["local"], state["attacks"], state["victims"]
        )
        return cls(
            params=params,
            registry=state["registry"],
            table=state["table"],
            pbl=state["pbl"],
            geo=state["geo"],
            hosts=hosts,
            victims=state["victims"],
            sweeps=state["sweeps"],
            attacks=attacks,
            onp=state["onp"],
            arbor=state["arbor"],
            darknet=state["darknet"],
            darknet_v6=state["darknet_v6"],
            isp=state["isp"],
            dns_pool=state["dns_pool"],
            local_amplifiers=local,
            build_timings=timings,
            shard_stats=summarize_shard_stats(runner.stats),
            fault_log=state["injector"].log,
            checkpoint_stats=checkpoint_stats,
        )


# -- build phases ----------------------------------------------------------------------
#
# The build is an ordered pipeline of named phases.  Each phase is a
# function of ``(env, state)``: ``env`` carries the ephemeral build
# apparatus (params, the master RNG, the shard runner, verbosity) and
# ``state`` is the accumulating — and picklable — world-under-
# construction that checkpoints persist between phases.  Every phase
# draws only from RNG child streams derived statelessly by name, so
# replaying the phase suffix after a resume is byte-identical to an
# uninterrupted build.


@dataclass
class _BuildEnv:
    """Ephemeral per-build apparatus handed to each phase."""

    params: WorldParams
    rng: object
    runner: object
    quiet: bool = True

    def say(self, message):
        if not self.quiet:
            print(f"[paper-world] {message}")


def _phase_registry(env, state):
    env.say(f"building registry ({env.params.resolved_n_ases()} ASes)")
    registry = ASRegistry(env.rng.child("asn"), n_ases=env.params.resolved_n_ases())
    state["registry"] = registry
    state["table"] = RoutedBlockTable(registry)
    state["pbl"] = PolicyBlockList(registry)
    state["geo"] = GeoView(state["table"])


def _phase_hosts(env, state):
    env.say("building host population")
    hosts = build_host_pool(
        env.rng.child("hosts"),
        state["registry"],
        state["pbl"],
        PoolParams(scale=env.params.scale),
        runner=env.runner,
    )
    state["local"] = _plant_local_amplifiers(
        env.rng.child("local-amps"), state["registry"], hosts
    )
    state["hosts"] = hosts


def _phase_victims(env, state):
    env.say("building victim population")
    state["victims"] = build_victim_pool(
        env.rng.child("victims"),
        state["registry"],
        state["pbl"],
        VictimParams(scale=env.params.scale),
    )


def _phase_scanners(env, state):
    env.say("generating scanner ecosystem")
    ecosystem = ScannerEcosystem(
        env.rng.child("scanners"),
        scale=env.params.scale,
        start=env.params.observation_start,
        end=env.params.observation_end,
    )
    state["sweeps"] = ecosystem.all_sweeps()
    state["scanner_scale"] = ecosystem.scanner_scale


def _phase_campaign(env, state):
    env.say("generating attack campaign")
    campaign = AttackCampaign(
        env.rng.child("campaign"),
        state["hosts"],
        state["victims"],
        CampaignParams(scale=env.params.scale),
    )
    attacks = campaign.generate(runner=env.runner)
    attacks.extend(
        _scripted_frgp_event(
            env.rng.child("frgp-event"), state["registry"], state["hosts"], state["victims"]
        )
    )
    attacks.sort(key=lambda a: a.start)
    state["attacks"] = attacks


def _phase_darknet(env, state):
    env.say("observing darknets")
    darknet = Ipv4Darknet(env.rng.child("telescope"), faults=state["injector"])
    darknet.observe_all(state["sweeps"])
    state["darknet"] = darknet.compact()
    darknet_v6 = Ipv6Darknet(env.rng.child("telescope-v6"))
    darknet_v6.simulate_window(env.params.observation_start, env.params.observation_end)
    state["darknet_v6"] = darknet_v6


def _phase_state(env, state):
    env.say("running ONP probe campaign")
    manager = AmplifierStateManager(env.rng.child("state"), RESEARCH_SCANNERS)
    manager.register_malicious_activity(state["sweeps"])
    # The whole campaign's legs as one columnar batch: per-host sync
    # windows are searchsorted slices, and the ~25 legs per attack exist
    # only as array rows (tens of millions of them at scale 1.0).
    manager.register_pulse_columns(PulseColumns.from_attacks(state["attacks"]))
    state["state"] = manager


def _phase_onp(env, state):
    prober = OnpProber(state["state"], faults=state["injector"])
    state["onp"] = prober.run_all(state["hosts"], env.rng.child("onp"), runner=env.runner)
    # The state manager is the sweep's apparatus, not a dataset: no reader
    # of a built world needs it, so neither the world nor a later
    # checkpoint carries it.
    del state["state"]


def _phase_arbor(env, state):
    env.say("collecting global traffic statistics")
    collector = ArborCollector(
        env.rng.child("arbor"), scale=env.params.scale, faults=state["injector"]
    )
    state["arbor"] = collector.collect(
        state["attacks"], date_to_sim(2013, 11, 1), env.params.observation_end
    )


def _phase_isp(env, state):
    env.say("measuring at regional ISPs")
    isp = IspMeasurement(state["registry"])
    isp.observe_attacks(state["attacks"])
    isp.observe_sweeps(state["sweeps"], scanner_scale=state["scanner_scale"])
    state["isp"] = isp.compact()


def _phase_dns(env, state):
    state["dns_pool"] = DnsResolverPool(env.rng.child("dns"), scale=env.params.scale)


#: The build pipeline, in execution order.  Checkpoints store the prefix
#: of completed phase names; renaming or reordering phases invalidates
#: outstanding checkpoints (see ``BuildCheckpoint._reject_reason``).
_BUILD_PHASES = (
    ("registry", _phase_registry),
    ("hosts", _phase_hosts),
    ("victims", _phase_victims),
    ("scanners", _phase_scanners),
    ("campaign", _phase_campaign),
    ("darknet", _phase_darknet),
    ("state", _phase_state),
    ("onp", _phase_onp),
    ("arbor", _phase_arbor),
    ("isp", _phase_isp),
    ("dns", _phase_dns),
)


# -- packed population -----------------------------------------------------------------


#: The :class:`AttackSpec` fields that point into the host and victim pools.
_ATTACK_LINKS = ("victim", "amplifiers", "amp_ips")


class AttackTable(FieldColumns):
    """Attacks as read-only columns, row ``i`` being attack ``i``.

    One array per scalar :class:`AttackSpec` field (see
    :class:`~repro.population.amplifiers.FieldColumns`); ``victim`` is
    each attack's index into the victim pool's ``victims``.  Attack
    ``i``'s legs are the host rows ``legs[leg_offsets[i]]`` to
    ``legs[leg_offsets[i + 1]]``, in its ``amplifiers`` order, so its
    ``amp_ips`` are those rows' ``ip``.
    """

    def __init__(self, attacks, host_rows, victims):
        super().__init__(attacks, [f for f in fields(AttackSpec) if f.name not in _ATTACK_LINKS])
        victim_rows = {id(victim): i for i, victim in enumerate(victims.victims)}
        self.victim = read_only(np.array([victim_rows[id(a.victim)] for a in attacks], np.int64))
        self.legs = _pool_indices(host_rows, [h for a in attacks for h in a.amplifiers])
        offsets = np.zeros(len(attacks) + 1, dtype=np.int64)
        np.cumsum([len(a.amplifiers) for a in attacks], out=offsets[1:])
        self.leg_offsets = read_only(offsets)

    def leg_attacks(self):
        """The attack row of every leg."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.leg_offsets))

    def unpack(self, hosts, victims):
        """The :class:`AttackSpec` list: legs are the objects of the host
        list ``hosts``, and victims ``victims``' own.  ``amp_ips`` is left
        for :meth:`AttackSpec.amplifier_ips` to fill in from the legs."""
        legs = list(map(hosts.__getitem__, self.legs.tolist()))
        bounds = self.leg_offsets.tolist()
        columns = {"amplifiers": [legs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]}
        columns["victim"] = list(map(victims.victims.__getitem__, self.victim.tolist()))
        names = [f.name for f in fields(AttackSpec) if f.name != "amp_ips"]
        rows = zip(*(columns[name] if name in columns else self.decoded(name) for name in names))
        return [AttackSpec(*row) for row in rows]


def pack_population(pool, local, attacks, victims):
    """The host pool and what points into it as columns: ``(hosts, local,
    attacks)``.

    ``hosts`` is the pool's :class:`~repro.population.amplifiers.HostTable`,
    ``local`` each site's planted amplifiers as host rows, and
    ``attacks`` an :class:`AttackTable`, or None for a build state saved
    before the campaign.  A finished world keeps this form.
    """
    host_rows = {id(host): i for i, host in enumerate(pool.hosts)}
    table = HostTable(pool.hosts, pool.params, pool.block_lengths)
    local = {name: _pool_indices(host_rows, site) for name, site in local.items()}
    if attacks is not None:
        attacks = AttackTable(attacks, host_rows, victims)
    return table, local, attacks


def unpack_population(hosts, local, attacks, victims):
    """``(pool, local, attacks)`` as objects from :func:`pack_population`'s
    columns: every planted amplifier and attack leg is the pool's own
    host, and every attack's victim the victim pool's own."""
    host_list = hosts.unpack()
    pool = HostPool(host_list, hosts.params, block_lengths=hosts.block_lengths)
    local = {name: list(map(host_list.__getitem__, rows.tolist())) for name, rows in local.items()}
    if attacks is not None:
        attacks = attacks.unpack(host_list, victims)
    return pool, local, attacks


def _pool_indices(host_rows, hosts):
    return read_only(np.array([host_rows[id(host)] for host in hosts], dtype=np.int64))


def _plant_local_amplifiers(rng, registry, hosts):
    """Install the §7 local amplifier deployments (absolute counts).

    Returns {site AS name: [NtpHost]}.  The hosts join the global pool, so
    booters pick them up like any other amplifier; the elite (primed,
    full-table) ones float to the top of reply-size-sorted attack lists,
    which is how a handful of local boxes end up serving thousands of
    victims (Table 5).
    """
    from repro.ntp.constants import IMPL_XNTPD

    planted = {}
    for as_name, (count, n_elite, style) in _LOCAL_AMPLIFIER_PLAN.items():
        system = registry.special[as_name]
        site_hosts = []
        attrs = sample_system_attributes(rng.child(f"attrs-{as_name}"), count, "amplifier")
        for i in range(count):
            ip = system.random_ip(rng)
            if style == "jan24":
                remediation = date_to_sim(2014, 1, 24)
            elif style == "tickets":
                remediation = date_to_sim(2014, 1, 20) + float(rng.uniform(0, 50 * DAY))
            else:  # slow: through February and beyond; some never
                remediation = (
                    None
                    if rng.random() < 0.15
                    else date_to_sim(2014, 2, 1) + float(rng.uniform(0, 70 * DAY))
                )
            elite = i < n_elite
            base_clients = 600 if elite else int(rng.bounded_pareto(0.42, 20.0, 600.0))
            restart = float(rng.lognormal_for_median(5 * DAY, 0.6))
            host = NtpHost(
                ip=ip,
                asn=system.asn,
                continent=system.continent,
                country=system.country,
                is_end_host=False,
                attrs=attrs[i],
                responds_version=True,
                monlist_amplifier=True,
                implementations=frozenset({IMPL_XNTPD}),
                base_clients=base_clients,
                primed_full=elite,
                restart_interval=restart,
                birth=0.0,
                remediation_time=remediation,
                cluster_id=-2,
            )
            host.clients = _local_clients(rng.child(f"clients-{as_name}-{i}"), base_clients)
            site_hosts.append(host)
        # Bulk-join the global pool: extend() grows the tail build block
        # and keeps the pool's block bounds and column memos consistent.
        hosts.extend(site_hosts)
        planted[as_name] = site_hosts
    return planted


def _local_clients(rng, n):
    """Background clients for a planted local amplifier."""
    import numpy as np

    if n <= 0:
        return BackgroundClients(
            ips=np.empty(0, dtype=np.int64),
            ports=np.empty(0, dtype=np.int64),
            intervals=np.empty(0, dtype=np.float64),
            first_polls=np.empty(0, dtype=np.float64),
            one_shot=np.empty(0, dtype=bool),
        )
    return BackgroundClients(
        ips=rng.integers(0x0B000000, 0xDF000000, size=n).astype(np.int64),
        ports=rng.integers(1024, 65535, size=n).astype(np.int64),
        intervals=np.clip(rng.lognormal_for_median(2048.0, 1.6, size=n), 64.0, 14 * DAY),
        first_polls=rng.uniform(0.0, 30 * DAY, size=n),
        one_shot=rng.bernoulli(0.3, size=n),
    )


def _scripted_frgp_event(rng, registry, hosts, victims):
    """§7.1's distinctive FRGP ingress spike: a reflection attack on a host
    inside FRGP on February 10th — just under 23 minutes at ~3 GB/s,
    totaling ~514 GB."""
    frgp = registry.special["FRGP-CO"]
    targets = [v for v in victims.victims if v.asn == frgp.asn]
    if not targets:
        return []
    victim = targets[0]
    start = date_to_sim(2014, 2, 10, 14, 37)
    duration = 22.8 * 60.0
    # ~3 gigaBYTES per second at full scale; scaled down so the event stays
    # proportionate to the world's traffic denominator (it remains the
    # dominant spike against FRGP's own series at any scale).
    scale_rel = min(1.0, len(hosts.monlist_hosts) / 1_405_000 * 6)
    target_bps = max(1.5e9, 3.0e9 * 8 * scale_rel)
    alive = [h for h in hosts.monlist_alive(start) if not h.is_mega]
    if not alive:
        return []
    n_amps = min(len(alive), 45)
    picks = rng.choice(len(alive), size=n_amps, replace=False)
    amps = [alive[int(k)] for k in picks]
    from repro.population.amplifiers import estimate_monlist_reply_bytes

    reply = sum(estimate_monlist_reply_bytes(h) for h in amps) / len(amps)
    rate = target_bps / 8.0 / n_amps / max(300.0, reply)
    return [
        AttackSpec(
            attack_id=10_000_000,
            victim=victim,
            port=123,
            start=start,
            duration=duration,
            mode=7,
            target_bps=target_bps,
            amplifiers=amps,
            query_rate_per_amp=min(20000.0, rate),
            spoofer_ttl=windows_observed_ttl(rng),
            booter_id=-1,
        )
    ]
