"""Attack campaign generation (the attacker ecosystem of §5.2).

The model separates three actor layers, as the paper does:

* **booters** — a small number of DDoS-for-hire services, each holding a
  scanned *amplifier list* that goes stale as remediation proceeds and is
  refreshed periodically.  Reusing one list across attacks produces the
  coordinated multi-amplifier attacks §7.2 observes (the same local
  amplifiers repeatedly used together).
* **bots** — spoofed-source query senders with Windows TTLs (§7.2's TTL
  forensics: attack traffic mode TTL ≈109 vs scanning ≈54).
* **attacks** — one victim, one UDP port, a start/duration, a target
  bandwidth, and a set of amplifier legs; the per-amplifier query rate is
  derived from the target bandwidth and each amplifier's reply size.

Attack intensity follows the paper's timeline: negligible in November,
ignition in mid-December (a week after scanning ramps), a peak on
February 10-12 driven by the CloudFlare/OVH event, and a decline through
April (Figures 1, 2, 7).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from repro.attack.scanner import windows_observed_ttl
from repro.util.simtime import DAY, HOUR, WEEK, date_to_sim, Timeline

__all__ = ["AttackSpec", "Booter", "CampaignParams", "AttackCampaign"]

#: Ground-truth attack starts per hour at full scale.
ATTACK_INTENSITY_FULL = Timeline(
    [
        (date_to_sim(2013, 11, 1), 1.0),
        (date_to_sim(2013, 12, 1), 4.0),
        (date_to_sim(2013, 12, 15), 15.0),
        (date_to_sim(2013, 12, 20), 120.0),
        (date_to_sim(2014, 1, 5), 250.0),
        (date_to_sim(2014, 1, 20), 400.0),
        (date_to_sim(2014, 2, 5), 700.0),
        (date_to_sim(2014, 2, 10), 2600.0),
        (date_to_sim(2014, 2, 12), 3200.0),
        (date_to_sim(2014, 2, 14), 1500.0),
        (date_to_sim(2014, 2, 24), 900.0),
        (date_to_sim(2014, 3, 15), 650.0),
        (date_to_sim(2014, 4, 10), 380.0),
        (date_to_sim(2014, 4, 30), 260.0),
    ]
)

#: Median attack duration (seconds): very short early, ~40 s from
#: mid-February (§4.3.4).
DURATION_MEDIAN = Timeline(
    [
        (date_to_sim(2013, 11, 1), 12.0),
        (date_to_sim(2014, 1, 10), 15.0),
        (date_to_sim(2014, 2, 14), 40.0),
        (date_to_sim(2014, 4, 30), 40.0),
    ]
)

#: Duration log-sigma: the early tail reaches ~6.5 hours at the 95th
#: percentile, declining to ~50 minutes by April.
DURATION_SIGMA = Timeline(
    [
        (date_to_sim(2013, 11, 1), 3.3),
        (date_to_sim(2014, 1, 10), 3.3),
        (date_to_sim(2014, 2, 14), 2.6),
        (date_to_sim(2014, 4, 30), 2.2),
    ]
)

#: Median amplifiers per attack: tens early, a handful late (§6.3: the
#: number of amplifiers per victim fell by an order of magnitude while each
#: remaining amplifier was worked harder).
AMPS_PER_ATTACK_MEDIAN = Timeline(
    [
        (date_to_sim(2013, 11, 1), 30.0),
        (date_to_sim(2014, 1, 24), 22.0),
        (date_to_sim(2014, 2, 21), 8.0),
        (date_to_sim(2014, 4, 30), 3.0),
    ]
)

#: The publicly-disclosed OVH/CloudFlare event window (§4.4).
OVH_EVENT_START = date_to_sim(2014, 2, 10)
OVH_EVENT_END = date_to_sim(2014, 2, 13)


@dataclass
class Booter:
    """A DDoS-for-hire service with a (staling) amplifier list.

    The list is an ``np.ndarray`` of indices into the pool's
    ``monlist_hosts`` (reply-size-sorted, best first) — index-based so a
    campaign shard can ship its picks back to the parent without
    pickling host objects.
    """

    booter_id: int
    popularity: float
    amplifier_list: object  # np.ndarray of monlist_hosts indices
    list_refreshed: float


@dataclass
class AttackSpec:
    """One attack: a victim, a window, and its amplifier legs."""

    attack_id: int
    victim: object  # population.victims.Victim
    port: int
    start: float
    duration: float
    mode: int
    target_bps: float
    amplifiers: list  # NtpHost legs participating
    query_rate_per_amp: float
    spoofer_ttl: int
    booter_id: int
    #: Amplifier IPs as an ``int64`` array aligned with ``amplifiers``.
    #: Filled by the campaign generator; ``None`` (e.g. hand-built specs,
    #: the scripted FRGP event) falls back to a per-host gather.
    amp_ips: object = field(default=None, repr=False, compare=False)

    @property
    def end(self):
        return self.start + self.duration

    def amplifier_ips(self):
        """``amp_ips``, materializing (and caching) it on first use."""
        if self.amp_ips is None:
            self.amp_ips = np.array([h.ip for h in self.amplifiers], dtype=np.int64)
        return self.amp_ips


@dataclass(frozen=True)
class CampaignParams:
    """Scale and calibration knobs for attack generation."""

    scale: float = 0.01
    start: float = date_to_sim(2013, 11, 1)
    end: float = date_to_sim(2014, 5, 1)
    n_booters: int = 24
    #: Booter amplifier lists hold this fraction of the alive pool.
    list_fraction: float = 0.15
    list_refresh_interval: float = WEEK
    #: Attack size mixture: mostly small booter hits, a few heavy ones.
    #: The small median is a couple of Mbps — enough to knock a home user
    #: offline, and the reason Figure 6's median victim receives only
    #: hundreds of packets while the mean is millions.
    small_median_bps: float = 3e6
    small_sigma: float = 2.0
    heavy_fraction: float = 0.02
    heavy_median_bps: float = 4e9
    heavy_sigma: float = 1.5
    #: Attackers provision roughly this much bandwidth per amplifier leg;
    #: big attacks therefore recruit hundreds-to-thousands of amplifiers
    #: (CloudFlare's 400 Gbps attack used ~4,500), which keeps per-record
    #: monlist counts in the realistic range.
    target_bps_per_amp: float = 8e6
    #: Per-amplifier spoofed-query rate ceiling (packets/second).
    max_query_rate: float = 20000.0
    #: Fraction of attacks using the mode-6 version vector late in the
    #: window (§3.3: 0.3% of victims by April).
    version_attack_fraction_late: float = 0.004
    ovh_event: bool = True

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("end must follow start")
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")


class AttackCampaign:
    """Generates the full, chronologically-sorted attack list.

    Generation is sharded by *week*: each week's attacks are a pure
    function of ``(master seed, week number)`` — the booter lists a week
    sees are regenerated from ``child(f"booters-w{w}")`` at the week's
    reference time, and its attack/TTL draws come from
    ``child(f"attacks-w{w}")``/``child(f"ttl-w{w}")``.  A
    :class:`~repro.util.ShardRunner` can therefore fan the weeks out
    over a fork pool and merge them in week order with byte-identical
    results at any job count; the serial path runs the same weeks in the
    same order.
    """

    def __init__(self, rng, host_pool, victim_pool, params=None):
        self._rng = rng
        self._hosts = host_pool
        self._victims = victim_pool
        self.params = params or CampaignParams()

    # -- internals -------------------------------------------------------------

    def _sample_list(self, rng, t):
        """A booter's amplifier list: a random slice of the alive pool,
        sorted best-amplifiers-first (attackers rank by observed reply
        size, which is why primed/full-table amplifiers get hammered).

        Returns indices into ``monlist_hosts``; ranking/rate-sizing uses
        the table-only reply estimate (attackers' list-building scans
        record reply sizes, not loop pathologies), vectorized over the
        pool's :class:`~repro.population.columns.MonlistColumns`.
        """
        cols = self._hosts.monlist_columns()
        alive = np.flatnonzero(cols.alive_mask(t))
        if len(alive) == 0:
            return alive
        size = max(3, min(len(alive), int(len(alive) * self.params.list_fraction)))
        picks = rng.choice(len(alive), size=size, replace=False)
        chosen = alive[np.asarray(picks, dtype=np.int64)]
        order = np.argsort(-cols.reply_once[chosen], kind="stable")
        return chosen[order]

    def _booters_for_week(self, week, popularity):
        """The booter roster as week ``week`` sees it: fixed identities
        and popularity, lists re-scanned at the week's start (the weekly
        refresh cadence of a staling amplifier list)."""
        t_ref = self.params.start + week * WEEK
        week_rng = self._rng.child(f"booters-w{week}")
        booters = []
        for i in range(self.params.n_booters):
            booters.append(
                Booter(
                    booter_id=i,
                    popularity=popularity[i],
                    amplifier_list=self._sample_list(week_rng, t_ref),
                    list_refreshed=t_ref,
                )
            )
        return booters

    def _pick_amplifiers(self, rng, booter, n_amps):
        """Sample ``n_amps`` from a booter list with a strong elite bias:
        most legs come from the top of the (reply-size-sorted) list."""
        amp_list = booter.amplifier_list
        n_amps = min(n_amps, len(amp_list))
        elite = max(5, len(amp_list) // 50)
        picked = {}
        for _ in range(n_amps):
            if rng.random() < 0.6:
                index = int(rng.integers(0, min(elite, len(amp_list))))
            else:
                index = int(rng.integers(0, len(amp_list)))
            picked[index] = int(amp_list[index])
        return np.fromiter(picked.values(), dtype=np.int64, count=len(picked))

    def _sample_size_bps(self, rng, t):
        p = self.params
        heavy_frac = p.heavy_fraction
        if p.ovh_event and OVH_EVENT_START <= t <= OVH_EVENT_END:
            heavy_frac = min(0.5, heavy_frac * 4)
        # Cap the rare monster draws at a few percent of the scaled traffic
        # denominator: at small scales a single absolutely-sized 100+ Gbps
        # attack would dominate the world's whole NTP traffic curve (at
        # full scale the cap is far above any draw).  The floor keeps the
        # >20 Gbps "Large" bin of Figure 2 populated at every scale.
        size_cap = max(25e9, min(400e9, 0.02 * 71.5e12 * p.scale))
        if rng.random() < heavy_frac:
            return min(size_cap, float(rng.lognormal_for_median(p.heavy_median_bps, p.heavy_sigma)))
        return min(size_cap, float(rng.lognormal_for_median(p.small_median_bps, p.small_sigma)))

    def _sample_duration(self, rng, t):
        median = DURATION_MEDIAN(t)
        sigma = DURATION_SIGMA(t)
        return float(min(24 * HOUR, max(5.0, rng.lognormal_for_median(median, sigma))))

    # -- generation -------------------------------------------------------------

    def generate(self, runner=None):
        """All attacks in the window, sorted by start time.

        ``runner`` (a :class:`repro.util.ShardRunner`) distributes the
        week shards; without one they run serially with identical draws.
        Attack ids are renumbered sequentially in (week, order) —
        generation — order in the parent, so they never depend on shard
        completion order.
        """
        p = self.params
        n_weeks = max(1, math.ceil((p.end - p.start) / WEEK))
        pop_rng = self._rng.child("booter-pop")
        popularity = tuple(
            float(pop_rng.bounded_pareto(1.0, 1.0, 50.0)) for _ in range(p.n_booters)
        )
        total_w = sum(popularity)
        booter_p = tuple(w / total_w for w in popularity)
        # Warm the shared column cache before any fork so workers inherit
        # it copy-on-write instead of each rebuilding it.
        cols = self._hosts.monlist_columns()
        if runner is None:
            from repro.util.pool import ShardRunner

            runner = ShardRunner(1)
        ctx = (self, popularity, booter_p)
        week_rows = runner.map("campaign", _campaign_week_worker, ctx, n_weeks)

        mon_hosts = self._hosts.monlist_hosts
        victims = self._victims.victims
        attacks = []
        attack_id = 0
        for rows in week_rows:
            for (vi, port, start, duration, mode, size_bps, live, rate, ttl, bid) in rows:
                attacks.append(
                    AttackSpec(
                        attack_id=attack_id,
                        victim=victims[vi],
                        port=port,
                        start=start,
                        duration=duration,
                        mode=mode,
                        target_bps=size_bps,
                        amplifiers=[mon_hosts[int(k)] for k in live],
                        query_rate_per_amp=rate,
                        spoofer_ttl=ttl,
                        booter_id=bid,
                        amp_ips=cols.ip[live],
                    )
                )
                attack_id += 1
        if p.ovh_event:
            # The scripted event layer runs in the parent: it needs the
            # end-of-campaign booter rosters (the last weekly refresh).
            ovh_rng = self._rng.child("ovh-attacks")
            ovh_ttl = self._rng.child("ovh-ttl")
            booters = self._booters_for_week(n_weeks - 1, popularity)
            attacks.extend(self._ovh_event_attacks(ovh_rng, ovh_ttl, booters, attack_id))
        attacks.sort(key=lambda a: a.start)
        return attacks

    def _ovh_event_attacks(self, rng, ttl_rng, booters, next_id):
        """The record-setting February 10-12 campaign against the OVH-like
        hoster: long, heavy, many-amplifier attacks on its victims."""
        ovh_victims = [
            v
            for v in self._victims.victims
            if v.active_at(OVH_EVENT_START + DAY) or v.active_at(OVH_EVENT_START)
        ]
        # Targets inside the top (OVH-like) AS.
        top_asn = None
        from collections import Counter

        counts = Counter(v.asn for v in self._victims.victims)
        if counts:
            top_asn = counts.most_common(1)[0][0]
        targets = [v for v in ovh_victims if v.asn == top_asn]
        if not targets:
            return []
        n_event = max(3, int(rng.poisson(150 * self.params.scale)))
        # Individual event attacks are huge (the headline attack peaked near
        # 400 Gbps), but a handful of absolutely-sized monsters would swamp
        # a small world's scaled traffic denominator, so sizes are capped at
        # a few percent of the scaled global total.  At full scale the cap
        # is inactive.
        size_cap = max(25e9, min(400e9, 0.02 * 71.5e12 * self.params.scale))
        out = []
        lists = [b for b in booters if len(b.amplifier_list)]
        if not lists:
            return []
        cols = self._hosts.monlist_columns()
        mon_hosts = self._hosts.monlist_hosts
        for i in range(n_event):
            victim = targets[int(rng.integers(0, len(targets)))]
            booter = lists[int(rng.integers(0, len(lists)))]
            start = OVH_EVENT_START + float(rng.uniform(0, OVH_EVENT_END - OVH_EVENT_START))
            duration = float(min(24 * HOUR, rng.lognormal_for_median(HOUR, 0.9)))
            amp_list = booter.amplifier_list
            live = amp_list[
                (cols.birth[amp_list] <= start) & (start < cols.monlist_end[amp_list])
            ]
            if len(live) == 0:
                continue
            n_amps = min(len(live), max(10, int(rng.lognormal_for_median(60, 0.6))))
            picks = rng.choice(len(live), size=n_amps, replace=False)
            amps = live[np.asarray(picks, dtype=np.int64)]
            size_bps = min(size_cap, float(rng.lognormal_for_median(15e9, 0.9)))
            reply = int(cols.reply_once[amps].sum()) / len(amps)
            rate = size_bps / 8.0 / len(amps) / max(300.0, reply)
            out.append(
                AttackSpec(
                    attack_id=next_id + i,
                    victim=victim,
                    port=victim.ports[0],
                    start=start,
                    duration=duration,
                    mode=7,
                    target_bps=size_bps,
                    amplifiers=[mon_hosts[int(k)] for k in amps],
                    query_rate_per_amp=float(min(self.params.max_query_rate, max(1.0, rate))),
                    spoofer_ttl=windows_observed_ttl(ttl_rng),
                    booter_id=booter.booter_id,
                    amp_ips=cols.ip[amps],
                )
            )
        return out


def _campaign_week_worker(ctx, week):
    """Generate one week of attacks as index-based transport rows.

    Each row is ``(victim_index, port, start, duration, mode,
    target_bps, live_amp_indices, rate, ttl, booter_id)`` — small enough
    to pickle back from a fork worker; the parent materializes
    :class:`AttackSpec` objects.  The per-attack draw sequence inside a
    week mirrors the original day-loop generator exactly.
    """
    campaign, popularity, booter_p = ctx
    p = campaign.params
    booters = campaign._booters_for_week(week, popularity)
    wrng = campaign._rng.child(f"attacks-w{week}")
    ttl_rng = campaign._rng.child(f"ttl-w{week}")
    cols = campaign._hosts.monlist_columns()
    victims = campaign._victims.victims

    rows = []
    day = p.start + week * WEEK
    week_end = min(day + WEEK, p.end)
    while day < week_end:
        day_end = min(day + DAY, week_end)
        expected = ATTACK_INTENSITY_FULL((day + day_end) / 2) * 24 * p.scale
        n_attacks = int(wrng.poisson(expected))
        starts = wrng.uniform(day, day_end, size=n_attacks) if n_attacks else []
        for start in sorted(starts):
            victim_choices = campaign._victims.sample_active_indices(wrng, start, 1)
            if not victim_choices:
                continue
            vi = victim_choices[0]
            victim = victims[vi]
            booter = booters[int(wrng.choice(len(booters), p=booter_p))]
            if len(booter.amplifier_list) == 0:
                continue
            duration = campaign._sample_duration(wrng, start)
            size_bps = campaign._sample_size_bps(wrng, start)
            n_amps = max(1, int(wrng.lognormal_for_median(AMPS_PER_ATTACK_MEDIAN(start), 0.9)))
            # Big attacks recruit enough amplifiers to reach the target
            # bandwidth at sane per-amplifier rates.
            n_amps = max(n_amps, int(size_bps / p.target_bps_per_amp))
            amps = campaign._pick_amplifiers(wrng, booter, n_amps)
            # Stale entries that remediated since the list was built
            # silently stop amplifying; attackers don't notice per-hit.
            live = amps[(cols.birth[amps] <= start) & (start < cols.monlist_end[amps])]
            if len(live) == 0:
                continue
            version_p = (
                p.version_attack_fraction_late
                if start >= date_to_sim(2014, 2, 15)
                else p.version_attack_fraction_late / 4
            )
            mode = 6 if wrng.random() < version_p else 7
            reply = int(cols.reply_once[live].sum()) / len(live)
            rate = size_bps / 8.0 / max(1, len(live)) / max(300.0, reply)
            rate = float(min(p.max_query_rate, max(0.5, rate)))
            port = victim.ports[int(wrng.integers(0, len(victim.ports)))]
            rows.append(
                (
                    vi,
                    port,
                    float(start),
                    duration,
                    mode,
                    size_bps,
                    live,
                    rate,
                    windows_observed_ttl(ttl_rng),
                    booter.booter_id,
                )
            )
        day = day_end
    return rows
