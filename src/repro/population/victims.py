"""The DDoS victim population (§4).

The paper's victimology: 437K unique victim IPs over fifteen weeks, spread
over 184 countries and up to ~6.7K ASes per weekly sample, with heavy
concentration — the top 100 victim ASes receive three quarters of all attack
packets, eight of the top ten are hosting providers, the single top AS is
the OVH-like French hosting firm, and about half of victims are end hosts
(many of them gamers, per the attacked-port mix).
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.net.asn import NetworkKind
from repro.population.ports import sample_attack_port
from repro.util.simtime import DAY, WEEK, date_to_sim

__all__ = ["Victim", "VictimPool", "VictimParams", "build_victim_pool"]


@dataclass(slots=True)
class Victim:
    """One attack target."""

    ip: int
    asn: int
    country: str
    continent: str
    is_end_host: bool
    gamer: bool
    ports: tuple
    appear_time: float
    active_until: float
    #: Heavy-tailed weight: how intensely attackers favor this target.
    popularity: float

    def active_at(self, t):
        return self.appear_time <= t <= self.active_until


@dataclass(frozen=True)
class VictimParams:
    """Scale and calibration knobs for the victim population."""

    scale: float = 0.01
    #: Ground-truth victim population; the ONP lens (weekly sampling, ~44 h
    #: view windows, 600-entry caps) observes roughly the paper's 437K.
    total_victims_full: int = 1_000_000
    #: Zipf exponent over AS rank; ~1.1 puts ~3/4 of weight in the top 100
    #: of a ~10K-AS victim population (Fig. 5).
    as_zipf_exponent: float = 1.1
    gamer_fraction: float = 0.45
    first_attacks: float = date_to_sim(2013, 12, 16)
    window_end: float = date_to_sim(2014, 5, 1)

    @property
    def n_victims(self):
        return max(30, int(self.total_victims_full * self.scale))


#: Relative arrival intensity of new victims (Table 1's victim counts rise
#: from 50K in January to ~170K in March then fall off in April).
_ARRIVAL_ANCHORS = [
    (date_to_sim(2013, 12, 16), 0.15),
    (date_to_sim(2014, 1, 10), 0.55),
    (date_to_sim(2014, 2, 7), 0.95),
    (date_to_sim(2014, 2, 21), 1.30),
    (date_to_sim(2014, 3, 14), 1.10),
    (date_to_sim(2014, 4, 4), 0.45),
    (date_to_sim(2014, 5, 1), 0.20),
]


class VictimPool:
    """The generated victim population with time-windowed sampling.

    Activity queries are index-driven: appearance/expiry times and
    popularities live in NumPy arrays built once at construction, so the
    per-attack ``sample_active`` call in the campaign generator is two
    vectorized comparisons plus one weighted draw rather than a Python
    scan of every victim.  Active lists preserve ``self.victims`` order,
    matching the naive per-victim scan draw-for-draw.
    """

    def __init__(self, victims, params):
        self.victims = victims
        self.params = params
        self._appear = np.array([v.appear_time for v in victims], dtype=np.float64)
        self._until = np.array([v.active_until for v in victims], dtype=np.float64)
        self._popularity = np.array([v.popularity for v in victims], dtype=np.float64)

    def __len__(self):
        return len(self.victims)

    def _active_indices(self, t):
        return np.flatnonzero((self._appear <= t) & (t <= self._until))

    def active_at(self, t):
        victims = self.victims
        return [victims[i] for i in self._active_indices(t)]

    def sample_active_indices(self, rng, t, size):
        """Sample active victims at ``t``, weighted by popularity, returning
        *global* victim indices.

        This is the process-transportable form of :meth:`sample_active`
        (the campaign's shard workers return victim indices, never victim
        objects): the RNG draw sequence is identical, so both entry
        points select the same victims from the same stream state.
        """
        active = self._active_indices(t)
        if len(active) == 0:
            return []
        weights = self._popularity[active]
        weights = weights / weights.sum()
        indices = rng.choice(len(active), size=min(size, len(active)), replace=True, p=weights)
        return [int(active[int(i)]) for i in indices]

    def sample_active(self, rng, t, size):
        """Sample active victims at ``t``, weighted by popularity."""
        victims = self.victims
        return [victims[i] for i in self.sample_active_indices(rng, t, size)]


def _victim_as_ranking(rng, registry):
    """Order ASes by attack-target attractiveness.

    The OVH-like hoster leads, the CloudFlare-like CDN lands around
    rank ~18, the remaining hosting ASes cluster at the front (eight of the
    paper's top ten victim ASes are hosting providers), and telecoms fill in
    the next tier (residential gamers live there too).
    """
    ovh = registry.special["HOSTING-FR-1"]
    cdn = registry.special["CDN-MITIGATION"]
    hosting = [s for s in registry.systems_of_kind(NetworkKind.HOSTING) if s.asn not in (ovh.asn, cdn.asn)]
    telecom = registry.systems_of_kind(NetworkKind.TELECOM)
    residential = registry.systems_of_kind(NetworkKind.RESIDENTIAL)
    other = registry.systems_of_kind(NetworkKind.ENTERPRISE) + registry.systems_of_kind(
        NetworkKind.EDUCATION
    )
    for group in (hosting, telecom, residential, other):
        rng.shuffle(group)
    front = hosting[:40]
    # Interleave a couple of telecoms into the top ten, place the CDN around
    # rank 18 as in the paper's ranking narrative, and slot the two regional
    # ISP vantage points (plus the university inside FRGP) high enough that
    # they host the §7-scale victim populations (Merit saw 13K victims —
    # roughly 3% of the global pool).
    merit = registry.special["REGIONAL-MI"]
    frgp = registry.special["FRGP-CO"]
    csu = registry.special["CSU-EDU"]
    ranked = [ovh] + front[:5] + telecom[:2] + [merit] + front[5:10] + [frgp]
    ranked += front[10:14] + [cdn] + front[14:30] + telecom[2:6] + [csu] + front[30:]
    ranked += telecom[6:] + residential + other + hosting[40:]
    seen = set()
    unique = []
    for system in ranked:
        if system.asn not in seen:
            seen.add(system.asn)
            unique.append(system)
    return unique


def _arrival_times(rng, n, params):
    """Victim appearance times following the calibrated intensity curve."""
    anchors = [(t, w) for t, w in _ARRIVAL_ANCHORS if params.first_attacks <= t <= params.window_end]
    if not anchors:
        anchors = [(params.first_attacks, 1.0), (params.window_end, 1.0)]
    times = np.array([t for t, _ in anchors])
    weights = np.array([w for _, w in anchors])
    # Piecewise-constant density over segments between anchors.
    seg_weights = (weights[:-1] + weights[1:]) / 2.0
    seg_spans = np.diff(times)
    seg_p = seg_weights * seg_spans
    seg_p = seg_p / seg_p.sum()
    segments = rng.choice(len(seg_p), size=n, p=seg_p)
    offsets = rng.uniform(0.0, 1.0, size=n)
    return times[segments] + offsets * seg_spans[segments]


def build_victim_pool(rng, registry, pbl, params=None):
    """Generate the victim population."""
    params = params or VictimParams()
    n = params.n_victims
    rank_rng = rng.child("as-ranking")
    place_rng = rng.child("placement")
    attr_rng = rng.child("attrs")

    ranked_ases = _victim_as_ranking(rank_rng, registry)
    as_ranks = attr_rng.zipf_ranks(len(ranked_ases), params.as_zipf_exponent, size=n)
    appear = _arrival_times(attr_rng, n, params)
    # Activity windows: most victims are attacked over days-to-weeks.
    durations = np.clip(attr_rng.lognormal_for_median(10 * DAY, 1.0, size=n), DAY, 10 * WEEK)
    gamer_flags = attr_rng.bernoulli(params.gamer_fraction, size=n)
    # Popularity: heavy tail so a few victims soak most packets (Fig. 6's
    # mean >> median).
    popularity = attr_rng.bounded_pareto(0.7, 1.0, 1e4, size=n)

    ovh_asn = registry.special["HOSTING-FR-1"].asn
    # The regional education networks host many victims (campus gamers,
    # small services) but not the high-value targets that soak the heavy
    # attacks, so their per-victim intensity is damped.
    edu_asns = {
        registry.special[name].asn for name in ("REGIONAL-MI", "FRGP-CO", "CSU-EDU")
    }
    residential = registry.systems_of_kind(NetworkKind.RESIDENTIAL)
    victims = []
    for i in range(n):
        system = ranked_ases[int(as_ranks[i])]
        gamer = bool(gamer_flags[i])
        # The OVH-like hoster is the subject of a long-running campaign
        # (§4.4): its victims draw disproportionate attacker attention.
        boost = 4.0 if system.asn == ovh_asn else 1.0
        if system.asn in edu_asns:
            boost = 0.3
        if gamer and residential and attr_rng.random() < 0.70:
            # Most gamer targets are home connections: place them in
            # residential (PBL-listed) space, which is what drives the
            # paper's ~31-50% end-host victim share.
            system = residential[int(place_rng.integers(0, len(residential)))]
            ip = system.random_ip(place_rng)
            is_end = pbl.is_end_host(ip)
        else:
            ip = system.random_ip(place_rng)
            is_end = pbl.is_end_host(ip)
        n_ports = 1 + int(attr_rng.random() < 0.35)
        ports = tuple(sample_attack_port(attr_rng, gamer=gamer) for _ in range(n_ports))
        victims.append(
            Victim(
                ip=ip,
                asn=system.asn,
                country=system.country,
                continent=system.continent,
                is_end_host=is_end,
                gamer=gamer,
                ports=ports,
                appear_time=float(appear[i]),
                active_until=float(appear[i] + durations[i]),
                popularity=float(popularity[i]) * boost,
            )
        )
    # Keep victims unique by IP (collisions are possible in small ASes).
    unique = {}
    for victim in victims:
        unique.setdefault(victim.ip, victim)
    return VictimPool(list(unique.values()), params)
