"""Regional-ISP vantage points (§7: Merit and FRGP/CSU).

Each site owns a slice of address space and exports flow-level views:

* hourly NTP volume series, split by direction and port role (Figures
  11/12): ``ntp_out`` (sport=123 leaving the site — local amplifier
  replies), ``ntp_in_reflected`` (sport=123 entering — attacks on local
  victims), and ``ntp_in_queries`` (dport=123 entering — spoofed/monitor
  queries toward local amplifiers);
* per-amplifier forensics over the site's analysis window (Table 5: BAF,
  unique victims, GB sent);
* per-victim forensics (Table 6 and Figures 13/15): volume, amplifier
  count, duration, and hourly series;
* detected scanners per day (Figure 16);
* background traffic by protocol for the all-protocols view (Figure 14).
"""

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.measurement.capture_store import inline_array, maybe_spill_array
from repro.net.framing import MIN_ONWIRE_FRAME
from repro.population.amplifiers import estimate_monlist_reply_bytes
from repro.util.simtime import DAY, HOUR, date_to_sim

__all__ = ["SiteSpec", "SiteDataset", "IspMeasurement", "MERIT_WINDOW", "CSU_FRGP_WINDOW"]

#: Forensic analysis windows (§7.2): 12 days at Merit from Jan 25; 19 days
#: at CSU/FRGP from Jan 18.
MERIT_WINDOW = (date_to_sim(2014, 1, 25), date_to_sim(2014, 2, 6))
CSU_FRGP_WINDOW = (date_to_sim(2014, 1, 18), date_to_sim(2014, 2, 6))

#: Background traffic mix at a regional education ISP (Figure 14's bands).
_PROTOCOL_MIX = {"http": 0.46, "https": 0.13, "dns": 0.012}

#: A site flags a source as a scanner when it touches at least this many
#: local addresses in a day.
SCANNER_DETECTION_TARGETS = 250


@dataclass(frozen=True)
class SiteSpec:
    """One vantage point: a name, its ASNs, and its prefixes."""

    name: str
    asns: frozenset
    prefixes: tuple
    base_traffic_bps: float = 20e9

    @property
    def n_addresses(self):
        return sum(p.n_addresses for p in self.prefixes)


@dataclass
class AmplifierForensics:
    """Per-amplifier accounting over the site's forensic window."""

    ip: int
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    victims: set = field(default_factory=set)

    @property
    def baf(self):
        """§7's BAF definition: ratio of bytes sent to bytes received."""
        if self.bytes_received == 0:
            return 0.0
        return self.bytes_sent / self.bytes_received

    @property
    def gb_sent(self):
        return self.bytes_sent / 1e9

    def qualifies(self):
        """§7's amplifier threshold: >= 10 MB sent and send/recv ratio > 5."""
        return self.bytes_sent >= 10e6 and self.baf > 5


@dataclass
class VictimForensics:
    """Per-victim accounting over the site's forensic window."""

    ip: int
    asn: int
    country: str
    bytes_received: float = 0.0
    bytes_sent_back: float = 0.0
    amplifiers: set = field(default_factory=set)
    first_seen: float = float("inf")
    last_seen: float = 0.0

    @property
    def gb(self):
        return self.bytes_received / 1e9

    @property
    def duration_hours(self):
        if self.last_seen <= self.first_seen:
            return 0.0
        return (self.last_seen - self.first_seen) / HOUR

    @property
    def baf(self):
        """Victim-side BAF: received over (query-direction) sent."""
        if self.bytes_sent_back == 0:
            return 0.0
        return self.bytes_received / self.bytes_sent_back

    def qualifies(self):
        """§7's victim threshold: >= 100 KB from an amplifier at ratio >= 100."""
        return self.bytes_received >= 100e3 and (
            self.bytes_sent_back == 0 or self.baf >= 100
        )


class SiteDataset:
    """Everything one vantage point measured."""

    def __init__(self, spec, start, end, window):
        self.spec = spec
        self.start = start
        self.end = end
        self.window = window
        n_hours = int((end - start) // HOUR) + 1
        self.ntp_out = np.zeros(n_hours)  # bytes per hour, sport=123 egress
        self.ntp_in_reflected = np.zeros(n_hours)  # sport=123 ingress (to victims)
        self.ntp_in_queries = np.zeros(n_hours)  # dport=123 ingress
        self.amplifier_forensics = {}
        self.victim_forensics = {}
        self.victim_hourly = defaultdict(float)  # (victim_ip, hour) -> bytes
        self.scanners_by_day = defaultdict(set)
        #: Compacted forms of the two dict accumulators above (see
        #: compact()): (ips, hours, bytes) arrays and (day, ip) pairs.
        self._victim_cols = None
        self._scanner_pairs = None
        self._background = None

    # -- helpers -------------------------------------------------------------------

    def _hour(self, t):
        return int((t - self.start) // HOUR)

    def _in_series(self, t):
        return self.start <= t < self.end

    def _spread(self, array, start, duration, total_bytes, victim_key=None):
        """Spread ``total_bytes`` across hourly bins over [start, start+dur)."""
        if duration <= 0:
            duration = 1.0
        rate = total_bytes / duration
        t = max(start, self.start)
        end = min(start + duration, self.end)
        while t < end:
            h = self._hour(t)
            bin_end = self.start + (h + 1) * HOUR
            span = min(end, bin_end) - t
            array[h] += rate * span
            if victim_key is not None:
                self.victim_hourly[(victim_key, h)] += rate * span
            t += span

    # -- compaction ----------------------------------------------------------------

    def compact(self):
        """Freeze the dict accumulators into flat arrays, spilled to
        unlinked memmaps past ``REPRO_SPILL_MB``.

        ``victim_hourly`` becomes three parallel (ip, hour, bytes) columns
        and ``scanners_by_day`` a (day, ip)-sorted pair array.  Later
        observations still work (they land in the emptied dict overlays
        and merge additively on the next compact), and every figure read
        below folds both layers, so outputs are unchanged.  Returns
        ``self`` so it chains.
        """
        items = self.victim_hourly
        ips = np.fromiter((k[0] for k in items), dtype=np.int64, count=len(items))
        hours = np.fromiter((k[1] for k in items), dtype=np.int64, count=len(items))
        volumes = np.fromiter(items.values(), dtype=np.float64, count=len(items))
        if self._victim_cols is not None:
            ips = np.concatenate([np.asarray(self._victim_cols[0]), ips])
            hours = np.concatenate([np.asarray(self._victim_cols[1]), hours])
            volumes = np.concatenate([np.asarray(self._victim_cols[2]), volumes])
        order = np.lexsort((hours, ips))
        ips, hours, volumes = ips[order], hours[order], volumes[order]
        if len(ips):
            first = np.ones(len(ips), dtype=bool)
            first[1:] = (ips[1:] != ips[:-1]) | (hours[1:] != hours[:-1])
            starts = np.flatnonzero(first)
            volumes = np.add.reduceat(volumes, starts)
            ips, hours = ips[starts], hours[starts]
        self._victim_cols = (
            maybe_spill_array(np.ascontiguousarray(ips)),
            maybe_spill_array(np.ascontiguousarray(hours)),
            maybe_spill_array(np.ascontiguousarray(volumes)),
        )
        self.victim_hourly = defaultdict(float)

        parts = []
        if self._scanner_pairs is not None and len(self._scanner_pairs):
            parts.append(np.asarray(self._scanner_pairs))
        for day, day_ips in self.scanners_by_day.items():
            pair = np.empty((len(day_ips), 2), dtype=np.int64)
            pair[:, 0] = day
            pair[:, 1] = np.fromiter(day_ips, dtype=np.int64, count=len(day_ips))
            parts.append(pair)
        if parts:
            pairs = np.concatenate(parts)
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs = pairs[order]
            keep = np.ones(len(pairs), dtype=bool)
            keep[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
            pairs = np.ascontiguousarray(pairs[keep])
        else:
            pairs = np.empty((0, 2), dtype=np.int64)
        self._scanner_pairs = maybe_spill_array(pairs)
        self.scanners_by_day = defaultdict(set)
        return self

    def scanner_days(self):
        """Every day index with at least one detected scanner."""
        days = {int(d) for d in self.scanners_by_day}
        if self._scanner_pairs is not None and len(self._scanner_pairs):
            days.update(np.unique(self._scanner_pairs[:, 0]).tolist())
        return days

    def scanners_on(self, day):
        """The set of scanner IPs detected on one day (both layers)."""
        ips = set(self.scanners_by_day.get(day, ()))
        pairs = self._scanner_pairs
        if pairs is not None and len(pairs):
            days = pairs[:, 0]
            lo = np.searchsorted(days, day, side="left")
            hi = np.searchsorted(days, day, side="right")
            ips.update(pairs[lo:hi, 1].tolist())
        return ips

    # -- views ---------------------------------------------------------------------

    def hourly_mbps(self, array):
        """Convert a bytes-per-hour series to MB/s (the paper's axes)."""
        return array / HOUR / 1e6

    def qualified_amplifiers(self):
        return {ip: a for ip, a in self.amplifier_forensics.items() if a.qualifies()}

    def qualified_victims(self):
        return {ip: v for ip, v in self.victim_forensics.items() if v.qualifies()}

    def top_amplifiers(self, n=5):
        pool = sorted(
            self.qualified_amplifiers().values(), key=lambda a: a.baf, reverse=True
        )
        return pool[:n]

    def top_victims(self, n=5):
        pool = sorted(self.qualified_victims().values(), key=lambda v: v.gb, reverse=True)
        return pool[:n]

    def victim_series_mbps(self, victim_ip):
        """Hourly MB/s destined to one victim (Figure 13/15)."""
        n_hours = len(self.ntp_out)
        series = np.zeros(n_hours)
        if self._victim_cols is not None:
            ips, hours, volumes = self._victim_cols
            mask = ips == victim_ip
            hour_hits = hours[mask]
            in_range = (hour_hits >= 0) & (hour_hits < n_hours)
            series[hour_hits[in_range]] += volumes[mask][in_range]
        for (ip, hour), volume in self.victim_hourly.items():
            if ip == victim_ip and 0 <= hour < n_hours:
                series[hour] += volume
        return series / HOUR / 1e6

    def background_series(self, rng):
        """{protocol: hourly bytes} for the all-protocols view (Fig. 14)."""
        if self._background is not None:
            return self._background
        n_hours = len(self.ntp_out)
        hours = np.arange(n_hours)
        # Diurnal swing around the site's base rate.
        diurnal = 1.0 + 0.25 * np.sin(2 * np.pi * ((hours % 24) - 15) / 24.0)
        noise = 1.0 + 0.05 * rng.normal(size=n_hours)
        total = self.spec.base_traffic_bps / 8.0 * HOUR * diurnal * noise
        series = {}
        accounted = np.zeros(n_hours)
        for protocol, share in _PROTOCOL_MIX.items():
            series[protocol] = total * share
            accounted += series[protocol]
        series["other"] = np.clip(total - accounted, 0.0, None)
        self._background = series
        return series

    # -- pickling ------------------------------------------------------------------
    # Cached worlds must be self-contained: memmap-backed compact arrays
    # are re-inlined so the pickle never references an unlinked temp file.

    def __getstate__(self):
        state = self.__dict__.copy()
        if state.get("_victim_cols") is not None:
            state["_victim_cols"] = tuple(inline_array(a) for a in state["_victim_cols"])
        if state.get("_scanner_pairs") is not None:
            state["_scanner_pairs"] = inline_array(state["_scanner_pairs"])
        return state


class IspMeasurement:
    """Builds the per-site datasets from the simulated world."""

    def __init__(self, registry, start=None, end=None):
        self._registry = registry
        start = date_to_sim(2013, 12, 1) if start is None else start
        end = date_to_sim(2014, 3, 1) if end is None else end
        merit = registry.special["REGIONAL-MI"]
        frgp = registry.special["FRGP-CO"]
        csu = registry.special["CSU-EDU"]
        self.sites = {
            "merit": SiteDataset(
                SiteSpec(
                    name="merit",
                    asns=frozenset({merit.asn}),
                    prefixes=tuple(merit.prefixes),
                    base_traffic_bps=20e9,
                ),
                start,
                end,
                MERIT_WINDOW,
            ),
            "frgp": SiteDataset(
                SiteSpec(
                    name="frgp",
                    asns=frozenset({frgp.asn, csu.asn}),
                    prefixes=tuple(frgp.prefixes) + tuple(csu.prefixes),
                    base_traffic_bps=8e9,
                ),
                start,
                end,
                CSU_FRGP_WINDOW,
            ),
            "csu": SiteDataset(
                SiteSpec(
                    name="csu",
                    asns=frozenset({csu.asn}),
                    prefixes=tuple(csu.prefixes),
                    base_traffic_bps=4e9,
                ),
                start,
                end,
                CSU_FRGP_WINDOW,
            ),
        }

    # -- attack observation ----------------------------------------------------------

    #: A single amplifier's sustained uplink: ~200 Mbps.  Loop-pathology
    #: boxes cannot reflect faster than they can transmit (§3.4 observed
    #: steady ~50 Mbps streams with spikes to ~500 Mbps).
    AMPLIFIER_UPLINK_BPS = 200e6

    def observe_attacks(self, attacks):
        """Fold every attack's local legs into the site datasets."""
        for attack in attacks:
            queries = attack.query_rate_per_amp * attack.duration
            for host in attack.amplifiers:
                uplink_cap = self.AMPLIFIER_UPLINK_BPS / 8.0 * attack.duration
                reply_bytes = min(
                    estimate_monlist_reply_bytes(host) * queries, uplink_cap
                )
                query_bytes = queries * MIN_ONWIRE_FRAME
                self._observe_leg(attack, host, reply_bytes, query_bytes)

    def _observe_leg(self, attack, host, reply_bytes, query_bytes):
        for site in self.sites.values():
            amp_local = host.asn in site.spec.asns
            victim_local = attack.victim.asn in site.spec.asns
            if not amp_local and not victim_local:
                continue
            in_window = site.window[0] <= attack.start < site.window[1]
            if amp_local and site._in_series(attack.start):
                # Egress toward the victim: this is also the per-victim
                # series Figure 13 plots (top victims *of the site's
                # amplifiers*).
                site._spread(
                    site.ntp_out,
                    attack.start,
                    attack.duration,
                    reply_bytes,
                    victim_key=attack.victim.ip,
                )
                site._spread(site.ntp_in_queries, attack.start, attack.duration, query_bytes)
            if victim_local and site._in_series(attack.start):
                site._spread(
                    site.ntp_in_reflected,
                    attack.start,
                    attack.duration,
                    reply_bytes,
                    victim_key=attack.victim.ip,
                )
            if amp_local and in_window:
                forensics = site.amplifier_forensics.setdefault(
                    host.ip, AmplifierForensics(ip=host.ip)
                )
                forensics.bytes_sent += reply_bytes
                forensics.bytes_received += query_bytes
                forensics.victims.add(attack.victim.ip)
            if amp_local and in_window:
                victim = attack.victim
                record = site.victim_forensics.setdefault(
                    victim.ip,
                    VictimForensics(ip=victim.ip, asn=victim.asn, country=victim.country),
                )
                record.bytes_received += reply_bytes
                record.bytes_sent_back += query_bytes
                record.amplifiers.add(host.ip)
                record.first_seen = min(record.first_seen, attack.start)
                record.last_seen = max(record.last_seen, attack.end)

    # -- probe / scan observation ------------------------------------------------------

    def observe_sweeps(self, sweeps, scanner_scale=1.0):
        """Scanner detection per site (Figure 16's common-scanner view).

        ``scanner_scale``: when the malicious scanner *count* is thinned,
        each remaining scanner carries proportionally more coverage; the
        detection threshold is de-scaled so per-scanner detectability
        matches the full-scale ecosystem.
        """
        threshold = SCANNER_DETECTION_TARGETS / max(scanner_scale, 1e-9)
        for sweep in sweeps:
            for site in self.sites.values():
                expected_targets = sweep.coverage * site.spec.n_addresses
                if sweep.kind != "research" and expected_targets < threshold:
                    continue
                if sweep.kind == "research" and expected_targets < SCANNER_DETECTION_TARGETS:
                    continue
                day = int(sweep.t // DAY)
                site.scanners_by_day[day].add(sweep.scanner_ip)
                if site._in_series(sweep.t):
                    site._spread(
                        site.ntp_in_queries,
                        sweep.t,
                        sweep.duration,
                        expected_targets * MIN_ONWIRE_FRAME,
                    )

    # -- cross-site views -----------------------------------------------------------------

    def common_victims(self, a="merit", b="frgp"):
        """Victim IPs observed at both sites (the paper found 291)."""
        return set(self.sites[a].victim_forensics) & set(self.sites[b].victim_forensics)

    def common_scanners(self, a="merit", b="csu"):
        """{day: scanner IPs detected at both sites that day}."""
        out = {}
        site_a, site_b = self.sites[a], self.sites[b]
        days = site_a.scanner_days() | site_b.scanner_days()
        for day in sorted(days):
            both = site_a.scanners_on(day) & site_b.scanners_on(day)
            if both:
                out[day] = both
        return out

    def compact(self):
        """Compact every site's dict accumulators (see
        :meth:`SiteDataset.compact`); returns ``self`` so it chains."""
        for site in self.sites.values():
            site.compact()
        return self
