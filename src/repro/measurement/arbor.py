"""The global traffic/attack analytics collector (§2's Arbor dataset).

Models a mitigation vendor's view of between a third and half of Internet
traffic (71.5 Tbps daily average in the paper's window):

* **daily traffic** — total, NTP, and DNS bits per second.  NTP traffic is
  integrated from the simulated attack campaign (victim-direction bytes plus
  the spoofed query direction) on top of a small benign-NTP baseline; DNS
  hovers around 0.15% of traffic throughout (Figure 1).
* **monthly labeled attacks** — the collector's proprietary-style attack
  labeling: an attack is counted when its bandwidth clears the collector's
  visibility threshold.  Non-NTP attacks (SYN floods, DNS reflection, ...)
  are synthesized at the paper's reported base rate (~300K/month, ~90%
  small / 10% medium / 1% large); NTP attacks come from the simulated
  campaign (Figure 2).
"""

from collections import defaultdict
from dataclasses import dataclass, field

from repro.util.simtime import DAY, day_index, month_key

__all__ = [
    "SIZE_SMALL",
    "SIZE_MEDIUM",
    "SIZE_LARGE",
    "size_bin",
    "DailyTraffic",
    "MonthlyAttackStats",
    "ArborDataset",
    "ArborCollector",
]

SIZE_SMALL = "small"  # < 2 Gbps
SIZE_MEDIUM = "medium"  # 2 - 20 Gbps
SIZE_LARGE = "large"  # > 20 Gbps


def size_bin(bps):
    """Figure 2's attack size bins."""
    if bps < 2e9:
        return SIZE_SMALL
    if bps <= 20e9:
        return SIZE_MEDIUM
    return SIZE_LARGE


@dataclass(frozen=True)
class DailyTraffic:
    """One day's traffic averages, in bits per second."""

    day: int  # day index since the sim epoch
    total_bps: float
    ntp_bps: float
    dns_bps: float

    @property
    def ntp_fraction(self):
        return self.ntp_bps / self.total_bps

    @property
    def dns_fraction(self):
        return self.dns_bps / self.total_bps


@dataclass
class MonthlyAttackStats:
    """Labeled attack counts for one month, split vector x size bin."""

    month: str
    ntp: dict = field(default_factory=lambda: {SIZE_SMALL: 0, SIZE_MEDIUM: 0, SIZE_LARGE: 0})
    other: dict = field(default_factory=lambda: {SIZE_SMALL: 0, SIZE_MEDIUM: 0, SIZE_LARGE: 0})

    def ntp_fraction(self, bin_name=None):
        """Fraction of attacks that are NTP, overall or within one bin."""
        if bin_name is None:
            ntp = sum(self.ntp.values())
            total = ntp + sum(self.other.values())
        else:
            ntp = self.ntp[bin_name]
            total = ntp + self.other[bin_name]
        if total == 0:
            return 0.0
        return ntp / total

    @property
    def total_attacks(self):
        return sum(self.ntp.values()) + sum(self.other.values())


@dataclass
class ArborDataset:
    daily: list = field(default_factory=list)
    monthly_attacks: dict = field(default_factory=dict)
    #: Day indexes inside the collection window with no daily record
    #: (collector outages); empty for a clean apparatus.
    missing_days: list = field(default_factory=list)

    def peak_ntp_day(self):
        if not self.daily:
            return None
        return max(self.daily, key=lambda d: d.ntp_bps)


#: The paper reports ~300K labeled attacks per month globally, roughly 90%
#: small / 10% medium / 1% large.
BASELINE_MONTHLY_ATTACKS_FULL = 300_000
#: Size split of the *labeled* non-NTP background.  Arbor's public "90%
#: small / 10% medium / 1% large" describes all attacks; the labeled subset
#: the NTP fractions of Figure 2 are computed against is far more
#: small-dominated once NTP is excluded (working the figure's own numbers
#: backwards: ~30K labeled mediums of which 21K were NTP in February).
BASELINE_BIN_SPLIT = {SIZE_SMALL: 0.975, SIZE_MEDIUM: 0.022, SIZE_LARGE: 0.003}


class ArborCollector:
    """Builds the Arbor-style dataset from the simulated world."""

    def __init__(
        self,
        rng,
        scale=0.01,
        total_bps_full=71.5e12,
        ntp_baseline_fraction=0.9e-5,
        dns_fraction=0.0015,
        visibility_threshold_bps=1.0e9,
        faults=None,
    ):
        self._rng = rng.child("arbor")
        self._scale = scale
        self._total_bps = total_bps_full * scale
        self._ntp_baseline = ntp_baseline_fraction
        self._dns_fraction = dns_fraction
        self._threshold = visibility_threshold_bps
        #: Optional :class:`~repro.faults.FaultInjector`; missing-day draws
        #: come from the injector's streams, never ``self._rng``.
        self._faults = faults

    # -- traffic ------------------------------------------------------------------

    def _attack_bytes_per_day(self, attacks):
        """Integrate victim-direction attack traffic into per-day bytes.

        The spoofed query direction adds the amplification-factor's worth
        less; a flat 4% overhead approximates it (median BAF ≈ 4 means the
        query side is ~1/4 of small responses, but most *bytes* ride the
        heavy tail where BAF is far larger).
        """
        per_day = defaultdict(float)
        for attack in attacks:
            start = attack.start
            remaining = attack.duration
            bps = attack.target_bps
            while remaining > 0:
                day = day_index(start)
                day_end = (day + 1) * DAY
                span = min(remaining, day_end - start)
                per_day[day] += bps / 8.0 * span
                start += span
                remaining -= span
        return {day: volume * 1.04 for day, volume in per_day.items()}

    def collect(self, attacks, start, end):
        """Build the dataset over simulation window [start, end)."""
        if end <= start:
            raise ValueError("end must follow start")
        dataset = ArborDataset()
        attack_bytes = self._attack_bytes_per_day(attacks)
        day = day_index(start)
        last_day = day_index(end - 1)
        while day <= last_day:
            if self._faults is not None and self._faults.arbor_missing(day):
                # Collector outage: no daily record at all for this day.
                dataset.missing_days.append(day)
                day += 1
                continue
            total = self._total_bps * (1.0 + 0.03 * float(self._rng.normal()))
            ntp = self._ntp_baseline * total + attack_bytes.get(day, 0.0) * 8.0 / DAY
            dns = self._dns_fraction * total * (1.0 + 0.05 * float(self._rng.normal()))
            dataset.daily.append(
                DailyTraffic(day=day, total_bps=total, ntp_bps=ntp, dns_bps=max(0.0, dns))
            )
            day += 1

        # Monthly labeled attacks.
        monthly = {}
        for attack in attacks:
            if not start <= attack.start < end:
                continue
            if attack.target_bps < self._threshold:
                continue
            key = month_key(attack.start)
            stats = monthly.setdefault(key, MonthlyAttackStats(month=key))
            stats.ntp[size_bin(attack.target_bps)] += 1
        # Synthesize the non-NTP background attack load.
        for record in dataset.daily:
            key = month_key(record.day * DAY)
            monthly.setdefault(key, MonthlyAttackStats(month=key))
        for key, stats in monthly.items():
            base = BASELINE_MONTHLY_ATTACKS_FULL * self._scale
            base = base * (1.0 + 0.05 * float(self._rng.normal()))
            for bin_name, share in BASELINE_BIN_SPLIT.items():
                stats.other[bin_name] = max(0, int(base * share))
        dataset.monthly_attacks = dict(sorted(monthly.items()))
        return dataset
