"""Darknet (network telescope) observers (§5.1).

The IPv4 telescope models the Merit darknet: full packet capture over ~75%
of a /8 of unused space ("an effective /9"), with the effective /24 count
varying month to month as routing and suballocations shift.  Scanners
sweeping the IPv4 space spill into the dark space in proportion to their
coverage; the telescope aggregates

* monthly average NTP scan packets per effective dark /24, split into
  known-benign (research, identified by source) and other — Figure 8; and
* daily unique scanning source IPs — Figure 9.

The IPv6 telescope reproduces the paper's negative result: scanners in this
world are IPv4-only, so the v6 telescope sees only errant point-to-point
NTP packets and no broad scanning.
"""

from collections import defaultdict

import numpy as np

from repro.measurement.capture_store import day_pair_array, inline_array
from repro.net.asn import DARKNET_POOL
from repro.util.simtime import DAY, month_key

__all__ = ["Ipv4Darknet", "Ipv6Darknet"]


def _empty_month_counts():
    """defaultdict factory (module-level so telescopes stay picklable)."""
    return {"benign": 0, "other": 0}


class Ipv4Darknet:
    """The ≈/9 IPv4 telescope."""

    def __init__(self, rng, pool=DARKNET_POOL, coverage=0.75, coverage_jitter=0.04, faults=None):
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        self._rng = rng.child("darknet")
        self._pool = pool
        self._base_coverage = coverage
        self._coverage_jitter = coverage_jitter
        self._monthly_packets = defaultdict(_empty_month_counts)
        #: {day: scanner IPs} while observing; None once compact() has
        #: turned it into ``_scanner_pairs``, the form every reader reads.
        self._daily_scanners = defaultdict(set)
        self._scanner_pairs = None
        self._monthly_coverage = {}
        #: Optional :class:`~repro.faults.FaultInjector`; fault draws use the
        #: injector's streams, never ``self._rng``, so a clean profile leaves
        #: the telescope byte-identical.
        self._faults = faults
        #: Day indexes the sensor was down (observable evidence of outages).
        self.down_days = set()

    # -- coverage ---------------------------------------------------------------

    def effective_slash24s(self, t):
        """Effective dark /24s during the month containing ``t``.

        Deterministic per month (hash-jittered around the base coverage),
        reflecting routing-driven variation in telescope size.
        """
        key = month_key(t)
        if key not in self._monthly_coverage:
            jitter = (self._rng.random() - 0.5) * 2 * self._coverage_jitter
            coverage = min(1.0, max(0.05, self._base_coverage + jitter))
            total_24s = self._pool.n_addresses // 256
            self._monthly_coverage[key] = int(total_24s * coverage)
        return self._monthly_coverage[key]

    @property
    def pool(self):
        return self._pool

    # -- observation --------------------------------------------------------------

    def observe_sweep(self, sweep):
        """Record one scan sweep's spillover into the dark space.

        A sweep covering fraction ``c`` of IPv4 hits each dark address with
        probability ``c``; the expected packet count into the telescope is
        ``c * dark_addresses`` (Poisson-sampled for realism).
        """
        day = int(sweep.t // DAY)
        if self._faults is not None and self._faults.darknet_down(day):
            # Sensor downtime: nothing is captured on a down day.  Packet
            # volume is keyed to the sweep's start day; the per-day scanner
            # sets below check each spanned day individually.
            self.down_days.add(day)
        else:
            n24 = self.effective_slash24s(sweep.t)
            dark_addresses = n24 * 256
            expected = sweep.coverage * dark_addresses
            packets = int(self._rng.poisson(expected)) if expected < 1e7 else int(expected)
            if packets <= 0 and sweep.coverage >= 1.0:
                packets = dark_addresses
            key = month_key(sweep.t)
            label = "benign" if sweep.kind == "research" else "other"
            self._monthly_packets[key][label] += packets
        # The sweep is visible on every day it spans (that the sensor is up).
        last_day = int((sweep.t + sweep.duration) // DAY)
        for d in range(day, last_day + 1):
            if self._faults is not None and self._faults.darknet_down(d):
                self.down_days.add(d)
                continue
            self._daily_scanners[d].add(sweep.scanner_ip)

    def observe_all(self, sweeps):
        for sweep in sweeps:
            self.observe_sweep(sweep)

    # -- figures -------------------------------------------------------------------

    def monthly_packets_per_slash24(self):
        """{month: {"benign": avg packets per dark /24, "other": ...}}."""
        out = {}
        for key in sorted(self._monthly_packets):
            n24 = self._monthly_coverage.get(key)
            if not n24:
                continue
            counts = self._monthly_packets[key]
            out[key] = {
                "benign": counts["benign"] / n24,
                "other": counts["other"] / n24,
            }
        return out

    def benign_fraction(self, month):
        counts = self._monthly_packets.get(month)
        if not counts:
            return 0.0
        total = counts["benign"] + counts["other"]
        if total == 0:
            return 0.0
        return counts["benign"] / total

    def compact(self):
        """End the observation: freeze the per-day scanner sets into one
        flat, (day, ip)-sorted pair array, spilled to an unlinked memmap
        past ``REPRO_SPILL_MB``, and drop the sets.

        A full-scale observation season holds millions of (day, scanner)
        memberships; as Python sets of ints they cost ~100 bytes each,
        as int64 pairs 16.  The build compacts once, right after the
        sweeps; every scanner read below reads the pairs, and a sweep
        observed afterwards raises.  Returns ``self`` so it chains.
        """
        self._scanner_pairs = day_pair_array(self._daily_scanners)
        self._daily_scanners = None
        return self

    def scanner_pairs(self):
        """Every (day, scanner IP) membership as two int64 columns, sorted
        by day then IP, each pair once."""
        return self._scanner_pairs[:, 0], self._scanner_pairs[:, 1]

    def daily_unique_scanners(self):
        """{day index: unique scanner source IPs seen that day}."""
        days, counts = np.unique(self._scanner_pairs[:, 0], return_counts=True)
        return {int(d): int(c) for d, c in zip(days.tolist(), counts.tolist())}

    # -- pickling ------------------------------------------------------------------
    # Cached worlds must be self-contained: a memmap-backed pair array is
    # re-inlined so the pickle never references an unlinked temp file.

    def __getstate__(self):
        return dict(self.__dict__, _scanner_pairs=inline_array(self._scanner_pairs))


class Ipv6Darknet:
    """The IPv6 telescope: covering prefixes for four of five RIRs.

    In this world no scanner sweeps v6 space, so all the telescope ever
    records is a low-rate trickle of errant point-to-point NTP packets
    (misconfigured clients), reproducing the paper's negative result.
    """

    ERRANT_PACKETS_PER_DAY = 3.0

    def __init__(self, rng):
        self._rng = rng.child("darknet-v6")
        self._monthly_packets = defaultdict(int)
        self._scan_packets = defaultdict(int)

    def simulate_window(self, start, end):
        """Accumulate errant noise over [start, end)."""
        if end <= start:
            raise ValueError("end must follow start")
        day = start
        while day < end:
            self._monthly_packets[month_key(day)] += int(
                self._rng.poisson(self.ERRANT_PACKETS_PER_DAY)
            )
            day += DAY

    def monthly_packets(self):
        return dict(sorted(self._monthly_packets.items()))

    def scanning_evidence(self):
        """Broad-scanning packet counts: always empty in this world."""
        return dict(self._scan_packets)
