"""The open-DNS-resolver comparison pool (§6.2, Fig. 10).

The paper contrasts monlist remediation (92% in ~10 weeks) against open DNS
resolvers, whose pool (33.9M at peak) "has not decreased much in relative
terms" in the year since the OpenResolverProject began publicizing counts.
We never materialize 33.9M hosts — the figure only needs the weekly count
series and the small intersection with the monlist pool, so this module is
analytic: a survival curve plus measurement noise.
"""

from dataclasses import dataclass

from repro.population.remediation import dns_survival_curve
from repro.util.simtime import WEEK, date_to_sim

__all__ = ["DnsResolverPool", "DNS_PEAK_FULL", "DNS_PUBLICITY_START"]

#: Peak open-resolver count (Fig. 10 caption).
DNS_PEAK_FULL = 33_900_000

#: The OpenResolverProject began publicizing counts roughly a year before
#: the NTP effort.
DNS_PUBLICITY_START = date_to_sim(2013, 3, 25)


@dataclass(frozen=True)
class DnsSample:
    """One weekly open-resolver census point."""

    t: float
    count: int


class DnsResolverPool:
    """Weekly open-resolver counts with survey noise.

    ``noise_sigma`` models collection/methodology wobble (the paper ablates
    a few artificially-low DNS samples caused by it).
    """

    def __init__(self, rng, scale=1.0, peak_full=DNS_PEAK_FULL, noise_sigma=0.015):
        self._curve = dns_survival_curve()
        self._rng = rng.child("dns-noise")
        self._peak = max(1000, int(peak_full * scale))
        self._noise_sigma = noise_sigma
        # Survey noise comes from a stateful stream, so each *distinct*
        # series request is memoized: re-rendering Fig 10 (in this process
        # or a forked render worker) must yield the bytes of the first
        # render, not a fresh draw.
        self._series_cache = {}

    def count_at(self, t, noisy=True):
        """Pool size at time ``t`` (noise is deterministic per call order,
        so build full series via :meth:`weekly_series` for reproducibility)."""
        base = self._curve.value_at(t) * self._peak
        if not noisy:
            return int(base)
        wobble = 1.0 + self._noise_sigma * float(self._rng.normal())
        return max(0, int(base * wobble))

    def weekly_series(self, start=DNS_PUBLICITY_START, n_weeks=64, noisy=True):
        """``n_weeks`` weekly :class:`DnsSample` points from ``start``.

        Idempotent: repeated calls with the same arguments return the same
        (cached) series instead of consuming further noise draws.
        """
        if n_weeks < 1:
            raise ValueError("n_weeks must be >= 1")
        key = (start, n_weeks, noisy)
        series = self._series_cache.get(key)
        if series is None:
            series = [
                DnsSample(t=start + i * WEEK, count=self.count_at(start + i * WEEK, noisy=noisy))
                for i in range(n_weeks)
            ]
            self._series_cache[key] = series
        return series

    def overlap_with_monlist(self, hosts):
        """IPs shared between this pool and the monlist amplifiers of a
        :class:`~repro.population.amplifiers.HostTable`.

        The overlap membership is carried on the hosts themselves
        (``also_dns_resolver``), assigned at pool build time with the
        §6.2-calibrated probability.
        """
        return set(hosts.ip[hosts.monlist_amplifier & hosts.also_dns_resolver].tolist())
