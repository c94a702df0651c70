"""Remediation dynamics of vulnerable-server pools.

§6 documents the community response: the monlist amplifier pool fell from
1.4M (2014-01-10) to ~110K by late March — a 92% reduction — while the
``version`` responder pool shrank only 19% and the open-DNS-resolver pool
barely moved over a year.  Remediation speed also varied by continent
(NA 97% ... SA 63%) and by host class (end-host share of the remaining pool
doubled from ~17% to ~34%, suggesting professionally-managed servers were
patched faster).

The model is proportional-hazards sampling against a calibrated baseline
survival curve: host ``i`` survives to time ``t`` with probability
``S(t)**m_i`` where ``m_i`` multiplies per-continent and per-class factors.
Sampling ``u ~ U(0,1)`` and solving ``S(t)**m = u`` yields the host's
remediation time.
"""

import math

from repro.util.simtime import date_to_sim

__all__ = [
    "SurvivalCurve",
    "MONLIST_SURVIVAL_ANCHORS",
    "monlist_survival_curve",
    "version_survival_curve",
    "dns_survival_curve",
    "RemediationModel",
    "CONTINENT_MULTIPLIER",
    "END_HOST_MULTIPLIER",
    "MANAGED_MULTIPLIER",
]

#: Weekly fractions of the initial monlist pool still vulnerable, read off
#: Figure 3 (counts normalized by the 1.405M seen on 2014-01-10).
MONLIST_SURVIVAL_ANCHORS = [
    (date_to_sim(2014, 1, 10), 1.000),
    (date_to_sim(2014, 1, 17), 0.909),
    (date_to_sim(2014, 1, 24), 0.482),
    (date_to_sim(2014, 1, 31), 0.312),
    (date_to_sim(2014, 2, 7), 0.260),
    (date_to_sim(2014, 2, 14), 0.168),
    (date_to_sim(2014, 2, 21), 0.126),
    (date_to_sim(2014, 2, 28), 0.114),
    (date_to_sim(2014, 3, 7), 0.088),
    (date_to_sim(2014, 3, 14), 0.0865),
    (date_to_sim(2014, 3, 21), 0.0787),
    (date_to_sim(2014, 3, 28), 0.0771),
    (date_to_sim(2014, 4, 4), 0.0760),
    (date_to_sim(2014, 4, 11), 0.0749),
    (date_to_sim(2014, 4, 18), 0.0740),
    (date_to_sim(2014, 6, 14), 0.0650),
]

#: §6.1's per-continent remediation differences expressed as hazard
#: multipliers (derived from the final remediated fractions).
CONTINENT_MULTIPLIER = {
    "NA": 1.36,
    "OC": 1.03,
    "EU": 0.86,
    "AS": 0.71,
    "AF": 0.57,
    "SA": 0.385,
}

#: End hosts remediate slower; managed infrastructure faster (§6.1).
END_HOST_MULTIPLIER = 0.62
MANAGED_MULTIPLIER = 1.09


class SurvivalCurve:
    """A non-increasing piecewise-exponential survival function S(t).

    Between anchors, ``log S`` is linear (constant hazard per segment),
    which makes inversion exact and keeps S positive.
    """

    def __init__(self, anchors):
        if len(anchors) < 2:
            raise ValueError("need at least two anchors")
        times = [t for t, _ in anchors]
        values = [v for _, v in anchors]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("anchor times must be strictly increasing")
        if any(v <= 0 or v > 1 for v in values):
            raise ValueError("survival values must be in (0, 1]")
        if any(b > a for a, b in zip(values, values[1:])):
            raise ValueError("survival must be non-increasing")
        self._times = times
        self._logs = [math.log(v) for v in values]

    @property
    def start(self):
        return self._times[0]

    @property
    def end(self):
        return self._times[-1]

    @property
    def floor(self):
        return math.exp(self._logs[-1])

    def value_at(self, t):
        """S(t): 1 before the first anchor, floor after the last.

        At exactly the first anchor time the anchor's own value applies
        (a curve may open below 1.0).
        """
        if t < self._times[0]:
            return 1.0
        if t == self._times[0]:
            return math.exp(self._logs[0])
        if t >= self._times[-1]:
            return self.floor
        for i in range(len(self._times) - 1):
            t0, t1 = self._times[i], self._times[i + 1]
            if t0 <= t <= t1:
                frac = (t - t0) / (t1 - t0)
                return math.exp(self._logs[i] + frac * (self._logs[i + 1] - self._logs[i]))
        raise AssertionError("unreachable")

    def inverse(self, s):
        """The time at which survival first reaches ``s``.

        Returns ``None`` when ``s`` is below the curve's floor (the host
        survives the whole modeled window).
        """
        if not 0 < s <= 1:
            raise ValueError("s must be in (0, 1]")
        log_s = math.log(s)
        if log_s <= self._logs[-1]:
            return None
        if log_s >= self._logs[0]:
            return self._times[0]
        for i in range(len(self._times) - 1):
            l0, l1 = self._logs[i], self._logs[i + 1]
            if l1 <= log_s <= l0:
                if l1 == l0:
                    return self._times[i]
                frac = (l0 - log_s) / (l0 - l1)
                return self._times[i] + frac * (self._times[i + 1] - self._times[i])
        raise AssertionError("unreachable")


def monlist_survival_curve():
    """The calibrated monlist-amplifier baseline survival curve."""
    return SurvivalCurve(MONLIST_SURVIVAL_ANCHORS)


def version_survival_curve():
    """The ``version``-responder pool: flat until the version scans begin,
    then a slow ~2.3%/week decline (19% over the nine measured weeks)."""
    return SurvivalCurve(
        [
            (date_to_sim(2014, 2, 21), 1.0),
            (date_to_sim(2014, 4, 18), 0.81),
            (date_to_sim(2014, 6, 14), 0.76),
        ]
    )


def dns_survival_curve():
    """Open DNS resolvers: barely-moving decline over more than a year
    since the OpenResolverProject began publicizing counts (Fig. 10)."""
    return SurvivalCurve(
        [
            (date_to_sim(2013, 3, 25), 1.0),
            (date_to_sim(2013, 9, 1), 0.96),
            (date_to_sim(2014, 1, 1), 0.92),
            (date_to_sim(2014, 6, 14), 0.87),
        ]
    )


#: Population mix used to renormalize the hazard scale (continent weights
#: match the AS registry's; end-host share matches the initial pool).
_CALIBRATION_MIX = {
    "NA": 0.30,
    "EU": 0.30,
    "AS": 0.22,
    "SA": 0.09,
    "AF": 0.05,
    "OC": 0.04,
}
_CALIBRATION_END_HOST_SHARE = 0.185


def _mixture_survival(s, mix, end_host_share):
    """Aggregate survival when the baseline is ``s`` and hosts carry the
    continent x class multipliers (``E[s**m]`` over the population mix)."""
    total = 0.0
    for continent, weight in mix.items():
        m = CONTINENT_MULTIPLIER.get(continent, 1.0)
        total += weight * (
            end_host_share * s ** (m * END_HOST_MULTIPLIER)
            + (1 - end_host_share) * s ** (m * MANAGED_MULTIPLIER)
        )
    return total


def calibrated_monlist_curve(anchors=None, mix=None, end_host_share=None):
    """A baseline survival curve adjusted so that the *population mixture*
    tracks the paper's Figure-3 trajectory.

    Proportional-hazards multipliers below 1 inflate aggregate survival
    (Jensen), so feeding the paper's curve straight into per-host sampling
    would make the simulated pool shrink too slowly.  For each paper anchor
    value ``v`` we solve ``E[s**m] = v`` for the baseline value ``s`` by
    bisection, then build the curve from the adjusted anchors.
    """
    anchors = anchors or MONLIST_SURVIVAL_ANCHORS
    mix = mix or _CALIBRATION_MIX
    end_host_share = _CALIBRATION_END_HOST_SHARE if end_host_share is None else end_host_share
    # The observed pool includes DHCP-chain continuations, weekly arrivals,
    # and persistent mega amplifiers on top of the remediating cohort, so the
    # cohort itself must decay faster than the observed counts.  The divisor
    # ramps to ~1.6x at the tail (measured empirically against Figure 3).
    start = anchors[0][0]
    end = anchors[-1][0]

    def continuation_divisor(t):
        frac = min(1.0, max(0.0, (t - start) / (end - start)))
        return 1.0 + 1.30 * frac**1.8

    anchors = [(t, v if v >= 1.0 else v / continuation_divisor(t)) for t, v in anchors]
    adjusted = []
    for t, target in anchors:
        if target >= 1.0:
            adjusted.append((t, 1.0))
            continue
        lo, hi = 1e-9, 1.0
        for _ in range(100):
            mid = (lo + hi) / 2.0
            if _mixture_survival(mid, mix, end_host_share) > target:
                hi = mid
            else:
                lo = mid
        adjusted.append((t, (lo + hi) / 2.0))
    # Enforce monotonicity against bisection jitter.
    floor = 1.0
    monotone = []
    for t, v in adjusted:
        floor = min(floor, v)
        monotone.append((t, floor))
    return SurvivalCurve(monotone)


class RemediationModel:
    """Assigns per-host remediation times via proportional hazards."""

    def __init__(self, curve=None):
        self.curve = curve or calibrated_monlist_curve()

    def multiplier_for(self, continent, is_end_host):
        base = CONTINENT_MULTIPLIER.get(continent, 1.0)
        klass = END_HOST_MULTIPLIER if is_end_host else MANAGED_MULTIPLIER
        return base * klass

    def sample_time(self, u, multiplier=1.0):
        """Remediation time for uniform draw ``u``; None = never (in window).

        Host survival is ``S(t)**multiplier``; solving ``S(t)**m = u`` gives
        ``t = S^{-1}(u**(1/m))``.
        """
        if not 0 < u <= 1:
            raise ValueError("u must be in (0, 1]")
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        return self.curve.inverse(u ** (1.0 / multiplier))
