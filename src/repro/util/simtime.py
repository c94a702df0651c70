"""Simulation time.

Simulation time is measured in seconds since ``SIM_EPOCH`` (2013-09-01
00:00:00 UTC), chosen so the darknet's eight-month observation window
(September 2013 – April 2014) starts at t=0.  The full study window runs
through mid-June 2014 (the twice-daily mega-amplifier probes of §3.4).
"""

import datetime as _dt

__all__ = [
    "SIM_EPOCH",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "STUDY_END",
    "date_to_sim",
    "sim_to_date",
    "format_sim",
    "day_index",
    "month_key",
    "week_samples",
    "Timeline",
]

SIM_EPOCH = _dt.datetime(2013, 9, 1, tzinfo=_dt.timezone.utc)

MINUTE = 60
HOUR = 3600
DAY = 86400
WEEK = 7 * DAY


def date_to_sim(year, month=1, day=1, hour=0, minute=0, second=0):
    """Convert a UTC calendar date to simulation seconds."""
    when = _dt.datetime(year, month, day, hour, minute, second, tzinfo=_dt.timezone.utc)
    return (when - SIM_EPOCH).total_seconds()


def sim_to_date(t):
    """Convert simulation seconds to a timezone-aware UTC datetime."""
    return SIM_EPOCH + _dt.timedelta(seconds=float(t))


def format_sim(t, fmt="%Y-%m-%d"):
    """Render a simulation time as a date string (paper-style labels)."""
    return sim_to_date(t).strftime(fmt)


def day_index(t):
    """Whole days elapsed since the simulation epoch."""
    return int(t // DAY)


def month_key(t):
    """A ``"YYYY-MM"`` key for the month containing ``t`` (paper x-axes)."""
    return sim_to_date(t).strftime("%Y-%m")


STUDY_END = date_to_sim(2014, 6, 14)


def week_samples(first, count, interval=WEEK):
    """Sim times of ``count`` periodic samples starting at ``first``.

    The ONP dataset consists of fifteen weekly samples starting 2014-01-10;
    ``week_samples(date_to_sim(2014, 1, 10), 15)`` reproduces those dates.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return [first + i * interval for i in range(count)]


class Timeline:
    """A piecewise-linear intensity curve over simulation time.

    Used to express calibrated trajectories such as "NTP rises from 1e-5 of
    traffic in November to 1e-2 on Feb 11 then falls to 1e-3 by May".
    Interpolation is linear in ``log10(value)`` when ``log=True``, matching
    how the paper's order-of-magnitude trajectories read on log axes.
    """

    def __init__(self, points, log=False):
        if len(points) < 2:
            raise ValueError("a timeline needs at least two points")
        times = [p[0] for p in points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("timeline points must be strictly increasing in time")
        if log and any(p[1] <= 0 for p in points):
            raise ValueError("log timelines need positive values")
        self._points = [(float(t), float(v)) for t, v in points]
        self._log = bool(log)

    def value_at(self, t):
        """Interpolated value at time ``t`` (clamped at the endpoints)."""
        points = self._points
        if t <= points[0][0]:
            return points[0][1]
        if t >= points[-1][0]:
            return points[-1][1]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t0 <= t <= t1:
                frac = (t - t0) / (t1 - t0)
                if self._log:
                    import math

                    return 10 ** (math.log10(v0) + frac * (math.log10(v1) - math.log10(v0)))
                return v0 + frac * (v1 - v0)
        raise AssertionError("unreachable: t within range but no segment found")

    def __call__(self, t):
        return self.value_at(t)
