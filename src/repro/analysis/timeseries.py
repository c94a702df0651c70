"""Global traffic/attack time-series helpers (Figures 1, 2)."""

from dataclasses import dataclass

from repro.measurement.arbor import SIZE_LARGE, SIZE_MEDIUM, SIZE_SMALL
from repro.util.simtime import DAY, format_sim

__all__ = ["traffic_fractions", "peak_traffic_date", "attack_fraction_rows", "daily_attack_counts"]


def traffic_fractions(arbor_dataset, include_gaps=False):
    """Figure 1: [(date string, ntp fraction, dns fraction)] per day.

    With ``include_gaps``, days the collector was down appear in place as
    ``(date, None, None)`` markers — an explicit "no data" the renderers
    show as a gap, never a silently interpolated value.
    """
    rows = [
        (d.day, format_sim(d.day * DAY), d.ntp_fraction, d.dns_fraction)
        for d in arbor_dataset.daily
    ]
    if include_gaps:
        for day in arbor_dataset.missing_days:
            rows.append((day, format_sim(day * DAY), None, None))
        rows.sort(key=lambda r: r[0])
    return [(date, ntp, dns) for _, date, ntp, dns in rows]


def peak_traffic_date(arbor_dataset):
    """The date NTP traffic peaked (paper: February 11th)."""
    peak = arbor_dataset.peak_ntp_day()
    if peak is None:
        return "(no data)"
    return format_sim(peak.day * DAY)


@dataclass(frozen=True)
class AttackFractionRow:
    """One Figure-2 month."""

    month: str
    small: float
    medium: float
    large: float
    overall: float


def attack_fraction_rows(arbor_dataset):
    """Figure 2: per-month NTP fraction of attacks, by size bin."""
    rows = []
    for month, stats in arbor_dataset.monthly_attacks.items():
        rows.append(
            AttackFractionRow(
                month=month,
                small=stats.ntp_fraction(SIZE_SMALL),
                medium=stats.ntp_fraction(SIZE_MEDIUM),
                large=stats.ntp_fraction(SIZE_LARGE),
                overall=stats.ntp_fraction(),
            )
        )
    return rows


def daily_attack_counts(attacks):
    """Ground-truth attack starts per day (used for lead-lag checks),
    from an attack table's ``start`` column.

    Vectorized group-by; keys keep the scalar loop's first-occurrence
    insertion order (``//`` on floats is ``np.floor_divide`` exactly).
    """
    import numpy as np

    starts = attacks.start
    if not len(starts):
        return {}
    days = np.floor_divide(starts, DAY).astype(np.int64)
    uniq, first_idx, counts = np.unique(days, return_index=True, return_counts=True)
    order = np.argsort(first_idx, kind="stable")
    return {int(uniq[k]): int(counts[k]) for k in order}
