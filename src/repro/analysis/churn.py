"""Amplifier-population churn (§3.1).

The paper: fifteen weekly scans saw 2,166,097 unique amplifier IPs; the
first sample held only ~60% of them; about half of all unique IPs appeared
in exactly one weekly scan (rapid remediation plus DHCP churn).
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["ChurnReport", "churn_report"]


@dataclass(frozen=True)
class ChurnReport:
    total_unique: int
    first_sample_share: float
    seen_once_fraction: float
    new_per_sample: tuple

    @property
    def discovers_new_every_sample(self):
        return all(n > 0 for n in self.new_per_sample[1:])


def churn_report(parsed_samples):
    """Churn statistics over the weekly amplifier-IP sets.

    One lexsort over (ip, sample) replaces a cumulative-set walk: the
    first row of each ip run is its discovery sample, and the run length
    is its seen-count.
    """
    per_sample = []
    for parsed in parsed_samples:
        cols = parsed.columns
        lo, hi = cols.sample_table_span(parsed.sample_index)
        per_sample.append(np.unique(cols.table_native("amplifier")[lo:hi]))
    sample_of = np.repeat(
        np.arange(len(per_sample)), [len(u) for u in per_sample]
    )
    ips = np.concatenate(per_sample) if per_sample else np.empty(0, dtype=np.int64)
    order = np.lexsort((sample_of, ips))
    ips_sorted = ips[order]
    first_mask = np.ones(len(ips_sorted), dtype=bool)
    first_mask[1:] = ips_sorted[1:] != ips_sorted[:-1]
    new_per_sample = np.bincount(
        sample_of[order][first_mask], minlength=len(per_sample)
    )
    total = int(first_mask.sum())
    if total == 0:
        return ChurnReport(0, 0.0, 0.0, tuple(int(n) for n in new_per_sample))
    run_starts = np.flatnonzero(first_mask)
    run_lengths = np.diff(np.append(run_starts, len(ips_sorted)))
    return ChurnReport(
        total_unique=total,
        first_sample_share=len(per_sample[0]) / total,
        seen_once_fraction=int((run_lengths == 1).sum()) / total,
        new_per_sample=tuple(int(n) for n in new_per_sample),
    )
