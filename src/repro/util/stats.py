"""Statistics helpers used across the analysis modules.

The paper reports boxplot five-number summaries (Fig. 4b/4c), percentiles
(Fig. 6), empirical CDFs over ranked aggregates (Fig. 5), and ranked
series (Fig. 4a).  These helpers centralize that arithmetic.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "percentile",
    "BoxplotSummary",
    "boxplot_summary",
    "Ecdf",
    "rank_series",
    "group_sums",
]


def percentile(values, q):
    """The ``q``-th percentile (0..100) of ``values``; NaN when empty."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary as drawn in the paper's BAF boxplots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int


def boxplot_summary(values):
    """Compute a :class:`BoxplotSummary`; raises on empty input."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return BoxplotSummary(
        minimum=float(arr.min()),
        q1=float(np.percentile(arr, 25)),
        median=float(np.percentile(arr, 50)),
        q3=float(np.percentile(arr, 75)),
        maximum=float(arr.max()),
        count=int(arr.size),
    )


class Ecdf:
    """Empirical CDF over per-item weights sorted descending by weight.

    This matches Figure 5's construction: sort ASes by packets contributed
    (descending), then plot cumulative fraction of packets against rank.
    """

    def __init__(self, weights):
        arr = np.asarray(sorted(weights, reverse=True), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot build an ECDF over no items")
        if (arr < 0).any():
            raise ValueError("weights must be non-negative")
        total = arr.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        self._weights = arr
        self._cum_frac = np.cumsum(arr) / total

    def fraction_within_top(self, k):
        """Fraction of total weight held by the ``k`` heaviest items."""
        if k <= 0:
            return 0.0
        k = min(int(k), self._weights.size)
        return float(self._cum_frac[k - 1])


def rank_series(values):
    """(rank, value) pairs sorted descending by value, rank starting at 1.

    Used for Figure 4a's "amplifier rank vs bytes returned" plot.
    """
    ordered = sorted((float(v) for v in values), reverse=True)
    return [(i + 1, v) for i, v in enumerate(ordered)]


def group_sums(keys, values):
    """``{key: sum of its values}`` over paired integer arrays.

    Keys come in first-occurrence order, as a dict filled by a loop over
    the pairs would hold them; sums are exact int64.
    """
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, values)
    order = np.argsort(first, kind="stable")
    return dict(zip(uniq[order].tolist(), sums[order].tolist()))
