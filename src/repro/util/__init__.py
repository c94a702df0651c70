"""Shared utilities: deterministic RNG streams, simulation time, statistics.

These are the foundation layer; nothing in :mod:`repro.util` imports from any
other ``repro`` subpackage.
"""

from repro.util.pool import (
    ShardRunner,
    available_cpus,
    fork_pool_gate,
    summarize_shard_stats,
)
from repro.util.rng import RngStream, derive_seed
from repro.util.simtime import (
    Timeline,
    date_to_sim,
    day_index,
    format_sim,
    month_key,
    sim_to_date,
    week_samples,
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    SIM_EPOCH,
)
from repro.util.stats import (
    BoxplotSummary,
    Ecdf,
    boxplot_summary,
    percentile,
    rank_series,
)

__all__ = [
    "ShardRunner",
    "available_cpus",
    "fork_pool_gate",
    "summarize_shard_stats",
    "RngStream",
    "derive_seed",
    "Timeline",
    "date_to_sim",
    "day_index",
    "format_sim",
    "month_key",
    "sim_to_date",
    "week_samples",
    "DAY",
    "HOUR",
    "MINUTE",
    "WEEK",
    "SIM_EPOCH",
    "BoxplotSummary",
    "Ecdf",
    "boxplot_summary",
    "percentile",
    "rank_series",
]
