"""Bandwidth-amplification-factor accounting (§3.2, §3.3, Figure 4).

On-wire BAF = (aggregate on-wire bytes of all response packets) / (on-wire
bytes of the single query packet).  The query is a minimum Ethernet frame:
84 bytes including preamble and inter-packet gap.  This is deliberately
lower than Rossow's UDP-payload-ratio BAF — it models real bandwidth
exhaustion on Ethernet links; an ablation benchmark compares the two.
"""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.net.framing import (
    MIN_ONWIRE_FRAME,
    UDP_IP_HEADERS,
    on_wire_bytes,
    on_wire_bytes_array,
)
from repro.ntp.wire import decode_mode6
from repro.util.stats import boxplot_summary, rank_series

__all__ = [
    "on_wire_baf",
    "payload_baf",
    "sample_baf_boxplot",
    "version_sample_baf_boxplot",
    "aggregate_bytes_per_amplifier",
    "mega_amplifier_census",
    "MegaCensus",
]

#: The mode-7 monlist request is an 8-byte UDP payload -> minimum frame.
QUERY_ON_WIRE = MIN_ONWIRE_FRAME
QUERY_PAYLOAD = 8


def on_wire_baf(table_or_capture):
    """On-wire BAF of one reply (works for reconstructed tables and raw
    probe captures: both expose total packets/bytes once + repeats)."""
    if hasattr(table_or_capture, "total_on_wire_bytes"):
        total = table_or_capture.total_on_wire_bytes
    else:
        total = (
            sum(on_wire_bytes(len(p)) for p in table_or_capture.packets)
            * table_or_capture.n_repeats
        )
    return total / QUERY_ON_WIRE


def payload_baf(table_or_capture):
    """Rossow-style UDP-payload BAF (for the ablation comparison)."""
    if hasattr(table_or_capture, "total_payload_bytes"):
        total = table_or_capture.total_payload_bytes
    else:
        total = sum(len(p) for p in table_or_capture.packets) * table_or_capture.n_repeats
    return total / QUERY_PAYLOAD


def sample_baf_boxplot(parsed_sample):
    """Figure 4b: the five-number BAF summary of one monlist sample."""
    columns = parsed_sample.columns
    lo, hi = columns.sample_table_span(parsed_sample.sample_index)
    totals = (
        columns.table_native("wire_once")[lo:hi]
        * columns.table_native("n_repeats")[lo:hi]
    )
    bafs = totals.astype(np.float64) / float(QUERY_ON_WIRE)
    return boxplot_summary(bafs.tolist())


def version_sample_baf_boxplot(version_sample):
    """Figure 4c: BAF summary of one mode-6 version sample."""
    packed = getattr(version_sample, "packed", None)
    if packed is not None:
        wire = on_wire_bytes_array(packed.pkt_lens)
        cum = np.concatenate(([0], np.cumsum(wire)))
        offsets = np.asarray(packed.pkt_offsets, dtype=np.int64)
        totals = (cum[offsets[1:]] - cum[offsets[:-1]]) * np.asarray(
            packed.n_repeats, dtype=np.int64
        )
        bafs = totals.astype(np.float64) / float(QUERY_ON_WIRE)
        return boxplot_summary(bafs.tolist())
    bafs = []
    for capture in version_sample.captures:
        total = sum(on_wire_bytes(len(p)) for p in capture.packets) * capture.n_repeats
        bafs.append(total / QUERY_ON_WIRE)
    return boxplot_summary(bafs)


def aggregate_bytes_per_amplifier(parsed_samples):
    """Figure 4a: aggregate on-wire response bytes per amplifier over all
    samples, plus the rank series (sorted descending)."""
    totals = defaultdict(int)
    for parsed in parsed_samples:
        for table in parsed.tables:
            totals[table.amplifier_ip] += table.total_on_wire_bytes
    return dict(totals), rank_series(totals.values())


@dataclass(frozen=True)
class MegaCensus:
    """§3.4's mega-amplifier counts."""

    n_over_100kb: int
    n_over_1gb: int
    largest_bytes: int
    fraction_under_50kb: float


def mega_amplifier_census(parsed_samples):
    """Count amplifiers whose *single-sample* reply exceeded the mega
    thresholds, and the fraction whose aggregate stayed under a full
    table's worth (~50 KB)."""
    max_reply = defaultdict(int)
    totals = defaultdict(int)
    for parsed in parsed_samples:
        for table in parsed.tables:
            max_reply[table.amplifier_ip] = max(
                max_reply[table.amplifier_ip], table.total_on_wire_bytes
            )
            totals[table.amplifier_ip] += table.total_on_wire_bytes
    if not max_reply:
        return MegaCensus(0, 0, 0, 0.0)
    over_100kb = sum(1 for v in max_reply.values() if v > 100e3)
    over_1gb = sum(1 for v in max_reply.values() if v > 1e9)
    largest = max(max_reply.values())
    under_50kb = sum(1 for v in totals.values() if v < 50e3) / len(totals)
    return MegaCensus(
        n_over_100kb=over_100kb,
        n_over_1gb=over_1gb,
        largest_bytes=largest,
        fraction_under_50kb=under_50kb,
    )
