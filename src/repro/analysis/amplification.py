"""Bandwidth-amplification-factor accounting (§3.2, §3.3, Figure 4).

On-wire BAF = (aggregate on-wire bytes of all response packets) / (on-wire
bytes of the single query packet).  The query is a minimum Ethernet frame:
84 bytes including preamble and inter-packet gap.  This is deliberately
lower than Rossow's UDP-payload-ratio BAF — it models real bandwidth
exhaustion on Ethernet links; an ablation benchmark compares the two.
"""

from dataclasses import dataclass

import numpy as np

from repro.net.framing import (
    MIN_ONWIRE_FRAME,
    UDP_IP_HEADERS,
    on_wire_bytes,
    on_wire_bytes_array,
)
from repro.ntp.wire import decode_mode6
from repro.util.stats import boxplot_summary, group_sums, rank_series

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


def on_wire_baf(capture):
    """On-wire BAF of one raw probe capture: its packets' on-wire bytes
    once, times its repeats, over the query's."""
    total = sum(on_wire_bytes(len(p)) for p in capture.packets) * capture.n_repeats
    return total / QUERY_ON_WIRE


def payload_baf(capture):
    """Rossow-style UDP-payload BAF of one raw probe capture (for the
    ablation comparison)."""
    return capture.total_payload_bytes / QUERY_PAYLOAD


def _reply_bytes(parsed_sample):
    """On-wire reply bytes (once x repeats) of each of a parsed sample's
    tables, in table order."""
    return parsed_sample.table_column("wire_once") * parsed_sample.table_column("n_repeats")


def sample_baf_boxplot(parsed_sample):
    """Figure 4b: the five-number BAF summary of one monlist sample."""
    bafs = _reply_bytes(parsed_sample).astype(np.float64) / float(QUERY_ON_WIRE)
    return boxplot_summary(bafs.tolist())


def version_sample_baf_boxplot(version_sample):
    """Figure 4c: BAF summary of one mode-6 version sample."""
    packed = version_sample.packed
    wire = on_wire_bytes_array(packed.pkt_lens)
    cum = np.concatenate(([0], np.cumsum(wire)))
    offsets = np.asarray(packed.pkt_offsets, dtype=np.int64)
    totals = (cum[offsets[1:]] - cum[offsets[:-1]]) * np.asarray(
        packed.n_repeats, dtype=np.int64
    )
    bafs = totals.astype(np.float64) / float(QUERY_ON_WIRE)
    return boxplot_summary(bafs.tolist())


def _amplifier_replies(parsed_samples):
    """``(amplifier, reply bytes)`` columns over every table of the given
    parsed samples, in corpus order (empty columns for no samples)."""
    amplifiers = [p.table_column("amplifier") for p in parsed_samples]
    replies = [_reply_bytes(p) for p in parsed_samples]
    empty = np.zeros(0, dtype=np.int64)
    return np.concatenate([empty, *amplifiers]), np.concatenate([empty, *replies])


def aggregate_bytes_per_amplifier(parsed_samples):
    """Figure 4a: aggregate on-wire response bytes per amplifier over all
    samples, plus the rank series (sorted descending)."""
    totals = group_sums(*_amplifier_replies(parsed_samples))
    return totals, rank_series(totals.values())


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
    amplifiers, replies = _amplifier_replies(parsed_samples)
    if not len(amplifiers):
        return MegaCensus(0, 0, 0, 0.0)
    uniq, inverse = np.unique(amplifiers, return_inverse=True)
    max_reply = np.zeros(len(uniq), dtype=np.int64)
    np.maximum.at(max_reply, inverse, replies)
    totals = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(totals, inverse, replies)
    return MegaCensus(
        n_over_100kb=int((max_reply > 100e3).sum()),
        n_over_1gb=int((max_reply > 1e9).sum()),
        largest_bytes=int(max_reply.max()),
        fraction_under_50kb=float((totals < 50e3).sum()) / len(uniq),
    )
