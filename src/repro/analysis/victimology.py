"""Victim identification and attack accounting from monlist tables (§4).

The classification filter, verbatim from §4.2:

* mode < 6 — **non-victim** (normal NTP operation provides no
  amplification, so attackers have no reason to spoof it);
* mode 6 or 7 with fewer than 3 packets, or an average inter-arrival above
  3600 s (at most ~one packet/hour) — **scanner / low-volume victim**;
* otherwise — **victim** of that amplifier.

Per victim we extract the packet count, inter-arrival, last-seen, a
duration estimate (count x inter-arrival), and a derived start time; the
aggregations reproduce Table 1 (right half), Table 4, and Figures 5-7.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.util.simtime import HOUR
from repro.util.stats import group_sums, percentile

__all__ = [
    "CLASS_NON_VICTIM",
    "CLASS_SCANNER",
    "CLASS_VICTIM",
    "CODE_EXCLUDED",
    "CODE_NON_VICTIM",
    "CODE_SCANNER",
    "CODE_VICTIM",
    "classify_entry",
    "classify_columns",
    "SampleVictimology",
    "VictimologyReport",
    "analyze_dataset",
]

CLASS_NON_VICTIM = "non-victim"
CLASS_SCANNER = "scanner/low-volume"
CLASS_VICTIM = "victim"

#: Per-entry class codes of :func:`classify_columns`; ``CODE_EXCLUDED``
#: marks the prober's own address, which is never classified.
CODE_EXCLUDED, CODE_NON_VICTIM, CODE_SCANNER, CODE_VICTIM = range(4)

_MIN_PACKETS = 3
_MAX_INTERARRIVAL = 3600.0


def classify_entry(entry):
    """Apply the paper's three-way filter to one monlist entry."""
    if entry.mode < 6:
        return CLASS_NON_VICTIM
    if entry.count < _MIN_PACKETS:
        return CLASS_SCANNER
    if entry.avg_interval > _MAX_INTERARRIVAL:
        return CLASS_SCANNER
    return CLASS_VICTIM


def classify_columns(addr, mode, count, first, last, onp_ip=None):
    """The §4.2 filter over entry columns: :func:`classify_entry` per row.

    Takes native int64 columns and returns ``(codes, avg)``: an int8
    ``CODE_*`` per entry and the float64 mean inter-arrival ntpdc derives.
    Every operand is exact in float64, so ``avg`` and the classes are
    bit-identical to the per-entry helper.  ``onp_ip``: the prober's own
    address is excluded outright (an artifact of measurement, though the
    filter would bin it as a scanner anyway).
    """
    avg = np.zeros(len(count), dtype=np.float64)
    multi = count > 1
    avg[multi] = (first[multi] - last[multi]).astype(np.float64) / (
        count[multi].astype(np.float64) - 1.0
    )
    codes = np.full(len(count), CODE_SCANNER, dtype=np.int8)
    codes[mode < 6] = CODE_NON_VICTIM
    codes[(mode >= 6) & (count >= _MIN_PACKETS) & (avg <= _MAX_INTERARRIVAL)] = CODE_VICTIM
    if onp_ip is not None:
        codes[addr == onp_ip] = CODE_EXCLUDED
    return codes, avg


class SampleVictimology:
    """Classification results for one weekly sample.

    Holds one row per victim-classified entry (an amplifier/victim pair),
    in entry order, as native int64 columns: ``amplifier_ip``,
    ``victim_ip``, ``port``, ``packets`` and ``last_seen_ago``, plus the
    float64 ``avg_interval``.  The report-level aggregations below, the
    AS concentration and the conformance queries all read these columns.
    """

    __slots__ = (
        "t",
        "n_non_victim",
        "n_scanner",
        "max_last_seen",
        "victim_ip",
        "amplifier_ip",
        "port",
        "packets",
        "avg_interval",
        "last_seen_ago",
        "_ips",
    )

    def __init__(
        self, t, n_non_victim, n_scanner, max_last_seen,
        victim_ip, amplifier_ip, port, packets, avg_interval, last_seen_ago,
    ):
        self.t = t
        self.n_non_victim = n_non_victim
        self.n_scanner = n_scanner
        self.max_last_seen = max_last_seen
        self.victim_ip = victim_ip
        self.amplifier_ip = amplifier_ip
        self.port = port
        self.packets = packets
        self.avg_interval = avg_interval
        self.last_seen_ago = last_seen_ago
        self._ips = None

    @property
    def n_victim_pairs(self):
        return len(self.victim_ip)

    def victim_ips(self):
        if self._ips is None:
            self._ips = set(self.victim_ip.tolist())
        return self._ips

    def packets_per_victim(self):
        """{victim ip: total packets received across amplifiers}."""
        return group_sums(self.victim_ip, self.packets)

    def start_times(self):
        """§4.2's derived start per victim pair, in entry order: the end
        (``t`` minus last seen) less the duration (packets x inter-arrival)."""
        end = self.t - self.last_seen_ago.astype(np.float64)
        return end - self.packets.astype(np.float64) * self.avg_interval

    def median_view_window_hours(self):
        """Median (over tables) largest last-seen, in hours (§4.2: ~44 h)."""
        if not self.max_last_seen:
            return 0.0
        return percentile(self.max_last_seen, 50) / HOUR


def _sample_victimology(parsed, onp_ip=None):
    """Classify every entry of one columnar sample's tables."""
    cols = parsed.columns
    e_lo, e_hi = cols.sample_entry_span(parsed.sample_index)

    last = cols.entry_native("last")[e_lo:e_hi]
    addr = cols.entry_native("addr")[e_lo:e_hi]
    mode = cols.entry_native("mode")[e_lo:e_hi]
    count = cols.entry_native("count")[e_lo:e_hi]

    counts_tbl = parsed.table_column("entry_count")
    starts_tbl = parsed.table_column("entry_start")
    nonzero = counts_tbl > 0
    if nonzero.any():
        seg_starts = starts_tbl[nonzero] - e_lo
        max_last_seen = np.maximum.reduceat(last, seg_starts).tolist()
    else:
        max_last_seen = []

    codes, avg = classify_columns(
        addr, mode, count, cols.entry_native("first")[e_lo:e_hi], last, onp_ip
    )
    n_by_code = np.bincount(codes, minlength=4)
    victim = codes == CODE_VICTIM
    amp_entry = np.repeat(parsed.table_column("amplifier"), counts_tbl)
    return SampleVictimology(
        t=parsed.t,
        n_non_victim=int(n_by_code[CODE_NON_VICTIM]),
        n_scanner=int(n_by_code[CODE_SCANNER]),
        max_last_seen=max_last_seen,
        victim_ip=addr[victim],
        amplifier_ip=amp_entry[victim],
        port=cols.entry_native("port")[e_lo:e_hi][victim],
        packets=count[victim],
        avg_interval=avg[victim],
        last_seen_ago=last[victim],
    )


@dataclass
class VictimologyReport:
    """Dataset-wide victimology: the paper's §4.3 aggregates.

    The aggregations are NumPy group-bys over each sample's victim
    columns; where order matters, ties break like ``Counter.most_common``
    (insertion order) via first-occurrence indices.
    """

    samples: list = field(default_factory=list)

    def all_victim_ips(self):
        out = set()
        for sample in self.samples:
            out |= sample.victim_ips()
        return out

    def total_attack_packets(self):
        """§4.3.3's headline: ~2.92 trillion packets at full scale."""
        return sum(int(s.packets.sum()) for s in self.samples)

    def total_attack_bytes(self, median_packet_bytes=420):
        """Packets x the 420-byte median on-wire response packet."""
        return self.total_attack_packets() * median_packet_bytes

    def victim_packet_stats(self):
        """Per-sample (mean, median, 95th) of per-victim packets (Fig. 6)."""
        rows = []
        for sample in self.samples:
            if not len(sample.victim_ip):
                rows.append((sample.t, 0.0, 0.0, 0.0))
                continue
            uniq, inv = np.unique(sample.victim_ip, return_inverse=True)
            sums = np.bincount(inv, weights=sample.packets.astype(np.float64))
            total = int(sample.packets.sum())
            rows.append(
                (
                    sample.t,
                    total / len(uniq),
                    percentile(sums, 50),
                    percentile(sums, 95),
                )
            )
        return rows

    def port_table(self, top=20):
        """Table 4: top attacked ports by fraction of amplifier/victim
        pairs."""
        parts = [s.port for s in self.samples if len(s.port)]
        if not parts:
            return []
        ports = np.concatenate(parts)
        uniq, first_idx, counts = np.unique(ports, return_index=True, return_counts=True)
        # -counts primary, first occurrence secondary: Counter.most_common's
        # ordering (heapq.nlargest is stable over insertion order).
        order = np.lexsort((first_idx, -counts))
        total = len(ports)
        return [(int(uniq[k]), int(counts[k]) / total) for k in order[:top]]

    def attacks_per_hour(self):
        """Figure 7: attack counts binned by derived (median) start hour.

        Each victim in each weekly sample counts as one attack; its start
        time is the median of the per-amplifier derived start times.
        """
        hours = {}
        for sample in self.samples:
            if not len(sample.victim_ip):
                continue
            starts = sample.start_times()
            order = np.lexsort((starts, sample.victim_ip))
            starts_sorted = starts[order]
            _, group_start, group_count = np.unique(
                sample.victim_ip[order], return_index=True, return_counts=True
            )
            medians = starts_sorted[group_start + group_count // 2]
            bins = np.floor_divide(medians, HOUR).astype(np.int64)
            uniq_bins, bin_counts = np.unique(bins, return_counts=True)
            for h, c in zip(uniq_bins.tolist(), bin_counts.tolist()):
                hours[h] = hours.get(h, 0) + c
        return dict(sorted(hours.items()))

    def amplifiers_per_victim(self):
        """Per-sample median amplifiers seen attacking each victim (§6.3)."""
        rows = []
        for sample in self.samples:
            if not len(sample.victim_ip):
                rows.append((sample.t, 0.0))
                continue
            _, counts = np.unique(sample.victim_ip, return_counts=True)
            rows.append((sample.t, percentile(counts, 50)))
        return rows

    def undersampling_factor(self):
        """§4.2: hours-per-week over the median view window (≈3.8x).

        The median is pooled over every table in every sample ("across all
        ONP weekly samples, the median largest last seen time...").
        """
        pooled = [w for s in self.samples for w in s.max_last_seen]
        if not pooled:
            return float("nan")
        median_window = percentile(pooled, 50) / HOUR
        if median_window <= 0:
            return float("inf")
        return 168.0 / median_window


def analyze_dataset(parsed_samples, onp_ip=None):
    """Victimology over all weekly samples of a columnar corpus (the
    :class:`~repro.analysis.event_columns.ColumnarSample` views that
    :class:`~repro.analysis.context.AnalysisContext` and
    :func:`~repro.analysis.event_columns.build_event_columns` produce)."""
    return VictimologyReport([_sample_victimology(p, onp_ip) for p in parsed_samples])
