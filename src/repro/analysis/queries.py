"""Batch ground-truth answers shaped like the streaming engine's windows.

The conformance contract (``world.streaming_matches_batch``) compares a
:class:`~repro.stream.ingest.StreamEngine` fed by replay against the
batch pipeline's answers.  The batch side of that comparison lives here:
small adapters over :class:`~repro.analysis.context.AnalysisContext` and
the world's flow datasets that emit exactly the keys the engine's window
summaries and sketches use, so the invariant is a dict comparison rather
than a re-derivation in two places.

Everything here is a pure function of the (immutable once built) world —
the same property the context's memos rely on — and the monlist-backed
adapters go through the context's parse-once corpus, so conformance
checking never adds a second corpus decode.
"""

from __future__ import annotations

import dataclasses
import math

from repro.analysis.monlist_parse import ParseStats
from repro.util.simtime import DAY, HOUR

__all__ = [
    "capture_window_answers",
    "daily_scanner_counts",
    "daily_traffic_answers",
    "isp_day_answers",
    "isp_victim_byte_totals",
    "victim_packet_totals",
    "victim_as_packet_totals",
    "amplifier_entry_totals",
]

_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(ParseStats))


def capture_window_answers(ctx):
    """Per weekly sample, the exact aggregates a capture window holds.

    Keys mirror :func:`repro.stream.ingest._finalize_capture`; rows are in
    sample order, one per monlist sample (the windows are aligned to the
    first sample and the samples are exactly one window width apart).
    """
    parsed = ctx.parsed_samples()
    report = ctx.victim_report()
    world_samples = ctx.world.onp.monlist_samples
    rows = []
    for sample, parsed_sample, vict in zip(world_samples, parsed, report.samples):
        rows.append(
            {
                "t": float(sample.t),
                "captures": len(sample),
                "amplifiers": len(parsed_sample.amplifier_ips()),
                "victim_pairs": vict.n_victim_pairs,
                "unique_victims": len(vict.victim_ips()),
                "victim_packets": sum(o.packets for o in vict.observations),
                "scanner_entries": vict.n_scanner,
                "non_victim_entries": vict.n_non_victim,
                "median_view_hours": vict.median_view_window_hours(),
                "stats": {
                    name: getattr(parsed_sample.stats, name)
                    for name in _STATS_FIELDS
                },
            }
        )
    return rows


def daily_scanner_counts(world):
    """{day index: unique darknet scanner IPs} — Fig 9's ground truth."""
    return world.darknet.daily_unique_scanners()


def daily_traffic_answers(world):
    """{day index: (ntp_frac, dns_frac) or (None, None) on gap days}."""
    out = {}
    for daily in world.arbor.daily:
        if daily.total_bps:
            out[int(daily.day)] = (
                daily.ntp_bps / daily.total_bps,
                daily.dns_bps / daily.total_bps,
            )
        else:
            out[int(daily.day)] = (0.0, 0.0)
    for day in getattr(world.arbor, "missing_days", ()) or ():
        out.setdefault(int(day), (None, None))
    return out


def _site_cells(site):
    """Every (victim ip, hour, bytes) cell of a site, columnar + overlay."""
    cols = getattr(site, "_victim_cols", None)
    if cols is not None:
        ips, hours, volumes = cols
        yield from zip(
            (int(v) for v in ips.tolist()),
            (int(h) for h in hours.tolist()),
            (float(v) for v in volumes.tolist()),
        )
    for (ip, hour), volume in getattr(site, "victim_hourly", {}).items():
        yield int(ip), int(hour), float(volume)


def isp_day_answers(world, site_name="merit"):
    """Per sim-day ISP victim-flow aggregates for one site.

    ``{day index: {"cells": n, "victims": n, "bytes": float}}`` with the
    day index computed from absolute time (``site.start + hour * HOUR``),
    matching the engine's day-aligned ISP windows.
    """
    site = world.isp.sites.get(site_name)
    if site is None:
        return {}
    out = {}
    for ip, hour, volume in _site_cells(site):
        day = math.floor((site.start + hour * HOUR) / DAY)
        row = out.setdefault(day, {"cells": 0, "victims": {}, "bytes": 0.0})
        row["cells"] += 1
        row["victims"][ip] = row["victims"].get(ip, 0.0) + volume
        row["bytes"] += volume
    return {
        day: {
            "cells": row["cells"],
            "victims": len(row["victims"]),
            "bytes": row["bytes"],
        }
        for day, row in sorted(out.items())
    }


def isp_victim_byte_totals(world, site_name="merit"):
    """{victim ip: total bytes} across the whole site window (Fig 13)."""
    site = world.isp.sites.get(site_name)
    if site is None:
        return {}
    totals = {}
    for ip, _hour, volume in _site_cells(site):
        totals[ip] = totals.get(ip, 0.0) + volume
    return totals


def victim_packet_totals(ctx):
    """{victim ip: monlist packets across all samples} — the top-victims
    sketch's ground truth."""
    totals = {}
    for sample in ctx.victim_report().samples:
        for ip, packets in sample.packets_per_victim().items():
            totals[ip] = totals.get(ip, 0) + packets
    return totals


def victim_as_packet_totals(ctx):
    """{origin ASN: victim packets} over routed victims (per-AS sketch
    ground truth; unrouted victims are excluded, as the engine excludes
    them)."""
    table = ctx.world.table
    totals = {}
    for sample in ctx.victim_report().samples:
        for obs in sample.observations:
            asn = table.asn_of(obs.victim_ip)
            if asn is None:
                continue
            totals[asn] = totals.get(asn, 0) + obs.packets
    return totals


def amplifier_entry_totals(ctx):
    """{amplifier ip: recovered monlist entries across all samples}."""
    totals = {}
    for parsed_sample in ctx.parsed_samples():
        for table in parsed_sample.tables:
            if table.entries:
                totals[table.amplifier_ip] = totals.get(
                    table.amplifier_ip, 0
                ) + len(table.entries)
    return totals
