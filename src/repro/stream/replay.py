"""Replay adapters: a built world's datasets as one sim-time record stream.

The batch pipeline reads each dataset whole; the streaming engine wants
the same material as a single merged sequence of timestamped records, the
shape a live tap would deliver.  This module is the bridge: it walks the
world's packed capture stores and compacted flow arrays *without*
materializing object corpora, and yields :class:`StreamRecord` values in
nondecreasing sim-time order.

Record kinds
------------
``sweep``
    One per weekly ONP monlist sample (``t`` = sample time); the payload
    carries the apparatus flags (outage, coverage, capture count) so a
    sweep window exists even when an outage produced zero captures.
``capture``
    One per mode-7 probe capture (``t`` = its sample's time); the payload
    is the :class:`~repro.measurement.onp.ProbeCapture` view into the
    sample's packed store.  The engine buffers captures per window and
    decodes them in micro-batches with the *same* decoder the batch
    corpus uses — ParseStats counters are additive, so the stream's
    per-window stats equal the batch per-sample stats counter for counter.
``darknet``
    One per (day, scanner IP) membership in the telescope's compacted
    pair array (``t`` = the day's start).
``isp``
    One per (victim IP, hour, bytes) cell of the Merit site's compacted
    victim columns (``t`` = the hour's start) — the Fig 13 signal.
``arbor``
    One per daily traffic row (``t`` = the day's start); collector-outage
    days yield a payload of ``None`` (the explicit gap marker Fig 1
    renders, never an interpolated value).

Replay is a deliberate re-read of the measurement layer, so it does not
touch the parse-once ledger; the engine keeps its own ingest counters.
Every record carries a stable ``uid`` so duplicate-delivery tests can
inject repeats the engine must detect.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.util.simtime import DAY, HOUR, WEEK

__all__ = ["StreamRecord", "replay_records", "replay_plan"]

#: Deterministic tie-break for records sharing a timestamp: sweeps open
#: their window before captures fill it; flow kinds follow.
_KIND_RANK = {"sweep": 0, "capture": 1, "darknet": 2, "isp": 3, "arbor": 4}


class StreamRecord(NamedTuple):
    """One timestamped event of the merged stream.

    A ``NamedTuple`` rather than a dataclass: the replay constructs one
    per record in the serving hot path, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    t: float
    kind: str
    uid: tuple
    payload: object

    def sort_key(self, seq):
        return (self.t, _KIND_RANK.get(self.kind, 9), seq)


def _onp_records(world):
    for s_idx, sample in enumerate(world.onp.monlist_samples):
        n = len(sample)
        yield StreamRecord(
            t=float(sample.t),
            kind="sweep",
            uid=("sweep", s_idx),
            payload={
                "outage": bool(getattr(sample, "outage", False)),
                "coverage": float(getattr(sample, "coverage", 1.0)),
                "n_captures": n,
            },
        )
        packed = getattr(sample, "packed", None)
        if packed is not None:
            views = (packed.view(i) for i in range(len(packed)))
        else:
            views = iter(sample.captures)
        for c_idx, capture in enumerate(views):
            yield StreamRecord(
                t=float(sample.t),
                kind="capture",
                uid=("cap", s_idx, c_idx),
                payload=capture,
            )


def _darknet_records(world):
    darknet = world.darknet
    parts = []
    pairs = getattr(darknet, "_scanner_pairs", None)
    if pairs is not None and len(pairs):
        parts.append(np.asarray(pairs, dtype=np.int64))
    extra = [
        (int(day), int(ip))
        for day, ips in getattr(darknet, "_daily_scanners", {}).items()
        for ip in ips
    ]
    if extra:
        parts.append(np.array(extra, dtype=np.int64))
    if not parts:
        return
    merged = np.concatenate(parts) if len(parts) > 1 else parts[0]
    # Dedupe + lex-sort (day, ip) in one vectorized pass over a packed
    # 64-bit key; IPs are u32 and days small, so the packing is lossless.
    packed = (merged[:, 0] << np.int64(32)) | merged[:, 1]
    uniq = np.unique(packed)
    days = (uniq >> np.int64(32)).tolist()
    ips = (uniq & np.int64(0xFFFFFFFF)).tolist()
    for day, ip in zip(days, ips):
        yield StreamRecord(
            t=float(day * DAY), kind="darknet", uid=("dk", day, ip), payload=ip
        )


def _isp_records(world, site_name="merit"):
    site = world.isp.sites.get(site_name)
    if site is None:
        return
    rows = []
    cols = getattr(site, "_victim_cols", None)
    if cols is not None:
        ips, hours, volumes = cols
        rows.extend(
            zip(
                (int(v) for v in ips.tolist()),
                (int(h) for h in hours.tolist()),
                (float(v) for v in volumes.tolist()),
            )
        )
    for (ip, hour), volume in getattr(site, "victim_hourly", {}).items():
        rows.append((int(ip), int(hour), float(volume)))
    rows.sort(key=lambda r: (r[1], r[0]))
    for seq, (ip, hour, volume) in enumerate(rows):
        yield StreamRecord(
            t=float(site.start + hour * HOUR),
            kind="isp",
            uid=("isp", site_name, seq),
            payload=(ip, volume),
        )


def _arbor_records(world):
    # Measured days and fault-injected gap days interleave on the
    # timeline; emit them merged by day so this source is genuinely
    # time-ordered (the merge assumes it, and the watermark would
    # correctly refuse a gap record arriving after later measured days).
    arbor = world.arbor
    rows = [
        (daily.day, 0, (daily.total_bps, daily.ntp_bps, daily.dns_bps))
        for daily in arbor.daily
    ]
    rows.extend((day, 1, None) for day in getattr(arbor, "missing_days", ()) or ())
    rows.sort(key=lambda r: (r[0], r[1]))
    for day, _rank, payload in rows:
        yield StreamRecord(
            t=float(day * DAY), kind="arbor", uid=("ab", day), payload=payload
        )


def replay_records(world, site_name="merit"):
    """The world's records merged in nondecreasing sim-time order.

    Each source is already time-ordered and each kind carries a fixed
    tie-break rank, so one stable lexsort over ``(t, rank)`` reproduces
    exactly the order a ``heapq.merge`` on ``(t, rank, sequence)`` keys
    would — records of equal key keep their source order — at a fraction
    of the per-record cost.  Two replays of the same world produce
    identical streams.

    Returns a list: the sort has to materialize every record anyway, and
    handing the finished buffer back lets the serving path pay replay
    construction once up front instead of smearing generator resumption
    over its ingest hot loop.
    """
    records = []
    for source in (
        _onp_records(world),
        _darknet_records(world),
        _isp_records(world, site_name),
        _arbor_records(world),
    ):
        records.extend(source)
    n = len(records)
    if not n:
        return []
    t = np.fromiter((r.t for r in records), dtype=np.float64, count=n)
    rank = np.fromiter(
        (_KIND_RANK.get(r.kind, 9) for r in records), dtype=np.int64, count=n
    )
    return [records[i] for i in np.lexsort((rank, t)).tolist()]


def replay_plan(world, site_name="merit"):
    """The engine-configuration facts a replay implies.

    ``capture_origin`` aligns the weekly capture windows so each monlist
    sample lands in its own window; ``expected`` carries per-kind record
    counts for ingest-rate provenance (BENCH_serve.json) and end-of-run
    accounting checks.
    """
    samples = world.onp.monlist_samples
    origin = float(samples[0].t) if samples else 0.0
    site = world.isp.sites.get(site_name)
    counts = {
        "sweep": len(samples),
        "capture": sum(len(s) for s in samples),
        "darknet": sum(1 for _ in _darknet_records(world)),
        "isp": sum(1 for _ in _isp_records(world, site_name)),
        "arbor": sum(1 for _ in _arbor_records(world)),
    }
    return {
        "capture_origin": origin,
        "capture_width": float(WEEK),
        "isp_origin": float(site.start) if site is not None else 0.0,
        "site": site_name,
        "expected": counts,
        "expected_total": sum(counts.values()),
    }
