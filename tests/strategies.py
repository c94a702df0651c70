"""Shared Hypothesis strategies: one generator layer for every property test.

Before this module each fuzz/property test module grew its own ad-hoc
generators for the same domain objects (IPv4 addresses, mode-7 packet sets,
monlist MRU event streams, survival anchors, ...).  They now live here so a
widened range or a new edge case benefits every consumer at once, and so
new tests (the conformance harness's own fuzzing included) don't re-invent
them.

Everything exported is either a Hypothesis ``SearchStrategy`` or a small
deterministic helper for building canonical wire fixtures.
"""

from hypothesis import strategies as st

from repro.analysis.monlist_parse import ParseStats, reconstruct_table_lenient
from repro.measurement.onp import ProbeCapture
from repro.net import Prefix
from repro.ntp import MonlistTable
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD
from repro.ntp.wire import MonitorEntry
from repro.stream.windows import TumblingWindows
from repro.util.simtime import DAY

__all__ = [
    "ips",
    "ports",
    "prefixes",
    "udp_payload_sizes",
    "binary_blobs",
    "entry_versions",
    "monitor_entries",
    "monlist_events",
    "survival_anchor_lists",
    "timeline_points",
    "attack_specs",
    "poll_bounds",
    "world_seeds",
    "world_scales",
    "fault_preset_names",
    "shard_partitions",
    "build_packets",
    "capture_of",
    "lenient_parse",
    "BASE_PACKET_SETS",
    "V1_PACKET_SETS",
    "sketch_streams",
    "stream_events",
    "record_streams",
    "window_widths",
    "bounded_skews",
    "chunkings",
    "index_streams",
    "reference_ledger",
]

# -- network primitives --------------------------------------------------------

#: Any IPv4 address as a host-order integer.
ips = st.integers(min_value=0, max_value=2**32 - 1)

#: Any UDP port.
ports = st.integers(min_value=0, max_value=65535)

#: Any IPv4 prefix (the /0 default route is excluded, as the routing plan
#: never carries one).
prefixes = st.builds(
    Prefix,
    ips,
    st.integers(min_value=1, max_value=32),
)

#: UDP payload sizes up to an un-fragmented 1500-MTU datagram.
udp_payload_sizes = st.integers(min_value=0, max_value=1472)

#: Raw bytes in the size range of real mode-7 datagrams (for feeding
#: decoders garbage).
binary_blobs = st.binary(min_size=0, max_size=400)

# -- NTP wire objects ----------------------------------------------------------

#: Monlist entry wire versions (v1 = 32-byte, v2 = 72-byte entries).
entry_versions = st.sampled_from([1, 2])

#: Any in-range mode-7 monitor entry (the encode/decode round-trip domain).
monitor_entries = st.builds(
    MonitorEntry,
    last_int=ips,  # 32-bit seconds field, same range as an address
    first_int=ips,
    count=ips,
    addr=ips,
    daddr=st.just(0),
    flags=st.just(0),
    port=ports,
    mode=st.integers(min_value=0, max_value=7),
    version=st.integers(min_value=1, max_value=4),
    restr=st.just(0),
)

#: (addr, time) event streams for exercising the monlist MRU table.
monlist_events = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


def build_packets(n_clients, now=1000.0, entry_version=2):
    """A canonical clean mode-7 response: ``n_clients`` distinct entries
    rendered into the real multi-packet wire format, as modern ntpd's
    72-byte v2 entries or (``entry_version=1``) legacy xntpd's 32-byte v1
    entries."""
    table = MonlistTable(capacity=600)
    for i in range(n_clients):
        table.record(1000 + i, 123, 3, 4, now=float(i))
    implementation = IMPL_XNTPD if entry_version == 2 else IMPL_XNTPD_OLD
    return tuple(table.render_response_packets(now, entry_version, implementation))


def capture_of(packets, target_ip=42, t=1000.0):
    """Wrap raw packets as a :class:`ProbeCapture` (the parser's input)."""
    return ProbeCapture(target_ip=target_ip, t=t, packets=tuple(packets), n_repeats=1)


def lenient_parse(sample):
    """Reference parse of one ONP sample: the lenient salvage path per
    capture, as ``(tables, stats)`` — the tables that parsed, in capture
    order, and the sample's :class:`ParseStats`.

    The columnar decoder must be indistinguishable from this: it
    reassembles well-formed captures itself, in order or not, under this
    path's rule (first copy of a sequence wins, the run from the lowest
    sequence is kept), and hands every capture with a malformed packet
    to exactly this path.
    """
    stats = ParseStats()
    tables = []
    for capture in sample.captures:
        table = reconstruct_table_lenient(capture, stats)
        if table is not None:
            tables.append(table)
    return tables, stats


#: Clean baseline packet sets by client count — the corpus the mutation
#: fuzzers (bit flips, drops, reorders, duplicates) start from.
BASE_PACKET_SETS = {n: build_packets(n) for n in (1, 4, 20, 40)}

#: The same tables as v1 (32-byte entry) responses, so the decoder's v1
#: branch sees the same mutations.
V1_PACKET_SETS = {n: build_packets(n, entry_version=1) for n in (1, 4, 20, 40)}

# -- analysis-domain values ----------------------------------------------------

#: Monotone-decreasing survival fractions (remediation curve anchors).
survival_anchor_lists = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=2, max_size=8
).map(lambda vs: sorted(vs, reverse=True))

#: Sorted, deduplicated (t, value) anchor lists for Timeline interpolation.
timeline_points = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
    ),
    min_size=2,
    max_size=8,
    unique_by=lambda p: round(p[0], 3),
).map(lambda ps: sorted(ps))

#: (start, duration, target_bps) triples for synthetic attacks.
attack_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20 * DAY, allow_nan=False),
        st.floats(min_value=1.0, max_value=3 * DAY, allow_nan=False),
        st.floats(min_value=1e3, max_value=1e9, allow_nan=False),
    ),
    min_size=0,
    max_size=12,
)

#: (start, width, poll_interval) windows for client-poll-count properties.
poll_bounds = st.tuples(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
    st.floats(min_value=10.0, max_value=5000.0, allow_nan=False),
)

# -- world parameters ----------------------------------------------------------

#: Seeds in the range the conformance matrix and golden tests use.
world_seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: Scales small enough that a property test could afford to build a world.
world_scales = st.sampled_from([0.0002, 0.0004, 0.0005, 0.0008, 0.001])

#: The registered fault presets.
fault_preset_names = st.sampled_from(["clean", "paper", "hostile"])

#: ``(n_items, n_blocks)`` pairs for the columnar build's block partitioner
#: (:func:`repro.population.columns.balanced_split`): covers empty pools,
#: fewer items than blocks, and block counts well past ``HOST_BLOCKS``.
shard_partitions = st.tuples(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=1, max_value=64),
)

# -- streaming-analysis domains ------------------------------------------------

#: (key, weight) streams for sketch properties; small key space so
#: collisions, evictions, and heavy hitters all occur.
sketch_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=0,
    max_size=300,
)

#: Tumbling-window widths in the range the engine uses (an hour to a week).
window_widths = st.floats(min_value=3600.0, max_value=7 * DAY, allow_nan=False)

#: Watermark skews from strictly-in-order up to a full day of tolerated lag.
bounded_skews = st.floats(min_value=0.0, max_value=DAY, allow_nan=False)

#: One synthetic stream event: (event time, kind, payload key).  Kinds
#: mirror the replay adapter's interleaving of capture and flow records.
stream_events = st.tuples(
    st.floats(min_value=0.0, max_value=30 * DAY, allow_nan=False),
    st.sampled_from(["capture", "darknet", "isp"]),
    st.integers(min_value=0, max_value=50),
)


@st.composite
def record_streams(draw, max_events=120):
    """Sim-time-ordered event streams with bounded out-of-order arrival
    and duplicate deliveries.

    Returns ``(events, skew)`` where ``events`` is a list of
    ``(t, kind, key, uid)`` tuples in *arrival* order: the underlying
    stream is time-sorted, each arrival is then displaced backward by at
    most ``skew`` seconds (so a watermark lagging the stream head by
    ``skew`` never mistakes an in-flight record for a late one... unless
    it is genuinely late, which the generator also produces), and some
    records are delivered twice with the same uid.
    """
    events = sorted(
        draw(st.lists(stream_events, min_size=0, max_size=max_events)),
        key=lambda e: e[0],
    )
    skew = draw(bounded_skews)
    arrivals = []
    for uid, (t, kind, key) in enumerate(events):
        jitter = draw(
            st.floats(min_value=0.0, max_value=2.0 * skew + 1.0, allow_nan=False)
        )
        # Arrival position is perturbed; event time is not.
        arrivals.append((t + jitter, (t, kind, key, uid)))
    arrivals.sort(key=lambda pair: (pair[0], pair[1][3]))
    ordered = [record for _pos, record in arrivals]
    # Duplicate deliveries: re-send a few already-delivered records.
    dup_indexes = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(0, len(ordered) - 1)),
            min_size=0,
            max_size=5,
        )
    )
    if ordered:
        for index in dup_indexes:
            insert_at = draw(
                st.integers(min_value=index + 1, max_value=len(ordered))
            )
            ordered.insert(insert_at, ordered[index])
    return ordered, skew


#: How a stream is cut into ``ingest_many`` / ``offer_batch`` calls: one
#: row per call, or a cycle of drawn batch sizes.
chunkings = st.one_of(
    st.just([1]), st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8)
)


@st.composite
def index_streams(draw, n):
    """Arrival orders over ``n`` replay rows: the sorted order roughed up
    by adjacent swaps, redeliveries (a row delivered again later) and rows
    moved far later — the shapes that make records late or duplicate."""
    order = list(range(n))
    if n < 2:
        return order
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        i = draw(st.integers(min_value=0, max_value=len(order) - 2))
        order[i], order[i + 1] = order[i + 1], order[i]
    for _ in range(draw(st.integers(min_value=0, max_value=15))):
        i = draw(st.integers(min_value=0, max_value=len(order) - 1))
        order.insert(draw(st.integers(min_value=i + 1, max_value=len(order))), order[i])
    for _ in range(draw(st.integers(min_value=0, max_value=15))):
        i = draw(st.integers(min_value=0, max_value=len(order) - 1))
        j = draw(st.integers(min_value=i, max_value=len(order) - 1))
        order.insert(j, order.pop(i))
    return order


def reference_ledger(rows, skew, geometry, keep=32):
    """The record-at-a-time ingest rule, one row after another — the
    oracle the batch ledger is held to.

    ``rows`` yields ``(t, kind, uid)`` in arrival order and ``geometry``
    maps each kind to its window ``(width, origin)``.  After each row the
    watermark (max event time so far minus ``skew``) closes every open
    window whose end it has passed.  A row whose window is not open is
    late once its window's end is at or below the watermark; otherwise a
    uid already applied to its window is a duplicate.  Returns the
    per-kind ledger, with the first ``keep`` late uids.
    """
    windows = {kind: TumblingWindows(*shape) for kind, shape in geometry.items()}
    ledger = {
        kind: {"total": 0, "applied": 0, "late": 0, "duplicate": 0, "late_uids": []}
        for kind in geometry
    }
    open_seen, max_t = {}, None
    for t, kind, uid in rows:
        index = windows[kind].index_of(t)
        max_t = t if max_t is None else max(max_t, t)
        watermark = max_t - skew
        acc = ledger[kind]
        acc["total"] += 1
        seen = open_seen.get((kind, index))
        if seen is None and windows[kind].bounds(index)[1] <= watermark:
            decision = "late"
            if len(acc["late_uids"]) < keep:
                acc["late_uids"].append(uid)
        elif seen is not None and uid in seen:
            decision = "duplicate"
        else:
            open_seen.setdefault((kind, index), set()).add(uid)
            decision = "applied"
        acc[decision] += 1
        for key in [k for k in open_seen if windows[k[0]].bounds(k[1])[1] <= watermark]:
            del open_seen[key]
    return ledger
