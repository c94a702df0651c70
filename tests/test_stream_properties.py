"""Property tests for the streaming layer's machinery.

Families driven by the shared strategies in ``tests/strategies.py``,
plus real-world engine checks:

* window arithmetic — ``index_of``/``bounds`` containment is exact, even
  at float boundaries, and ``index_array`` agrees with ``index_of``;
* watermark accounting — for any arrival order within a bounded skew
  (plus duplicate deliveries), offered in batches of one or of random
  sizes, every record lands in exactly one ledger, the books balance, and
  the batch ledger equals the record-at-a-time reference rule;
* sketch bounds — count-min and space-saving keep their declared error
  bounds, and each sketch's ``add_many`` equals one ``add`` per key;
* the engine's ledger, ``late_uids`` and every answer on reordered and
  redelivered replays of a small world equal the reference ledger's, at
  chunk sizes from one row to the whole stream;
* a sample built capture-by-capture replays like the same sample packed;
* a retired engine is freed by reference counting alone.
"""

import gc
import json
import math
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement.capture_store import pack_captures
from repro.measurement.onp import OnpSample, ProbeCapture
from repro.scenario.world import PaperWorld
from repro.stream import QUERY_NAMES, StreamEngine, replay_plan, replay_records
from repro.stream import sketches
from repro.stream.replay import KINDS
from repro.stream.sketches import CountMinSketch, SpaceSavingTopK, _hash_row
from repro.stream.windows import TumblingWindows, WindowSet
from tests.strategies import (
    bounded_skews,
    chunkings,
    index_streams,
    record_streams,
    reference_ledger,
    sketch_streams,
    stream_events,
    window_widths,
)

# ---------------------------------------------------------------------------
# Window assignment
# ---------------------------------------------------------------------------


@given(
    window_widths,
    st.floats(min_value=-1e6, max_value=1e7, allow_nan=False),
    st.floats(min_value=0.0, max_value=3e6, allow_nan=False),
)
def test_window_assignment_contains_its_time(width, origin, t):
    windows = TumblingWindows(width, origin=origin)
    index = windows.index_of(t)
    lo, hi = windows.bounds(index)
    assert lo <= t < hi
    assert windows.contains(index, t)
    assert windows.index_array(np.array([t])).tolist() == [index]


@given(window_widths, st.integers(min_value=-100, max_value=100))
def test_window_bounds_tile_the_line(width, index):
    windows = TumblingWindows(width, origin=0.0)
    lo, hi = windows.bounds(index)
    assert hi == windows.bounds(index + 1)[0]
    assert lo < hi


# ---------------------------------------------------------------------------
# Watermark handling and the accounting ledger
# ---------------------------------------------------------------------------


class _KeepEveryLateRow(WindowSet):
    LATE_UID_KEEP = 10**9


def _drive(arrivals, skew, chunking=(1,), width=7200.0, ws=None, late_rows=False):
    """Feed one WindowSet the way the engine does, in batches cut by
    ``chunking`` (cycled); return it + the applied event times.  With
    ``late_rows`` its ``late_uids`` record arrival positions, not uids."""
    ws = ws if ws is not None else WindowSet(width, state_factory=lambda: {"n": 0})
    if not arrivals:
        return ws, []
    t = np.array([a[0] for a in arrivals], dtype=np.float64)
    uids = np.array([a[3] for a in arrivals], dtype=np.int64)
    watermark = np.maximum.accumulate(t) - skew
    applied_times = []
    lo = step = 0
    while lo < len(t):
        hi = min(len(t), lo + chunking[step % len(chunking)])
        step += 1
        groups = ws.offer_batch(
            t[lo:hi],
            uids[lo:hi],
            watermark[lo:hi],
            lambda j, lo=lo: lo + j if late_rows else int(uids[lo + j]),
        )
        for _index, window, rows in groups:
            window.state["n"] += len(rows)
            applied_times.extend(t[lo + rows].tolist())
        for index, _lo, _hi, window in ws.advance(watermark[hi - 1]):
            ws.retire(index, dict(window.state))
        lo = hi
    return ws, applied_times


@given(record_streams(), chunkings)
def test_every_record_lands_in_exactly_one_ledger(stream, chunking):
    arrivals, skew = stream
    ws, applied_times = _drive(arrivals, skew, chunking)
    assert ws.balanced
    assert ws.total == len(arrivals)
    assert ws.applied == len(applied_times)
    for index, _lo, _hi, window in ws.close_all():
        ws.retire(index, dict(window.state))
    assert ws.balanced
    # Applied records are exactly the ones the window summaries retain.
    assert sum(s["n"] for s in ws.closed.values()) == ws.applied
    assert not ws.open


@given(record_streams(), chunkings)
def test_applied_records_sit_inside_their_windows(stream, chunking):
    arrivals, skew = stream
    ws, applied_times = _drive(arrivals, skew, chunking)
    for t in applied_times:
        assert ws.windows.contains(ws.windows.index_of(t), t)


@given(st.lists(stream_events, min_size=0, max_size=100), bounded_skews, chunkings)
def test_in_order_unique_stream_is_never_late_or_duplicate(events, skew, chunking):
    ordered = sorted(events, key=lambda e: e[0])
    arrivals = [(t, kind, key, uid) for uid, (t, kind, key) in enumerate(ordered)]
    ws, _ = _drive(arrivals, skew, chunking)
    assert ws.late == 0
    assert ws.duplicate == 0
    assert ws.applied == len(arrivals)


@given(st.lists(stream_events, min_size=1, max_size=50), chunkings)
def test_redelivery_into_an_open_window_is_a_duplicate(events, chunking):
    # Infinite skew: no window ever closes, so every re-send of a uid is
    # caught by the open window's seen-set, never misfiled as late.
    ordered = sorted(events, key=lambda e: e[0])
    arrivals = [(t, kind, key, uid) for uid, (t, kind, key) in enumerate(ordered)]
    arrivals = arrivals + arrivals
    ws, _ = _drive(arrivals, float("inf"), chunking)
    assert ws.duplicate == len(ordered)
    assert ws.late == 0
    assert ws.applied == len(ordered)
    assert ws.balanced


@given(record_streams(), chunkings)
def test_late_records_only_after_the_watermark_passed_their_window(stream, chunking):
    # A record may only be refused as late when the watermark it arrived
    # under has genuinely passed its window's end — whether or not any
    # earlier record opened that window, and wherever the batch cut fell.
    arrivals, skew = stream
    ws = _KeepEveryLateRow(7200.0, state_factory=lambda: {"n": 0})
    _drive(arrivals, skew, chunking, ws=ws, late_rows=True)
    assert len(ws.late_uids) == ws.late
    max_t = -math.inf
    arrived = []
    for t, _kind, _key, _uid in arrivals:
        max_t = max(max_t, t)
        arrived.append(max_t - skew)
    for row in ws.late_uids:
        t = arrivals[row][0]
        assert ws.windows.bounds(ws.windows.index_of(t))[1] <= arrived[row]


@given(record_streams(), chunkings)
def test_batch_ledger_equals_the_record_at_a_time_rule(stream, chunking):
    """Whatever the batch cut, the ledger — late uids included — is the
    reference rule's."""
    arrivals, skew = stream
    ws, _ = _drive(arrivals, skew, chunking)
    rows = [(t, "k", uid) for t, _kind, _key, uid in arrivals]
    ledger = reference_ledger(rows, skew, {"k": (7200.0, 0.0)})
    accounting = ws.accounting()
    for field in ("total", "applied", "late", "duplicate", "late_uids"):
        assert accounting[field] == ledger["k"][field], field


# ---------------------------------------------------------------------------
# Sketch bounds
# ---------------------------------------------------------------------------


def _totals(stream):
    out = {}
    for key, weight in stream:
        out[key] = out.get(key, 0) + weight
    return out


def _cm_of(stream):
    cm = CountMinSketch()
    for key, weight in stream:
        cm.add(key, weight)
    return cm


def _ss_of(stream, capacity=8):
    ss = SpaceSavingTopK(capacity)
    for key, weight in stream:
        ss.add(key, weight)
    return ss


@given(sketch_streams)
def test_count_min_respects_its_declared_bound(stream):
    cm = _cm_of(stream)
    truth = _totals(stream)
    assert cm.total == sum(truth.values())
    for key, true in truth.items():
        estimate = cm.estimate(key)
        assert true <= estimate <= true + cm.error_bound()


def test_count_min_equality_includes_geometry():
    """Sketches of different width or depth are never equal, even while
    both are empty; equal geometry and equal adds compare equal."""
    assert CountMinSketch(epsilon=0.005) != CountMinSketch(epsilon=0.05)
    assert CountMinSketch(delta=0.01) != CountMinSketch(delta=0.2)
    assert _cm_of([(3, 2), (9, 1)]) == _cm_of([(9, 1), (3, 2)])


@given(sketch_streams)
def test_space_saving_tracks_every_guaranteed_heavy_hitter(stream):
    ss = _ss_of(stream)
    truth = _totals(stream)
    assert ss.total == sum(truth.values())
    assert len(ss.counters) <= ss.capacity
    threshold = ss.guarantee_threshold()
    for key, true in truth.items():
        if true > threshold:
            assert key in ss.counters
    for key, count, error in ss.top():
        true = truth.get(key, 0)
        assert true <= count <= true + error


#: Count-min keys: a small repeated range, negatives, and keys past 2**32.
cm_keys = st.one_of(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=-(2**40), max_value=-1),
    st.integers(min_value=2**32, max_value=2**62),
)


@given(
    st.lists(cm_keys, min_size=1, max_size=60),
    st.booleans(),
    st.sampled_from(["cold", "warm", "partly warm"]),
    st.data(),
)
def test_count_min_add_many_equals_per_key_add(keys, float_weights, table, data):
    weight = (
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
        if float_weights
        else st.integers(min_value=0, max_value=10**6)
    )
    weights = data.draw(st.lists(weight, min_size=len(keys), max_size=len(keys)))
    sketches._CELL_TABLES.clear()
    if table != "cold":
        warm = keys if table == "warm" else keys[::2]
        CountMinSketch().add_many(warm, [0] * len(warm))
    batched = CountMinSketch()
    batched.add_many(keys, weights)
    one_by_one = CountMinSketch()
    for key, w in zip(keys, weights):
        one_by_one.add(key, w)
    assert np.array_equal(batched.rows, one_by_one.rows)
    assert batched.rows.dtype == one_by_one.rows.dtype
    if float_weights:
        # add_many adds the batch's NumPy (pairwise) sum to the total.
        assert batched.total == pytest.approx(one_by_one.total, rel=1e-12, abs=1e-6)
    else:
        assert batched.total == one_by_one.total
    [cell_table] = sketches._CELL_TABLES.values()
    assert np.all(cell_table.keys[1:] > cell_table.keys[:-1])
    for key in keys:
        at = int(np.searchsorted(cell_table.keys, key))
        assert cell_table.keys[at] == key
        expected = [_hash_row(key, salt) % batched.width for salt in batched._salts]
        assert cell_table.cols[at].tolist() == expected


@given(
    st.sampled_from([1, 2, 64]),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=150), st.integers(min_value=0, max_value=5)),
        max_size=300,
    ),
    chunkings,
)
def test_space_saving_add_many_equals_sequential_add(capacity, stream, chunking):
    # A tail of repeated bumps to tracked keys leaves more than eight
    # stale heap entries per slot, forcing a heap rebuild mid-fold.
    stream = stream + [(key % capacity, 1) for key in range(9 * capacity)]
    batched = SpaceSavingTopK(capacity)
    lo = step = 0
    while lo < len(stream):
        chunk = stream[lo : lo + chunking[step % len(chunking)]]
        batched.add_many([k for k, _ in chunk], [w for _, w in chunk])
        lo += len(chunk)
        step += 1
    one_by_one = _ss_of(stream, capacity)
    assert batched.counters == one_by_one.counters
    assert batched.errors == one_by_one.errors
    assert batched.total == one_by_one.total
    assert batched.top() == one_by_one.top()


# ---------------------------------------------------------------------------
# The engine against the reference ledger, on reordered replays
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_world():
    return PaperWorld.build(seed=7, scale=0.0002)


@pytest.fixture(scope="module")
def small_replay(small_world):
    return replay_records(small_world)


def _served_answers(engine):
    """Every query answer as the service would serialize it."""
    out = {name: json.dumps(engine.query(name), sort_keys=True) for name in QUERY_NAMES}
    out["snapshot"] = json.dumps(engine.snapshot(), sort_keys=True)
    return out


def _adversarial_order(n):
    """The ordered replay's indices, roughed up: every 7th row displaced
    later (some land inside the skew, some genuinely late) and every 31st
    redelivered."""
    order, held = [], []
    for i in range(n):
        if i % 7 == 3:
            held.append(i)
            if len(held) >= 5:
                order.extend(held)
                held.clear()
        else:
            order.append(i)
        if i % 31 == 17 and order:
            order.append(order[-1])
    return order + held


def _check_against_reference(world, records, order, skew):
    stream = records[np.array(order, dtype=np.int64)]
    plan = replay_plan(world)
    answers = []
    for chunk in (1, 7, 64, len(stream)):
        engine = StreamEngine.for_world(world, plan=plan, skew=skew)
        for lo in range(0, len(stream), chunk):
            engine.ingest_many(stream[lo : lo + chunk])
        if chunk == 1:
            geometry = {
                kind: (ws.windows.width, ws.windows.origin) for kind, ws in engine.windows.items()
            }
            rows = (
                (t, KINDS[code], stream.uid(row))
                for row, (t, code) in enumerate(zip(stream.t.tolist(), stream.kind.tolist()))
            )
            ledger = reference_ledger(rows, skew, geometry)
            for kind, accounting in engine.query_ingest()["kinds"].items():
                assert {field: accounting[field] for field in ledger[kind]} == ledger[kind], kind
        engine.close()
        assert engine.balanced
        answers.append(_served_answers(engine))
    for other in answers[1:]:
        assert other == answers[0]


@pytest.mark.parametrize("skew", [0.0, 3600.0, 2 * 86400.0])
def test_adversarial_replay_matches_reference_ledger(small_world, small_replay, skew):
    order = _adversarial_order(len(small_replay))
    _check_against_reference(small_world, small_replay, order, skew)


@pytest.mark.parametrize("skew", [0.0, 3600.0, 2 * 86400.0])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_reordered_replay_matches_reference_ledger(small_world, small_replay, skew, data):
    """Drawn swaps, redeliveries and late moves: the engine's per-kind
    ledger and ``late_uids`` equal the record-at-a-time reference's, and
    every answer is the same at chunk sizes 1, 7, 64 and the whole
    stream."""
    order = data.draw(index_streams(len(small_replay)))
    _check_against_reference(small_world, small_replay, order, skew)


def test_records_after_close_are_late(small_world, small_replay):
    """``close()`` closes every window for good: a record offered after it
    is late even though the watermark has not passed its window."""
    engine = StreamEngine.for_world(small_world)
    engine.ingest_many(small_replay)
    engine.close()
    before = _served_answers(engine)
    tail = small_replay[-100:]
    assert engine.ingest_many(tail) == 0
    kinds = engine.query_ingest()["kinds"]
    assert sum(acc["late"] for acc in kinds.values()) == len(tail)
    assert engine.balanced
    after = _served_answers(engine)
    assert {k: v for k, v in after.items() if k not in ("ingest", "snapshot")} == {
        k: v for k, v in before.items() if k not in ("ingest", "snapshot")
    }


def test_capture_by_capture_sample_replays_like_the_packed_sample(small_world):
    """A sample built capture-by-capture (no packed store) is packed once
    by the replay and takes the one decoder: every answer, window
    summaries and ParseStats included, equals the same captures served
    out of a ``PackedCaptures`` store — mutated captures on the salvage
    path too."""
    loose_samples, packed_samples = [], []
    for sample in small_world.onp.monlist_samples:
        captures = []
        for view in sample.captures:
            packets = list(view.packets)
            if len(captures) % 5 == 0 and packets:
                packets[0] = packets[0][:-3]  # a torn fragment: irregular capture
            captures.append(ProbeCapture(view.target_ip, view.t, tuple(packets), view.n_repeats))
        extra = {"outage": sample.outage, "coverage": sample.coverage}
        loose_samples.append(OnpSample(sample.t, sample.mode, captures=captures, **extra))
        packed = OnpSample(sample.t, sample.mode, **extra)
        packed.attach_packed(pack_captures(captures, sample.t))
        packed_samples.append(packed)
    answers = []
    for samples in (loose_samples, packed_samples):
        world = types.SimpleNamespace(
            onp=types.SimpleNamespace(monlist_samples=samples),
            darknet=small_world.darknet,
            isp=small_world.isp,
            arbor=small_world.arbor,
            table=small_world.table,
        )
        records = replay_records(world)
        engine = StreamEngine.for_world(world)
        for lo in range(0, len(records), 64):
            engine.ingest_many(records[lo : lo + 64])
        engine.close()
        answers.append(_served_answers(engine))
    assert answers[0] == answers[1]
    stats = json.loads(answers[0]["parse_stats"])
    assert stats["captures_salvaged"] + stats["captures_failed"] > 0


def test_retired_engine_is_freed_by_refcount(small_world, small_replay):
    """No reference cycles: with the cyclic collector off, dropping the
    last reference to a used engine frees it."""
    gc.collect()
    gc.disable()
    try:
        engine = StreamEngine.for_world(small_world)
        half = len(small_replay) // 2
        for lo in range(0, len(small_replay), 512):
            engine.ingest_many(small_replay[lo : lo + 512])
            if lo <= half < lo + 512:
                _served_answers(engine)  # reads against open windows
        engine.close()
        _served_answers(engine)
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()
