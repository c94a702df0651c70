"""Property tests for the streaming layer's machinery.

Three families driven by the shared strategies in
``tests/strategies.py``, plus one real-world engine check:

* window arithmetic — ``index_of``/``bounds`` containment is exact, even
  at float boundaries;
* watermark accounting — for any arrival order within a bounded skew
  (plus duplicate deliveries), every record lands in exactly one ledger
  and the books balance;
* sketch algebra — count-min and space-saving merges are commutative,
  and the declared error bounds survive both single-stream use and
  merging;
* ``ingest_many`` matches per-record ``ingest`` on an adversarially
  reordered replay of a small world (the promise its docstring makes);
* capture payloads without a packed store decode exactly like the same
  captures served out of one.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.measurement.capture_store import pack_captures
from repro.measurement.onp import ProbeCapture
from repro.scenario.world import PaperWorld
from repro.stream import QUERY_NAMES, StreamEngine, replay_plan, replay_records
from repro.stream.sketches import CountMinSketch, SpaceSavingTopK
from repro.stream.windows import TumblingWindows, WindowSet
from tests.strategies import (
    bounded_skews,
    record_streams,
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


@given(window_widths, st.integers(min_value=-100, max_value=100))
def test_window_bounds_tile_the_line(width, index):
    windows = TumblingWindows(width, origin=0.0)
    lo, hi = windows.bounds(index)
    assert hi == windows.bounds(index + 1)[0]
    assert lo < hi


# ---------------------------------------------------------------------------
# Watermark handling and the accounting ledger
# ---------------------------------------------------------------------------


def _drive(arrivals, skew, width=7200.0):
    """Feed one WindowSet the way the engine does; return it + applied log."""
    ws = WindowSet(width, state_factory=lambda: {"n": 0})
    applied_times = []
    max_t = None
    for t, _kind, _key, uid in arrivals:
        max_t = t if max_t is None else max(max_t, t)
        watermark = max_t - skew
        state = ws.offer(t, uid, watermark)
        if state is not None:
            state["n"] += 1
            applied_times.append(t)
        ws.advance(watermark)
    return ws, applied_times


@given(record_streams())
def test_every_record_lands_in_exactly_one_ledger(stream):
    arrivals, skew = stream
    ws, applied_times = _drive(arrivals, skew)
    assert ws.balanced
    assert ws.total == len(arrivals)
    assert ws.applied == len(applied_times)
    ws.close_all()
    assert ws.balanced
    # Applied records are exactly the ones the window summaries retain.
    assert sum(s["n"] for s in ws.closed.values()) == ws.applied
    assert not ws.open


@given(record_streams())
def test_applied_records_sit_inside_their_windows(stream):
    arrivals, skew = stream
    ws, applied_times = _drive(arrivals, skew)
    for t in applied_times:
        assert ws.windows.contains(ws.windows.index_of(t), t)


@given(st.lists(stream_events, min_size=0, max_size=100), bounded_skews)
def test_in_order_unique_stream_is_never_late_or_duplicate(events, skew):
    ordered = sorted(events, key=lambda e: e[0])
    arrivals = [(t, kind, key, uid) for uid, (t, kind, key) in enumerate(ordered)]
    ws, _ = _drive(arrivals, skew)
    assert ws.late == 0
    assert ws.duplicate == 0
    assert ws.applied == len(arrivals)


@given(st.lists(stream_events, min_size=1, max_size=50))
def test_redelivery_into_an_open_window_is_a_duplicate(events):
    # Infinite skew: no window ever closes, so every re-send of a uid is
    # caught by the open window's seen-set, never misfiled as late.
    ordered = sorted(events, key=lambda e: e[0])
    arrivals = [(t, kind, key, uid) for uid, (t, kind, key) in enumerate(ordered)]
    arrivals = arrivals + arrivals
    ws, _ = _drive(arrivals, skew=float("inf"))
    assert ws.duplicate == len(ordered)
    assert ws.late == 0
    assert ws.applied == len(ordered)
    assert ws.balanced


@given(record_streams())
def test_late_records_only_after_the_watermark_passed_their_window(stream):
    arrivals, skew = stream
    ws = WindowSet(7200.0, state_factory=lambda: {"n": 0})
    max_t = None
    for t, _kind, _key, uid in arrivals:
        max_t = t if max_t is None else max(max_t, t)
        watermark = max_t - skew
        before = ws.late
        state = ws.offer(t, uid, watermark)
        if ws.late > before:
            # A record may only be refused as late when the watermark has
            # genuinely passed its window's end — whether or not any
            # earlier record opened that window.
            assert state is None
            index = ws.windows.index_of(t)
            assert ws.windows.bounds(index)[1] <= watermark
            assert index not in ws.open
        ws.advance(watermark)


# ---------------------------------------------------------------------------
# Sketch algebra
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


@given(sketch_streams, sketch_streams)
def test_count_min_merge_is_commutative_and_bound_preserving(a, b):
    cm_a, cm_b = _cm_of(a), _cm_of(b)
    merged = cm_a.merge(cm_b)
    assert merged == cm_b.merge(cm_a)
    assert merged.total == cm_a.total + cm_b.total
    assert merged.error_bound() == merged.epsilon * merged.total
    truth = _totals(a + b)
    for key, true in truth.items():
        assert true <= merged.estimate(key) <= true + merged.error_bound()
    # Merging never mutates the inputs.
    assert cm_a == _cm_of(a)
    assert cm_b == _cm_of(b)


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


@given(sketch_streams, sketch_streams)
def test_space_saving_merge_is_commutative(a, b):
    ss_a, ss_b = _ss_of(a), _ss_of(b)
    merged = ss_a.merge(ss_b)
    assert merged == ss_b.merge(ss_a)
    assert merged.total == ss_a.total + ss_b.total
    assert len(merged.counters) <= merged.capacity
    # Merging never mutates the inputs.
    assert ss_a == _ss_of(a)
    assert ss_b == _ss_of(b)


@given(sketch_streams, sketch_streams)
def test_space_saving_merge_preserves_count_bounds(a, b):
    merged = _ss_of(a).merge(_ss_of(b))
    truth = _totals(a + b)
    for key, count, error in merged.top():
        true = truth.get(key, 0)
        assert true <= count <= true + error


def test_sketches_reject_incompatible_merges():
    with pytest.raises(ValueError):
        CountMinSketch(epsilon=0.005).merge(CountMinSketch(epsilon=0.05))
    with pytest.raises(ValueError):
        SpaceSavingTopK(8).merge(SpaceSavingTopK(16))


# ---------------------------------------------------------------------------
# ingest_many == ingest, record for record, on an adversarial stream
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_world():
    return PaperWorld.build(seed=7, scale=0.0002)


def _served_answers(engine):
    """Every query answer as the service would serialize it."""
    out = {name: json.dumps(engine.query(name), sort_keys=True) for name in QUERY_NAMES}
    out["snapshot"] = json.dumps(engine.snapshot(), sort_keys=True)
    return out


def _adversarial_replay(world):
    """The ordered replay, roughed up: every 7th record displaced later
    (some land inside the skew, some genuinely late) and every 31st
    redelivered — the stream shape the run-batching fast paths must
    refuse to take."""
    records = list(replay_records(world))
    displaced = []
    held = []
    for i, record in enumerate(records):
        if i % 7 == 3:
            held.append(record)
            if len(held) >= 5:
                displaced.extend(held)
                held.clear()
        else:
            displaced.append(record)
        if i % 31 == 17 and displaced:
            displaced.append(displaced[-1])
    displaced.extend(held)
    return displaced


@pytest.mark.parametrize("skew", [0.0, 3600.0, 2 * 86400.0])
def test_ingest_many_matches_per_record_ingest(small_world, skew):
    records = _adversarial_replay(small_world)
    plan = replay_plan(small_world)
    batched = StreamEngine.for_world(small_world, plan=plan, skew=skew)
    batched.ingest_many(records)
    batched.close()
    one_by_one = StreamEngine.for_world(small_world, plan=plan, skew=skew)
    for record in records:
        one_by_one.ingest(record)
    one_by_one.close()
    assert _served_answers(batched) == _served_answers(one_by_one)


def test_loose_capture_payloads_decode_like_packed_ones(small_world):
    """Plain ``ProbeCapture`` payloads (no packed store) are packed at
    flush and take the one decoder: every answer, window summaries and
    ParseStats included, equals the same captures served out of a
    ``PackedCaptures`` store — mutated captures on the salvage path too."""
    records = list(replay_records(small_world))
    positions, loose = [], []
    for index, record in enumerate(records):
        if record.kind != "capture":
            continue
        view = record.payload
        packets = list(view.packets)
        if len(loose) % 5 == 0 and packets:
            packets[0] = packets[0][:-3]  # a torn fragment: irregular capture
        positions.append(index)
        loose.append(ProbeCapture(view.target_ip, view.t, tuple(packets), view.n_repeats))
    answers = []
    for payloads in (loose, pack_captures(loose).views()):
        stream = list(records)
        for index, payload in zip(positions, payloads):
            stream[index] = stream[index]._replace(payload=payload)
        engine = StreamEngine.for_world(small_world)
        for lo in range(0, len(stream), 64):
            engine.ingest_many(stream[lo : lo + 64])
        engine.close()
        answers.append(_served_answers(engine))
    assert answers[0] == answers[1]
    stats = json.loads(answers[0]["parse_stats"])
    assert stats["captures_salvaged"] + stats["captures_failed"] > 0
