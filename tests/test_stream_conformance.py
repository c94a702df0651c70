"""Streaming-vs-batch conformance: the heart of the stream package.

End-of-window streaming aggregates must equal the batch
``AnalysisContext`` answers — exactly for counts, within declared bounds
for sketches — on clean worlds across two seeds and two scales, and on
fault-injected worlds with every dropped/late record accounted (the
ParseStats discipline, extended to the stream).

The checks run through the registered ``world.streaming_matches_batch``
invariant itself (not a private re-implementation), so what CI's verify
job enforces and what this suite enforces are the same code path.
"""

import pytest

from repro.faults import resolve_fault_profile
from repro.scenario.world import PaperWorld, WorldParams
from repro.verify.invariants import REGISTRY
from repro.verify.runner import Cell, WorldRecord

SEEDS = (7, 2014)
SCALES = (0.0003, 0.0005)

# (seed, scale, fault) cells: clean across both seeds and both scales,
# plus both fault presets on one cell each.
MATRIX = [(seed, scale, "clean") for seed in SEEDS for scale in SCALES] + [
    (7, 0.0003, "paper"),
    (7, 0.0003, "hostile"),
]


@pytest.fixture(scope="module")
def records():
    """Built worlds for the conformance matrix, shared across tests."""
    out = {}
    for seed, scale, fault in MATRIX:
        params = WorldParams(
            seed=seed, scale=scale, faults=resolve_fault_profile(fault)
        )
        world = PaperWorld.build(seed=seed, scale=scale, params=params)
        out[(seed, scale, fault)] = WorldRecord(
            Cell(seed=seed, scale=scale, fault_name=fault), world
        )
    return out


@pytest.fixture(scope="module")
def invariant():
    inv = REGISTRY["world.streaming_matches_batch"]
    assert inv.scope == "world"
    return inv


@pytest.mark.parametrize("cell", MATRIX, ids=lambda c: f"seed{c[0]}-s{c[1]}-{c[2]}")
def test_streaming_matches_batch(records, invariant, cell):
    result = invariant.check(records[cell], invariant.tolerance)
    assert result is not None, "the invariant must never skip a built world"
    assert result["violations"] == []
    assert result["measured"]["records"] > 0
    assert result["measured"]["capture_windows"] > 0


@pytest.mark.parametrize("fault", ["paper", "hostile"])
def test_fault_drift_is_fully_accounted(records, fault):
    """Under injected faults the stream sees degraded data — but the
    degradation must reconcile: summed streaming ParseStats equal the
    quality report's (which the quality invariant ties to the injection
    log), and the replay ledger balances with nothing unexplained."""
    from repro.stream import StreamEngine, replay_plan, replay_records

    record = records[(7, 0.0003, fault)]
    world = record.world
    assert world.fault_log is not None and world.fault_log.total > 0, (
        "fault profile never fired; the drift test is vacuous"
    )
    plan = replay_plan(world)
    engine = StreamEngine.for_world(world, plan=plan)
    engine.ingest_many(replay_records(world))
    engine.close()

    assert engine.balanced
    ingest = engine.query_ingest()
    for kind, acc in ingest["kinds"].items():
        assert acc["total"] == acc["applied"] + acc["late"] + acc["duplicate"]
        assert acc["total"] == plan["expected"][kind]

    quality_stats = record.quality().monlist_stats
    streamed = engine.query_parse_stats()
    for name, value in streamed.items():
        assert value == getattr(quality_stats, name), name
    # The faults left parse evidence the stream must have carried through.
    clean_record = records[(7, 0.0003, "clean")]
    assert engine.records_seen != 0
    assert streamed["captures_total"] <= clean_record.quality().monlist_stats.captures_total


def test_streaming_answers_are_deterministic(records):
    """Two engines fed the same replay agree on every byte that matters —
    the determinism contract the batch pipeline holds at any --jobs."""
    from repro.stream import StreamEngine, replay_plan, replay_records

    world = records[(7, 0.0003, "clean")].world
    plan = replay_plan(world)
    engines = []
    for _ in range(2):
        engine = StreamEngine.for_world(world, plan=plan)
        engine.ingest_many(replay_records(world))
        engine.close()
        engines.append(engine)
    a, b = engines
    assert a.query("victims") == b.query("victims")
    assert a.query("scanners") == b.query("scanners")
    assert a.query_parse_stats() == b.query_parse_stats()
    for name in a.sketches:
        assert a.sketches[name]["cm"] == b.sketches[name]["cm"]
        assert a.sketches[name]["topk"] == b.sketches[name]["topk"]


def test_mid_window_answers_without_reparse(records):
    """Stopping mid-stream still yields a consistent open-window view:
    the Fig 7-style query answers from partial state, and parse-call
    accounting shows the engine never re-reads what it already ingested."""
    from repro.stream import StreamEngine, replay_plan, replay_records

    world = records[(7, 0.0003, "clean")].world
    plan = replay_plan(world)
    engine = StreamEngine.for_world(world, plan=plan)
    records = replay_records(world)
    half = plan["expected_total"] // 2
    for row in range(half):
        engine.ingest_many(records[row : row + 1])

    # No close(): the mid-window answer reads open windows in place.
    view = engine.query("victims")
    assert any(row["open"] for row in view["windows"])
    total_pairs = sum(row["victim_pairs"] for row in view["windows"])
    assert total_pairs == engine.totals["victim_pairs"]
    before = engine.query_parse_stats()["captures_total"]

    # Querying again must not consume more stream or re-parse anything.
    again = engine.query("victims")
    assert again == view
    assert engine.query_parse_stats()["captures_total"] == before
    assert engine.records_seen == half
