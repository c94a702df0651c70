"""The ``ingest`` workload: replay a faulted world into a fresh engine, closed loop.

Each pass is ``replay_records`` → ``StreamEngine.ingest_many`` in batches
of 512 → ``close`` on a new engine, one pass after another in this
process, after one untimed warm-up pass.  The world carries the ``paper``
fault profile, so the lenient salvage decoder runs on the corrupted
captures as well.  World build and artifact rendering are idle here.

Checks, all outside the timed region: every pass balances its ledger,
delivers exactly the per-kind record counts ``replay_plan`` promises and
answers every ``QUERY_NAMES`` query identically; once per run the
registered ``world.streaming_matches_batch`` invariant runs on the world.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time

from perf.common import WORLD_SEED, Result, median, percentile, world_cache_path, world_params
from perf.trace import NULL_TRACER, Tracer

SCALE = 0.005
FAULTS = "paper"
BATCH = 512
SETUPS = 3
_SHARDS_ENV = "REPRO_STREAM_SHARDS"


def run(seed, seconds, trace, scale=None):
    """Time passes until ``seconds`` have passed.  ``seed`` changes
    nothing: the world seed is fixed and the stream is the world's replay."""
    del seed
    from repro.scenario.cache import load_world
    from repro.stream import QUERY_NAMES, replay_plan

    params = world_params(SCALE if scale is None else scale, FAULTS)
    path = world_cache_path(params)
    result = Result()
    setups = []
    for _ in range(SETUPS):
        world = None  # never hold two worlds at once
        started = time.perf_counter()
        world = load_world(path, params)
        plan = replay_plan(world)
        setups.append(time.perf_counter() - started)

    # The world is this harness's input fixture, which a live tap would
    # not keep in the ingest process's heap; freezing it stops the cyclic
    # collector from rescanning it during passes, while everything the
    # passes allocate is still collected as usual.
    gc.freeze()
    _pass(world, plan, NULL_TRACER)  # warm-up
    tracer = Tracer() if trace else NULL_TRACER
    passes = []
    reference = None
    started = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - started < seconds:
        # A traced run alternates traced and untraced passes so it can
        # report what tracing costs.
        traced = trace and len(passes) % 2 == 0
        spans = tracer if traced else NULL_TRACER
        index = len(passes)
        pass_seconds, engine = _pass(world, plan, spans)
        kinds = engine.query_ingest()["kinds"]
        stats = engine.query_parse_stats()
        passes.append(
            {
                "seconds": pass_seconds,
                "traced": traced,
                "late": sum(acc["late"] for acc in kinds.values()),
                "duplicate": sum(acc["duplicate"] for acc in kinds.values()),
                "salvaged": stats["captures_salvaged"],
                "failed": stats["captures_failed"],
            }
        )
        result.check(engine.balanced, f"pass {index}: ingest ledger unbalanced")
        totals = {kind: acc["total"] for kind, acc in kinds.items()}
        result.check(
            totals == plan["expected"],
            f"pass {index}: delivered {totals}, replay_plan expected {plan['expected']}",
        )
        digest = hashlib.sha256()
        for name in QUERY_NAMES:
            with spans.span(f"stream.query.{name}"):
                answer = engine.query(name)
            digest.update(json.dumps(answer, sort_keys=True).encode())
        reference = reference or digest.hexdigest()
        result.check(
            digest.hexdigest() == reference, f"pass {index}: query answers differ from pass 0"
        )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.check(*_streaming_matches_batch(world))
    records = plan["expected_total"]
    result.samples = {
        "latency_ms": [1000.0 * one["seconds"] for one in passes],
        "setup_s": setups,
        "peak_rss_mb": [peak_mb],
    }
    result.details = {"ingest_rec_per_s": [records / one["seconds"] for one in passes]}
    if trace:
        result.spans = tracer.records()
        traced = [one for one in passes if one["traced"]]
        result.layers = _layers(tracer, traced, records, QUERY_NAMES)
        result.layers["trace.overhead"] = median(
            [one["seconds"] for one in traced]
        ) / median([one["seconds"] for one in passes if not one["traced"]])
    return result


def _pass(world, plan, tracer):
    """One timed pass on a new engine; returns ``(seconds, engine)``."""
    from repro.stream import StreamEngine, replay_records

    started = time.perf_counter()
    with tracer.span("stream.pass"):
        with tracer.span("stream.replay"):
            records = replay_records(world)
        engine = StreamEngine.for_world(world, plan=plan)
        for lo in range(0, len(records), BATCH):
            with tracer.span("stream.ingest.batch"):
                engine.ingest_many(records[lo : lo + BATCH])
        with tracer.span("stream.ingest.close"):
            engine.close()
    return time.perf_counter() - started, engine


def _streaming_matches_batch(world):
    """Run the registered streaming-vs-batch invariant once; returns
    ``(ok, problem)``.

    The invariant's shard-invariance step feeds records to a
    ``ShardedStream`` through ``ingest_many``, which only the in-process
    mode supports; at its default of 2 shards on a host with 2 or more
    CPUs the fork mode engages and the step raises.  One shard keeps all
    sixteen blocks in-process, so the partition and its reduction are
    still checked against the single engine.
    """
    from repro.verify.invariants import REGISTRY
    from repro.verify.runner import Cell, WorldRecord

    invariant = REGISTRY["world.streaming_matches_batch"]
    record = WorldRecord(Cell(WORLD_SEED, world.params.scale, FAULTS), world)
    previous = os.environ.get(_SHARDS_ENV)
    os.environ[_SHARDS_ENV] = "1"
    try:
        outcome = invariant.check(record, invariant.tolerance)
    finally:
        if previous is None:
            del os.environ[_SHARDS_ENV]
        else:
            os.environ[_SHARDS_ENV] = previous
    violations = outcome["violations"] if outcome else ["invariant skipped"]
    return not violations, f"world.streaming_matches_batch: {violations[:3]}"


def _layers(tracer, passes, records, query_names):
    """Per-layer medians over the traced passes (spans in pass order)."""
    per_pass = len(tracer.durations("stream.ingest.batch")) // len(passes)
    batch_self = tracer.self_seconds("stream.ingest.batch")
    batch_ms = [1000.0 * s for s in tracer.durations("stream.ingest.batch")]
    layers = {
        "stream.replay.records_s": median(tracer.self_seconds("stream.replay")),
        "stream.replay.records": float(records),
        "stream.ingest.apply_s": median(
            [sum(batch_self[i : i + per_pass]) for i in range(0, len(batch_self), per_pass)]
        ),
        "stream.ingest.batch_p50_ms": percentile(batch_ms, 50),
        "stream.ingest.batch_p99_ms": percentile(batch_ms, 99),
        "stream.ingest.close_s": median(tracer.self_seconds("stream.ingest.close")),
    }
    for key, name in (
        ("late", "stream.ingest.late"),
        ("duplicate", "stream.ingest.duplicate"),
        ("salvaged", "stream.ingest.captures_salvaged"),
        ("failed", "stream.ingest.captures_failed"),
    ):
        layers[name] = median([float(one[key]) for one in passes])
    for name in query_names:
        layers[f"stream.query.{name}_ms"] = 1000.0 * median(
            tracer.self_seconds(f"stream.query.{name}")
        )
    return layers
