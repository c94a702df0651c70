"""The parse-once / parallel-render / vectorized-sweep contracts.

These tests pin the equivalences the performance work relies on:

* one CLI invocation decodes the ONP corpus exactly once, however many
  artifacts it renders (the AnalysisContext contract, checked by a spy
  on the decoder);
* rendering over a process pool is byte-identical to rendering serially;
* every vectorized fast path (block RNG draws, bulk monlist encoding,
  analytic client state, prefix-limited liveness) equals its scalar
  original bit-for-bit.
"""

import json

import numpy as np
import pytest

from repro.analysis import AnalysisContext
from repro.analysis.event_columns import build_event_columns
from repro.cli import ARTIFACTS, main, render_artifact, render_many
from repro.util.rng import RngStream

# ---------------------------------------------------------------------------
# RNG block-draw equivalence (the ONP sweep's loss-draw contract)
# ---------------------------------------------------------------------------


def test_block_random_equals_scalar_draws():
    """rng.random(n) consumes the PCG64 stream exactly like n scalar calls."""
    for n in (1, 2, 7, 64, 1023):
        a = RngStream(11, "block")
        b = RngStream(11, "block")
        block = a.random(n)
        scalars = [b.random() for _ in range(n)]
        assert list(block) == scalars
        # The streams are left in the same state too.
        assert a.random() == b.random()


# ---------------------------------------------------------------------------
# Parse-once accounting
# ---------------------------------------------------------------------------


def test_all_artifacts_one_corpus_decode(world, decode_spy):
    """22 artifacts + summary + validate + quality = one corpus decode."""
    from repro.cli import _validate

    n_samples = len(world.onp.monlist_samples)
    ctx = AnalysisContext(world)
    for artifact_id in ARTIFACTS:
        text = render_artifact(world, artifact_id, context=ctx)
        assert isinstance(text, str) and text
    world.summary(context=ctx)
    _validate(ctx)
    from repro.analysis import quality_report

    quality_report(world, parsed_samples=ctx.parsed_samples())
    assert len(decode_spy) == n_samples
    assert ctx.parse_calls == n_samples


def test_context_is_lazy(world, decode_spy):
    """A context handed only to flow-data renderers never parses."""
    ctx = AnalysisContext(world)
    for artifact_id in ("F11", "F12", "F13", "F14", "F15"):
        render_artifact(world, artifact_id, context=ctx)
    assert decode_spy == []
    assert ctx.parse_calls == 0


def test_cached_ip_sets_are_stable(world):
    sample = world.onp.monlist_samples[0]
    assert sample.responder_ips() is sample.responder_ips()
    (parsed,) = build_event_columns([sample]).sample_views()
    assert parsed.amplifier_ips() is parsed.amplifier_ips()
    assert parsed.amplifier_ips() <= sample.responder_ips()


# ---------------------------------------------------------------------------
# Deterministic parallel rendering
# ---------------------------------------------------------------------------


def test_render_parallel_byte_identical(world, decode_spy):
    from repro.util.pool import fork_pool_gate

    ids = list(ARTIFACTS)
    serial = render_many(world, ids, jobs=1)
    parallel = render_many(world, ids, jobs=4)
    assert serial == parallel

    # The ``batch`` benchmark's call: a context built with ``jobs=``,
    # handed to a pooled render that fills ``stats``.
    decode_spy.clear()
    stats = {}
    context = AnalysisContext(world, jobs=2)
    pooled = render_many(world, ids, jobs=2, context=context, stats=stats)
    assert pooled == serial
    assert stats["pool_engaged"] is fork_pool_gate(2, len(ids))[0]
    assert stats["supervision"]["retries"] == 0
    n_samples = len(world.onp.monlist_samples)
    assert len(decode_spy) == n_samples
    assert context.parse_calls == n_samples


def test_render_is_idempotent(world):
    """Rendering twice through one context gives the same bytes (the
    property parallel merging relies on)."""
    ctx = AnalysisContext(world)
    ids = ("F3", "F5", "F10", "T1", "T4")
    first = [render_artifact(world, i, context=ctx) for i in ids]
    second = [render_artifact(world, i, context=ctx) for i in ids]
    assert first == second


def test_render_cli_out_dir(tmp_path):
    out_dir = tmp_path / "artifacts"
    argv = [
        "render", "F1", "F2", "T5",
        "--scale", "0.0003", "--seed", "3", "--quiet",
        "--jobs", "2", "--out-dir", str(out_dir),
    ]
    assert main(argv) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["F1.txt", "F2.txt", "T5.txt"]
    assert (out_dir / "F1.txt").read_text().startswith("Fig 1:")


def test_bench_pipeline_record(tmp_path):
    out = tmp_path / "BENCH_pipeline.json"
    argv = [
        "bench-pipeline", "--scale", "0.0003", "--seed", "3",
        "--quiet", "--jobs", "2", "--out", str(out),
    ]
    assert main(argv) == 0
    record = json.loads(out.read_text())
    assert record["byte_identical"] is True
    assert record["n_artifacts"] == len(ARTIFACTS)
    assert record["faults"] == "clean"
    assert record["preset"] == "small"
    assert record["jobs"] == 2
    assert set(record["phases"]) == {"build", "parse", "render_serial", "render_parallel"}
    assert record["parse_calls"] > 0
    memory = record["memory"]
    assert set(memory) == {"peak_rss_mb", "self_mb", "children_mb", "spill_threshold_mb"}
    assert memory["peak_rss_mb"] >= memory["self_mb"] > 0


def test_bench_pipeline_render_and_rss_tripwires(tmp_path):
    """--max-render-seconds and --max-rss-mb are CI gates: impossible
    ceilings must fail the run (and still write the record)."""
    out = tmp_path / "BENCH_pipeline.json"
    argv = [
        "bench-pipeline", "--scale", "0.0003", "--seed", "3",
        "--quiet", "--jobs", "1", "--out", str(out),
        "--max-render-seconds", "0", "--max-rss-mb", "1",
    ]
    assert main(argv) == 1
    record = json.loads(out.read_text())
    assert record["byte_identical"] is True


def test_bench_build_records_faults_and_preset(tmp_path):
    out = tmp_path / "BENCH_build.json"
    argv = [
        "bench-build", "--scale", "0.0003", "--seed", "3",
        "--quiet", "--out", str(out),
    ]
    assert main(argv) == 0
    record = json.loads(out.read_text())
    assert record["faults"] == "clean"
    assert record["preset"] == "small"


# ---------------------------------------------------------------------------
# Vectorized fast paths vs scalar originals
# ---------------------------------------------------------------------------


def _reference_render(table, now, entry_version, implementation):
    """The original per-entry struct encoding (entries_mru + encoder)."""
    from repro.ntp.constants import (
        MON_ENTRY_V1_SIZE,
        MON_ENTRY_V2_SIZE,
        REQ_MON_GETLIST,
        REQ_MON_GETLIST_1,
        items_per_packet,
    )
    from repro.ntp.wire import encode_mode7_response, encode_monitor_entry

    if entry_version == 2:
        item_size, request_code = MON_ENTRY_V2_SIZE, REQ_MON_GETLIST_1
    else:
        item_size, request_code = MON_ENTRY_V1_SIZE, REQ_MON_GETLIST
    entries = table.entries_mru(now)
    per_packet = items_per_packet(item_size)
    if not entries:
        return [encode_mode7_response(implementation, request_code, 0, False, [], item_size)]
    encoded = [encode_monitor_entry(e, entry_version) for e in entries]
    chunks = [encoded[i : i + per_packet] for i in range(0, len(encoded), per_packet)]
    return [
        encode_mode7_response(
            implementation, request_code, i % 128, i < len(chunks) - 1, chunk, item_size
        )
        for i, chunk in enumerate(chunks)
    ]


@pytest.mark.parametrize("n", [0, 1, 11, 12, 13, 250, 700])
@pytest.mark.parametrize("entry_version", [1, 2])
def test_bulk_render_matches_struct_path(n, entry_version):
    """The NumPy blob path crosses _BULK_RENDER_MIN byte-identically."""
    from repro.ntp.constants import IMPL_XNTPD
    from repro.ntp.monlist import MonlistTable

    rng = np.random.default_rng(5 + n)
    table = MonlistTable()
    for i in range(n):
        first = float(rng.uniform(0, 5000))
        table.put_record(
            addr=int(rng.integers(1, 2**32 - 1)),
            port=int(rng.integers(1, 65535)),
            mode=int(rng.integers(0, 8)),
            version=int(rng.integers(1, 5)),
            # Counts past u32 exercise the clamp (mega amplifiers).
            count=int(rng.integers(1, 2**33)),
            first_seen=first,
            last_seen=first + float(rng.uniform(0, 4000)),
        )
    now = 10_000.0
    fast = table.render_response_packets(now, entry_version, IMPL_XNTPD)
    assert fast == _reference_render(table, now, entry_version, IMPL_XNTPD)


def test_background_client_state_scalar_matches_numpy(monkeypatch):
    """state_at's small-pool scalar path equals the NumPy path exactly."""
    import repro.population.amplifiers as amplifiers

    rng = np.random.default_rng(99)
    for n in (1, 3, amplifiers._STATE_AT_SCALAR_MAX):
        clients = amplifiers.BackgroundClients(
            ips=rng.integers(1, 2**31, size=n).astype(np.int64),
            ports=rng.integers(1024, 65535, size=n).astype(np.int64),
            intervals=rng.uniform(64.0, 1e6, size=n),
            first_polls=rng.uniform(0.0, 5e5, size=n),
            one_shot=rng.random(n) < 0.4,
        )
        for now, since in ((0.0, None), (3e5, None), (9e5, 1e5), (9e5, 8.9e5)):
            scalar = clients._state_at_scalar(now, since)
            # Forcing the threshold below any n routes state_at through
            # the vectorized branch for the same inputs.
            monkeypatch.setattr(amplifiers, "_STATE_AT_SCALAR_MAX", -1)
            vectorized = clients.state_at(now, since=since)
            monkeypatch.undo()
            assert scalar == vectorized


def test_liveness_limit_equals_prefix_filter(world):
    """monlist_alive(t, limit=k) == the first-k-targets-then-filter order."""
    pool = world.hosts
    t = world.onp.monlist_samples[3].t
    for k in (0, 1, 17, len(pool.monlist_hosts)):
        limited = pool.monlist_alive(t, limit=k)
        naive = [h for h in pool.monlist_hosts[:k] if h.monlist_active(t)]
        assert limited == naive
