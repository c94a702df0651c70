"""The vectorized decode fast path, the parse cache, and the parallel matrix.

Three contracts from this layer of the pipeline:

* the block decoder and the columnar capture decoder are *invisible*:
  entry-for-entry equal to the scalar/lenient paths on clean streams, and
  deferring to the lenient path — with identical :class:`ParseStats` —
  the moment a capture is truncated, bit-flipped, or reordered;
* the persistent parsed-corpus cache returns exactly what a fresh parse
  would, registers zero parse calls on a hit, and misses (never lies) on
  a version change or a corrupt file;
* ``run_conformance(jobs=N)`` produces a report byte-identical to the
  serial runner, with the parent's parse-call ledger advancing by the
  same amount.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.event_columns import decode_capture_batch
from repro.analysis.monlist_parse import (
    ParseStats,
    add_parse_calls,
    parse_call_count,
    reconstruct_table_lenient,
)
from repro.measurement.capture_store import pack_captures
from repro.ntp.constants import MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE
from repro.ntp.wire import (
    WireError,
    decode_monitor_entries,
    decode_monitor_entries_block,
    encode_monitor_entry,
)
from tests.strategies import (
    BASE_PACKET_SETS,
    capture_of,
    entry_versions,
    lenient_parse,
    monitor_entries,
)

# ---------------------------------------------------------------------------
# Block decoder == scalar decoder
# ---------------------------------------------------------------------------


@given(st.lists(monitor_entries, min_size=0, max_size=40), entry_versions)
@settings(max_examples=100, deadline=None)
def test_block_decoder_matches_scalar(entries, entry_version):
    """Across the bulk-decode threshold, any in-range entry list decodes
    identically through the NumPy block path and the struct loop."""
    item_size = MON_ENTRY_V2_SIZE if entry_version == 2 else MON_ENTRY_V1_SIZE
    data = b"".join(encode_monitor_entry(e, entry_version) for e in entries)
    scalar = decode_monitor_entries(data, item_size, len(entries))
    block = decode_monitor_entries_block(data, item_size, len(entries))
    assert block == scalar


def test_block_decoder_rejects_bad_item_size():
    with pytest.raises(WireError):
        decode_monitor_entries_block(b"\x00" * 720, 33, 20)


def test_block_decoder_rejects_truncated_area():
    data = b"\x00" * (MON_ENTRY_V2_SIZE * 20 - 1)
    with pytest.raises(WireError):
        decode_monitor_entries_block(data, MON_ENTRY_V2_SIZE, 20)


def test_block_decoded_entries_are_real_instances():
    """The fast construction path must produce fully usable entries:
    hashable, comparable, with working derived properties."""
    from tests.strategies import build_packets
    from repro.analysis import reconstruct_table

    table = reconstruct_table(capture_of(build_packets(30)))
    entry = table.entries[0]
    assert hash(entry) == hash(entry)
    assert entry.avg_interval >= 0.0
    with pytest.raises(Exception):  # frozen dataclass contract intact
        entry.count = 5


# ---------------------------------------------------------------------------
# Columnar capture decoder == lenient path
# ---------------------------------------------------------------------------


def _lenient_result(packets):
    """The lenient path's table as ``(scalars, entry rows)``, and stats."""
    stats = ParseStats()
    table = reconstruct_table_lenient(capture_of(packets), stats)
    if table is None:
        return None, stats
    scalars = (
        table.amplifier_ip,
        table.entry_size,
        table.n_packets_once,
        table.n_repeats,
        table.payload_bytes_once,
        table.on_wire_bytes_once,
    )
    rows = [
        (e.last_int, e.first_int, e.restr, e.count, e.addr, e.daddr, e.flags, e.port, e.mode, e.version)
        for e in table.entries
    ]
    return (scalars, rows), stats


def _fast_result(packets):
    """``decode_capture_batch`` over a one-capture store, in the same shape."""
    stats = ParseStats()
    batch = decode_capture_batch(pack_captures([capture_of(packets)]), [0], stats)
    if not len(batch.amplifier):
        return None, stats
    scalars = tuple(
        int(column[0])
        for column in (
            batch.amplifier,
            batch.entry_size,
            batch.n_packets_once,
            batch.n_repeats,
            batch.payload_once,
            batch.wire_once,
        )
    )
    return (scalars, batch.entries.tolist()), stats


@pytest.mark.parametrize("n_clients", sorted(BASE_PACKET_SETS))
def test_fast_path_matches_lenient_on_clean_captures(n_clients):
    fast_table, fast_stats = _fast_result(BASE_PACKET_SETS[n_clients])
    lenient_table, lenient_stats = _lenient_result(BASE_PACKET_SETS[n_clients])
    assert fast_table == lenient_table
    assert fast_stats == lenient_stats
    assert fast_stats.captures_ok == 1
    assert not fast_stats.degraded


@given(st.sampled_from(sorted(BASE_PACKET_SETS)), st.data())
@settings(max_examples=150, deadline=None)
def test_fast_path_defers_on_bitflips(n_clients, data):
    """Bit corruption anywhere: the fast path's result — table and stats —
    is indistinguishable from running the lenient path alone."""
    packets = list(BASE_PACKET_SETS[n_clients])
    n_flips = data.draw(st.integers(min_value=1, max_value=6))
    for _ in range(n_flips):
        index = data.draw(st.integers(min_value=0, max_value=len(packets) - 1))
        victim = bytearray(packets[index])
        position = data.draw(st.integers(min_value=0, max_value=len(victim) - 1))
        victim[position] ^= data.draw(st.integers(min_value=1, max_value=255))
        packets[index] = bytes(victim)
    fast_table, fast_stats = _fast_result(packets)
    lenient_table, lenient_stats = _lenient_result(packets)
    assert fast_table == lenient_table
    assert fast_stats == lenient_stats


@given(st.sampled_from([4, 20, 40]), st.data())
@settings(max_examples=150, deadline=None)
def test_fast_path_defers_on_loss_mutations(n_clients, data):
    """Truncation, drops, reordering, duplication: same equivalence."""
    packets = list(BASE_PACKET_SETS[n_clients])
    mutation = data.draw(st.sampled_from(["truncate", "drop", "reorder", "duplicate"]))
    if mutation == "truncate":
        index = data.draw(st.integers(min_value=0, max_value=len(packets) - 1))
        keep = data.draw(st.integers(min_value=0, max_value=len(packets[index]) - 1))
        packets[index] = packets[index][:keep]
    elif mutation == "drop" and len(packets) > 1:
        del packets[data.draw(st.integers(min_value=0, max_value=len(packets) - 1))]
    elif mutation == "reorder":
        indices = data.draw(st.permutations(range(len(packets))))
        packets = [packets[i] for i in indices]
    else:
        index = data.draw(st.integers(min_value=0, max_value=len(packets) - 1))
        packets.insert(index, packets[index])
    fast_table, fast_stats = _fast_result(packets)
    lenient_table, lenient_stats = _lenient_result(packets)
    assert fast_table == lenient_table
    assert fast_stats == lenient_stats


def test_fast_path_empty_capture_defers():
    fast_table, fast_stats = _fast_result([])
    lenient_table, lenient_stats = _lenient_result([])
    assert fast_table is None and lenient_table is None
    assert fast_stats == lenient_stats


# ---------------------------------------------------------------------------
# Parse-call ledger
# ---------------------------------------------------------------------------


def test_add_parse_calls_advances_ledger():
    before = parse_call_count()
    add_parse_calls(0)
    assert parse_call_count() == before
    add_parse_calls(7)
    assert parse_call_count() == before + 7
    with pytest.raises(ValueError):
        add_parse_calls(-1)


# ---------------------------------------------------------------------------
# Persistent parsed-corpus cache
# ---------------------------------------------------------------------------


class _FakeSample:
    def __init__(self, t, captures):
        self.t = t
        self.captures = captures
        self.outage = False
        self.coverage = 1.0


def _corpus():
    from tests.strategies import build_packets

    return [
        _FakeSample(100.0, [capture_of(build_packets(20), target_ip=7)]),
        _FakeSample(200.0, [capture_of(build_packets(4), target_ip=9, t=200.0)]),
    ]


def test_parse_cache_roundtrip(tmp_path):
    from repro.analysis.parse_cache import load_or_decode_corpus

    samples = _corpus()
    fresh = [lenient_parse(s) for s in samples]

    first, n_first = load_or_decode_corpus(samples, cache_dir=str(tmp_path))
    assert n_first == len(samples)  # miss: everything parsed
    second, n_second = load_or_decode_corpus(samples, cache_dir=str(tmp_path))
    assert n_second == 0  # hit: nothing parsed

    for got in (first, second):
        assert len(got) == len(fresh)
        for a, sample, (tables, stats) in zip(got, samples, fresh):
            assert a.t == sample.t
            assert a.stats == stats
            assert [t.entries for t in a.tables] == [t.entries for t in tables]


def test_parse_cache_unconfigured_is_plain_parse(tmp_path, monkeypatch):
    from repro.analysis import parse_cache

    monkeypatch.delenv(parse_cache.PARSE_CACHE_ENV_VAR, raising=False)
    samples = _corpus()
    parsed, n = parse_cache.load_or_decode_corpus(samples)
    assert n == len(samples)
    assert not list(tmp_path.iterdir())


def test_parse_cache_distinguishes_corpora(tmp_path):
    from repro.analysis.parse_cache import corpus_digest

    a = _corpus()
    b = _corpus()
    assert corpus_digest(a) == corpus_digest(b)
    mutated = bytearray(b[0].captures[0].packets[0])
    mutated[-1] ^= 0xFF
    b[0].captures[0] = capture_of(
        [bytes(mutated), *b[0].captures[0].packets[1:]], target_ip=7
    )
    assert corpus_digest(a) != corpus_digest(b)


def test_parse_cache_version_gate(tmp_path, monkeypatch):
    from repro.analysis import parse_cache

    samples = _corpus()
    _, n = parse_cache.load_or_decode_corpus(samples, cache_dir=str(tmp_path))
    assert n == len(samples)
    monkeypatch.setattr("repro.__version__", "0.0.0-test")
    _, n = parse_cache.load_or_decode_corpus(samples, cache_dir=str(tmp_path))
    assert n == len(samples)  # version mismatch: a miss, not a stale hit


def test_parse_cache_corrupt_file_is_a_miss(tmp_path):
    from repro.analysis.parse_cache import (
        cached_corpus_path,
        corpus_digest,
        load_or_decode_corpus,
    )

    samples = _corpus()
    load_or_decode_corpus(samples, cache_dir=str(tmp_path))
    path = cached_corpus_path(corpus_digest(samples), str(tmp_path))
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    parsed, n = load_or_decode_corpus(samples, cache_dir=str(tmp_path))
    assert n == len(samples)
    assert len(parsed) == len(samples)


def test_context_uses_parse_cache(world, tmp_path, monkeypatch):
    """A second context over the same world hits the cache: zero parses."""
    from repro.analysis.context import AnalysisContext
    from repro.analysis.parse_cache import PARSE_CACHE_ENV_VAR

    monkeypatch.setenv(PARSE_CACHE_ENV_VAR, str(tmp_path))
    warm_ctx = AnalysisContext(world)
    warm_ctx.warm()
    assert warm_ctx.parse_calls == len(world.onp.monlist_samples)

    hit_ctx = AnalysisContext(world)
    hit_ctx.warm()
    assert hit_ctx.parse_calls == 0
    assert len(hit_ctx.parsed_samples()) == len(warm_ctx.parsed_samples())
    for a, b in zip(hit_ctx.parsed_samples(), warm_ctx.parsed_samples()):
        assert a.stats == b.stats
        assert [t.entries for t in a.tables] == [t.entries for t in b.tables]


# ---------------------------------------------------------------------------
# Parallel conformance matrix
# ---------------------------------------------------------------------------


def test_run_conformance_jobs_report_identical():
    from repro.verify.runner import run_conformance

    # Seed 5 at this scale legitimately misses world.ovh_crossdataset's
    # rank window, so the matrix uses seeds that are conformant here.
    before = parse_call_count()
    serial = run_conformance([3, 7], [0.0002], ["clean"], jobs=1)
    serial_parses = parse_call_count() - before

    before = parse_call_count()
    parallel = run_conformance([3, 7], [0.0002], ["clean"], jobs=2)
    parallel_parses = parse_call_count() - before

    # Equal reports alone would pass if both runs crashed the same way.
    assert serial.ok and parallel.ok
    assert serial.as_dict() == parallel.as_dict()
    assert serial_parses == parallel_parses > 0


def test_run_conformance_jobs_catches_injected_bug():
    """A deliberately broken builder is caught identically at any jobs."""
    from repro.verify.runner import Cell, default_builder, run_conformance

    def broken_builder(cell):
        # Sabotage one cell's scale so the scale-growth invariants see a
        # flat (non-growing) pair.
        actual = cell if cell.scale != 0.0004 else Cell(cell.seed, 0.0002, cell.fault_name)
        return default_builder(actual)

    serial = run_conformance([11], [0.0002, 0.0004], ["clean"], builder=broken_builder, jobs=1)
    parallel = run_conformance([11], [0.0002, 0.0004], ["clean"], builder=broken_builder, jobs=2)
    assert serial.as_dict() == parallel.as_dict()
    assert not serial.ok


def test_bench_verify_cli(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_verify.json"
    code = main(
        [
            "bench-verify",
            "--seeds",
            "7,99",
            "--scales",
            "0.0004",
            "--faults",
            "clean",
            "--jobs",
            "2",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    record = json.loads(out.read_text())
    assert record["ok"] is True
    assert record["jobs"] == 2
    assert record["cells"] == 2
    assert record["total_seconds"] > 0
    assert set(record["counts"]) == {"pass", "fail", "skip"}


def test_bench_verify_cli_bad_fault_exits_2(tmp_path):
    from repro.cli import main

    code = main(["bench-verify", "--faults", "nope", "--out", str(tmp_path / "b.json")])
    assert code == 2
