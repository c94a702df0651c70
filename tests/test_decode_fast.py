"""The columnar capture decoder, the parse cache, and the parallel matrix.

Three contracts from this layer of the pipeline:

* the columnar capture decoder is *invisible*: on any store — clean,
  truncated, bit-flipped, reordered, duplicated, gapped, v1 or v2, one
  capture or many, in RAM or spilled — its tables and
  :class:`ParseStats` equal the lenient path's, and only captures with a
  malformed packet are re-parsed by that path;
* the persistent parsed-corpus cache returns exactly what a fresh parse
  would, registers zero parse calls on a hit, and misses (never lies) on
  a version change or a corrupt file;
* ``run_conformance(jobs=N)`` produces a report byte-identical to the
  serial runner, with the parent's parse-call ledger advancing by the
  same amount.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import event_columns
from repro.analysis.event_columns import decode_capture_batch
from repro.analysis.monlist_parse import (
    ParseStats,
    add_parse_calls,
    parse_call_count,
    reconstruct_table_lenient,
)
from repro.measurement.capture_store import pack_captures
from repro.ntp import MonlistTable
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD
from tests.strategies import (
    BASE_PACKET_SETS,
    V1_PACKET_SETS,
    capture_of,
    lenient_parse,
)

#: Every clean fixture by (entry version, client count).
_CLEAN_SETS = {
    **{(2, n): packets for n, packets in BASE_PACKET_SETS.items()},
    **{(1, n): packets for n, packets in V1_PACKET_SETS.items()},
}


def test_reconstructed_entries_are_real_instances():
    """The strict parser's entries are fully usable objects: hashable,
    comparable, with working derived properties."""
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


def _lenient_result(packets, target_ip=42):
    """The lenient path's table as ``(scalars, entry rows)``, and stats."""
    stats = ParseStats()
    table = reconstruct_table_lenient(capture_of(packets, target_ip=target_ip), stats)
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


@pytest.mark.parametrize("n_clients", sorted(V1_PACKET_SETS))
def test_fast_path_matches_lenient_on_clean_v1_captures(n_clients):
    fast_table, fast_stats = _fast_result(V1_PACKET_SETS[n_clients])
    lenient_table, lenient_stats = _lenient_result(V1_PACKET_SETS[n_clients])
    assert fast_table == lenient_table
    assert fast_stats == lenient_stats
    assert fast_table[0][1] == 32  # entry size: the v1 branch ran
    assert fast_stats.captures_ok == 1


@given(st.sampled_from(sorted(_CLEAN_SETS)), st.data())
@settings(max_examples=150, deadline=None)
def test_fast_path_defers_on_bitflips(key, data):
    """Bit corruption anywhere: the fast path's result — table and stats —
    is indistinguishable from running the lenient path alone."""
    packets = list(_CLEAN_SETS[key])
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        packets = _mutate(packets, "bitflip", data)
    fast_table, fast_stats = _fast_result(packets)
    lenient_table, lenient_stats = _lenient_result(packets)
    assert fast_table == lenient_table
    assert fast_stats == lenient_stats


@given(st.sampled_from([key for key in sorted(_CLEAN_SETS) if key[1] >= 4]), st.data())
@settings(max_examples=150, deadline=None)
def test_fast_path_defers_on_loss_mutations(key, data):
    """Truncation, drops, reordering, duplication: same equivalence."""
    mutation = data.draw(st.sampled_from(["truncate", "drop", "reorder", "duplicate", "shuffle"]))
    packets = _mutate(list(_CLEAN_SETS[key]), mutation, data)
    fast_table, fast_stats = _fast_result(packets)
    lenient_table, lenient_stats = _lenient_result(packets)
    assert fast_table == lenient_table
    assert fast_stats == lenient_stats


def test_fast_path_empty_capture_defers():
    fast_table, fast_stats = _fast_result([])
    lenient_table, lenient_stats = _lenient_result([])
    assert fast_table is None and lenient_table is None
    assert fast_stats == lenient_stats


_MUTATIONS = ["none", "reorder", "duplicate", "drop", "truncate", "bitflip", "shuffle"]


def _mutate(packets, mutation, data):
    """One fault-injector mutation of a packet list; ``shuffle`` is a drop,
    a duplicate and a reorder together."""
    packets = list(packets)
    if not packets or mutation == "none":
        return packets
    index = data.draw(st.integers(min_value=0, max_value=len(packets) - 1))
    if mutation == "truncate":
        packets[index] = packets[index][: data.draw(st.integers(0, len(packets[index]) - 1))]
    elif mutation == "bitflip":
        victim = bytearray(packets[index])
        victim[data.draw(st.integers(0, len(victim) - 1))] ^= data.draw(st.integers(1, 255))
        packets[index] = bytes(victim)
    elif mutation == "duplicate":
        packets.insert(index, packets[index])
    elif mutation == "drop":
        if len(packets) > 1:
            del packets[index]
    elif mutation == "reorder":
        packets = [packets[i] for i in data.draw(st.permutations(range(len(packets))))]
    else:
        for step in ("drop", "duplicate", "reorder"):
            packets = _mutate(packets, step, data)
    return packets


def _batch_tables(batch):
    """Each decoded table as ``(position, (scalars, entry rows))``."""
    columns = (
        batch.amplifier,
        batch.entry_size,
        batch.n_packets_once,
        batch.n_repeats,
        batch.payload_once,
        batch.wire_once,
    )
    tables = []
    for row, position in enumerate(batch.cap_positions.tolist()):
        lo, hi = batch.entry_start[row], batch.entry_start[row + 1]
        scalars = tuple(int(column[row]) for column in columns)
        tables.append((position, (scalars, batch.entries[lo:hi].tolist())))
    return tables


def _assert_store_matches_lenient(store, captures, positions):
    """Decoding ``positions`` of ``store`` in one call yields, table for
    table, what the lenient path yields on each capture, and the summed
    :class:`ParseStats`."""
    stats = ParseStats()
    batch = decode_capture_batch(store, np.asarray(positions, dtype=np.int64), stats)
    expected, expected_stats = [], ParseStats()
    for at, index in enumerate(positions):
        capture = captures[index]
        table, one = _lenient_result(capture.packets, target_ip=capture.target_ip)
        expected_stats.merge(one)
        if table is not None:
            expected.append((at, table))
    assert _batch_tables(batch) == expected
    assert stats == expected_stats
    return batch, stats


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_multi_capture_store_matches_lenient(data):
    """1–6 captures of both entry versions in one store, each mutated on
    its own; a random subset of positions in random order decodes in one
    call exactly as the lenient path decodes each capture."""
    captures = []
    for index in range(data.draw(st.integers(min_value=1, max_value=6))):
        packets = _CLEAN_SETS[data.draw(st.sampled_from(sorted(_CLEAN_SETS)))]
        packets = _mutate(packets, data.draw(st.sampled_from(_MUTATIONS)), data)
        captures.append(capture_of(packets, target_ip=100 + index))
    positions = data.draw(st.lists(st.integers(0, len(captures) - 1), unique=True))
    _assert_store_matches_lenient(pack_captures(captures), captures, positions)


def _set_byte(packet, offset, value):
    mutated = bytearray(packet)
    mutated[offset] = value
    return bytes(mutated)


def test_only_malformed_captures_reach_the_salvage(monkeypatch):
    """Reordered, duplicated and gapped captures are reassembled without
    the object path; a truncated packet or a cleared response bit sends
    exactly its capture there."""
    calls = []
    salvage = event_columns.reconstruct_table_lenient

    def counting(capture, stats=None):
        calls.append(capture.target_ip)
        return salvage(capture, stats)

    monkeypatch.setattr(event_columns, "reconstruct_table_lenient", counting)
    v2 = list(BASE_PACKET_SETS[40])
    v1 = list(V1_PACKET_SETS[40])
    sequence_only = [
        v2[::-1],
        v2[:3] + v2[2:],
        v2[:2] + v2[3:],
        [v2[5], v2[0], v2[2], v2[0], v2[1]],
        v1[::-1] + v1[:1],
    ]
    captures = [capture_of(p, target_ip=i) for i, p in enumerate(sequence_only)]
    _, stats = _assert_store_matches_lenient(pack_captures(captures), captures, range(5))
    assert calls == []
    assert stats.packets_duplicate == 3 and stats.packets_out_of_sequence == 5
    assert stats.captures_salvaged == 4 and stats.captures_ok == 1

    malformed = [
        v2[:2] + [v2[2][:-1]] + v2[3:],
        v2[:1] + [_set_byte(v2[1], 0, v2[1][0] & 0x7F)] + v2[2:],
    ]
    for packets in malformed:
        calls.clear()
        captures = [
            capture_of(v2, target_ip=1),
            capture_of(packets, target_ip=2),
            capture_of(v2[::-1], target_ip=3),
        ]
        _assert_store_matches_lenient(pack_captures(captures), captures, [2, 0, 1])
        assert calls == [2]


def test_first_copy_of_a_sequence_wins():
    """Two differing copies of one sequence: the one that arrived first
    supplies the entries, whatever the order of the other packets."""
    v2, v1 = list(BASE_PACKET_SETS[40]), list(V1_PACKET_SETS[40])
    v2_copy = _set_byte(v2[1], 8 + 16, v2[1][8 + 16] ^ 0xFF)  # first entry's addr
    v1_copy = _set_byte(v1[1], 8 + 12, v1[1][8 + 12] ^ 0xFF)
    orders = [
        [v2[0], v2_copy, v2[1], *v2[2:]],
        [v2[0], v2[1], v2_copy, *v2[2:]],
        [*v2[2:][::-1], v2_copy, v2[0], v2[1]],
        [v1[2], v1[1], v1_copy, v1[0]],
        [v1_copy, v1[2], v1[1], v1[0]],
    ]
    captures = [capture_of(p, target_ip=i) for i, p in enumerate(orders)]
    batch, stats = _assert_store_matches_lenient(pack_captures(captures), captures, range(5))
    assert stats.packets_duplicate == 5
    first_rows = [rows for _, (_, rows) in _batch_tables(batch)]
    assert first_rows[0] != first_rows[1] and first_rows[3] != first_rows[4]


def _mixed_captures():
    """Clean, sequence-only and malformed captures of both versions."""
    return [
        capture_of(BASE_PACKET_SETS[20], target_ip=1),
        capture_of(V1_PACKET_SETS[40][::-1], target_ip=2),
        capture_of(BASE_PACKET_SETS[40][1:], target_ip=3),
        capture_of([BASE_PACKET_SETS[4][0][:-5]], target_ip=4),
        capture_of([], target_ip=5),
        capture_of(V1_PACKET_SETS[20], target_ip=6),
    ]


def test_spilled_store_decodes_like_ram_store():
    captures = _mixed_captures()
    store = pack_captures(captures)
    positions = np.array([5, 0, 3, 1, 2, 4])
    ram_stats = ParseStats()
    ram = decode_capture_batch(store, positions, ram_stats)
    store.maybe_spill(threshold=0)
    assert isinstance(store.payload, np.memmap)
    spilled_stats = ParseStats()
    spilled = decode_capture_batch(store, positions, spilled_stats)
    assert spilled_stats == ram_stats
    for name in type(ram).__slots__:
        ours, theirs = getattr(spilled, name), getattr(ram, name)
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    _assert_store_matches_lenient(store, captures, positions.tolist())


def test_payload_shorter_than_a_header():
    captures = [
        capture_of([b"\x87\x00\x03"], target_ip=1),
        capture_of([], target_ip=2),
        capture_of([b"\x87", b"\x87\x00"], target_ip=3),
    ]
    store = pack_captures(captures)
    assert len(store.payload) < 8
    batch, stats = _assert_store_matches_lenient(store, captures, [0, 1, 2])
    assert not len(batch.amplifier) and stats.captures_failed == 3


def test_header_only_packets():
    empty_v2 = MonlistTable(capacity=600).render_response_packets(1000.0, 2, IMPL_XNTPD)
    empty_v1 = MonlistTable(capacity=600).render_response_packets(1000.0, 1, IMPL_XNTPD_OLD)
    second = _set_byte(empty_v2[0], 1, 1)
    captures = [
        capture_of(empty_v2, target_ip=1),
        capture_of(empty_v1, target_ip=2),
        capture_of([second, empty_v2[0]], target_ip=3),
        capture_of([empty_v2[0], empty_v2[0]], target_ip=4),
    ]
    store = pack_captures(captures)
    assert set(store.pkt_lens.tolist()) == {8}
    batch, stats = _assert_store_matches_lenient(store, captures, [3, 2, 1, 0])
    assert len(batch.amplifier) == 4 and not len(batch.entries)
    assert stats.captures_ok == 3 and stats.packets_duplicate == 1


@pytest.mark.parametrize(
    "last",
    [V1_PACKET_SETS[1], BASE_PACKET_SETS[1], V1_PACKET_SETS[40][::-1]],
    ids=["v1", "v2", "v1-reordered"],
)
def test_last_entry_ends_on_last_payload_byte(last):
    captures = [capture_of(BASE_PACKET_SETS[4], target_ip=1), capture_of(last, target_ip=2)]
    store = pack_captures(captures)
    batch, _ = _assert_store_matches_lenient(store, captures, [1, 0])
    final = last[-1]
    n_items, item_size = int.from_bytes(final[4:6], "big"), int.from_bytes(final[6:8], "big")
    assert n_items and len(final) == 8 + n_items * item_size
    assert store.payload[-len(final):].tobytes() == final
    assert len(batch.entries) == 4 + len(_lenient_result(last)[0][1])


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
