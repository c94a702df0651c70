"""The columnar capture decoder and the parallel matrix.

Two contracts from this layer of the pipeline:

* the columnar capture decoder is *invisible*: on any store — clean,
  truncated, bit-flipped, reordered, duplicated, gapped, v1 or v2, one
  capture or many, in RAM or spilled — its tables and
  :class:`ParseStats` equal the lenient path's, and only captures with a
  malformed packet are re-parsed by that path;
* ``run_conformance(jobs=N)`` produces a report byte-identical to the
  serial runner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import event_columns
from repro.analysis.event_columns import decode_capture_batch
from repro.analysis.monlist_parse import ParseStats, reconstruct_table_lenient
from repro.ntp import MonlistTable
from repro.ntp.constants import IMPL_XNTPD, IMPL_XNTPD_OLD
from tests.strategies import (
    BASE_PACKET_SETS,
    V1_PACKET_SETS,
    capture_of,
    pack_captures,
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
# Parallel conformance matrix
# ---------------------------------------------------------------------------


def test_run_conformance_jobs_report_identical():
    from repro.verify.runner import run_conformance

    # Seed 5 at this scale legitimately misses world.ovh_crossdataset's
    # rank window, so the matrix uses seeds that are conformant here.
    serial = run_conformance([3, 7], [0.0002], ["clean"], jobs=1)
    parallel = run_conformance([3, 7], [0.0002], ["clean"], jobs=2)

    # Equal reports alone would pass if both runs crashed the same way.
    assert serial.ok and parallel.ok
    assert serial.as_dict() == parallel.as_dict()


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
