"""Columnar corpus equivalence: ``EventColumns`` vs per-capture references.

The columnar fast path must be invisible.  For any corpus — clean or
mangled by the full mutation menagerie (truncation, bit flips, drops,
reorders, duplicates) — decoding straight out of the packed blob
produces tables, entries, and :class:`ParseStats` identical to running
the lenient salvage path over every capture (``lenient_parse``),
advances the parse-once ledger by one per sample, and every aggregation
kernel (victimology, concentration, churn) computes what small
``Counter``/set references built from ``classify_entry`` over those
tables compute.  These properties are what keep every artifact
byte-identical.
"""

import pickle
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.churn import ChurnReport, churn_report
from repro.analysis.concentration import as_concentration
from repro.analysis.event_columns import (
    ColumnarSample,
    EventColumns,
    build_event_columns,
    columns_for_sample,
)
from repro.analysis.monlist_parse import parse_call_count
from repro.analysis.versions import parse_version_samples
from repro.analysis.victimology import (
    CLASS_NON_VICTIM,
    CLASS_SCANNER,
    CLASS_VICTIM,
    VictimObservation,
    analyze_dataset,
    classify_entry,
)
from repro.measurement.capture_store import PackedCapturesBuilder
from repro.measurement.onp import OnpSample
from repro.ntp import MonlistTable, encode_mode6_response
from repro.ntp.constants import CTL_OP_READVAR, IMPL_XNTPD, MODE6_DATA_AREA
from repro.ntp.variables import render_system_variables
from repro.util.simtime import HOUR
from repro.util.stats import percentile
from tests.strategies import BASE_PACKET_SETS, lenient_parse

# ---------------------------------------------------------------------------
# Fixture builders
# ---------------------------------------------------------------------------


def attack_packets(n_victims, hits=5, now=1000.0):
    """A monlist response whose entries pass the §4.2 victim filter
    (mode 7, count >= 3, inter-arrival <= 3600 s)."""
    table = MonlistTable(capacity=600)
    for i in range(n_victims):
        for k in range(hits):
            table.record(5000 + i, 80, 7, 4, now=float(i * 40 + k * 10))
    return tuple(table.render_response_packets(now, 2, IMPL_XNTPD))


def packed_sample(capture_specs, t=1000.0, mode=7, outage=False, coverage=1.0):
    """An :class:`OnpSample` over a real packed blob — the fast path's
    input shape.  ``capture_specs`` is ``[(target_ip, packets, n_repeats)]``."""
    builder = PackedCapturesBuilder(t)
    for target_ip, packets, n_repeats in capture_specs:
        builder.add(target_ip, packets, n_repeats=n_repeats)
    sample = OnpSample(t=t, mode=mode, outage=outage, coverage=coverage)
    sample.attach_packed(builder.finish())
    return sample


def mutate(packets, mutation, data):
    """Apply one corpus fault; mirrors the test_decode_fast fuzzers."""
    packets = list(packets)
    if mutation == "bitflip":
        index = data.draw(st.integers(min_value=0, max_value=len(packets) - 1))
        victim = bytearray(packets[index])
        position = data.draw(st.integers(min_value=0, max_value=len(victim) - 1))
        victim[position] ^= data.draw(st.integers(min_value=1, max_value=255))
        packets[index] = bytes(victim)
    elif mutation == "truncate":
        index = data.draw(st.integers(min_value=0, max_value=len(packets) - 1))
        keep = data.draw(st.integers(min_value=0, max_value=len(packets[index]) - 1))
        packets[index] = packets[index][:keep]
    elif mutation == "drop" and len(packets) > 1:
        del packets[data.draw(st.integers(min_value=0, max_value=len(packets) - 1))]
    elif mutation == "reorder":
        indices = data.draw(st.permutations(range(len(packets))))
        packets = [packets[i] for i in indices]
    elif mutation == "duplicate":
        index = data.draw(st.integers(min_value=0, max_value=len(packets) - 1))
        packets.insert(index, packets[index])
    return tuple(packets)


_MUTATIONS = ["bitflip", "truncate", "drop", "reorder", "duplicate"]


def corpus_from(data, n_samples, mutated):
    """A small multi-sample monlist corpus, optionally fault-injected."""
    samples = []
    for s in range(n_samples):
        specs = []
        n_captures = data.draw(st.integers(min_value=0, max_value=4))
        for c in range(n_captures):
            kind = data.draw(st.sampled_from(["base", "attack"]))
            if kind == "base":
                packets = BASE_PACKET_SETS[data.draw(st.sampled_from([1, 4, 20]))]
            else:
                packets = attack_packets(data.draw(st.integers(min_value=1, max_value=6)))
            if mutated and data.draw(st.booleans()):
                packets = mutate(packets, data.draw(st.sampled_from(_MUTATIONS)), data)
            n_repeats = data.draw(st.sampled_from([1, 1, 1, 3]))
            specs.append((100 + 10 * s + c, packets, n_repeats))
        samples.append(packed_sample(specs, t=1000.0 + 604800.0 * s))
    return samples


# ---------------------------------------------------------------------------
# Structural equivalence: views == lenient tables, counter for counter
# ---------------------------------------------------------------------------


def assert_sample_equivalent(view, sample):
    """A ColumnarSample view is indistinguishable from the lenient
    per-capture parse of ``sample``."""
    tables, stats = lenient_parse(sample)
    assert view.t == sample.t
    assert view.outage == sample.outage
    assert view.coverage == sample.coverage
    assert view.stats == stats
    assert len(view.tables) == len(tables)
    assert view.amplifier_ips() == {table.amplifier_ip for table in tables}
    for table_view, table in zip(view.tables, tables):
        assert table_view.amplifier_ip == table.amplifier_ip
        assert table_view.t == table.t
        assert table_view.entry_size == table.entry_size
        assert table_view.n_packets_once == table.n_packets_once
        assert table_view.n_repeats == table.n_repeats
        assert table_view.payload_bytes_once == table.payload_bytes_once
        assert table_view.on_wire_bytes_once == table.on_wire_bytes_once
        assert table_view.total_packets == table.total_packets
        assert table_view.total_on_wire_bytes == table.total_on_wire_bytes
        assert table_view.total_payload_bytes == table.total_payload_bytes
        assert table_view.is_mega == table.is_mega
        assert len(table_view) == len(table.entries)
        assert table_view.entries == tuple(table.entries)


@pytest.mark.parametrize("n_clients", sorted(BASE_PACKET_SETS))
def test_columnar_matches_object_on_clean_sample(n_clients):
    sample = packed_sample(
        [(7, BASE_PACKET_SETS[n_clients], 1), (9, attack_packets(3), 2)]
    )
    columns = columns_for_sample(sample)
    (view,) = columns.sample_views()
    assert_sample_equivalent(view, sample)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_columnar_matches_object_under_mutations(data):
    """Fault-irregular captures defer to the lenient path: tables, entries,
    and every ParseStats counter identical to the lenient path alone."""
    for sample in corpus_from(data, n_samples=2, mutated=True):
        columns = columns_for_sample(sample)
        (view,) = columns.sample_views()
        assert_sample_equivalent(view, sample)


def test_columnar_outage_and_empty_captures():
    outage = OnpSample(t=500.0, mode=7, outage=True, coverage=0.0)
    empties = packed_sample([(3, (), 1), (4, (), 1)], t=900.0)
    for sample in (outage, empties):
        columns = columns_for_sample(sample)
        (view,) = columns.sample_views()
        assert_sample_equivalent(view, sample)
    # Empty captures are *accounted*, not skipped.
    stats = columns_for_sample(empties).sample_views()[0].stats
    assert stats.captures_total == 2 and stats.captures_failed == 2


# ---------------------------------------------------------------------------
# Parse-once ledger
# ---------------------------------------------------------------------------


def test_columnar_decode_advances_ledger_once_per_sample():
    samples = [
        packed_sample([(7, BASE_PACKET_SETS[4], 1)], t=1000.0),
        packed_sample([(8, attack_packets(2), 1)], t=2000.0),
        packed_sample([], t=3000.0),
    ]
    before = parse_call_count()
    build_event_columns(samples, jobs=1)
    assert parse_call_count() - before == len(samples)

    before = parse_call_count()
    for sample in samples:
        columns_for_sample(sample)
    assert parse_call_count() - before == len(samples)


# ---------------------------------------------------------------------------
# Aggregation kernels vs Counter/set references over lenient tables
# ---------------------------------------------------------------------------


class _FakeAsnTable:
    """asn_of with unrouted holes, ASN 0 included (the -1 sentinel must
    not shadow a real AS number)."""

    def asn_of(self, ip):
        if ip % 4 == 0:
            return None
        return ip % 7


def reference_victimology(sample, onp_ip=None):
    """``(observations, class counts, per-table max last-seen)`` of one
    sample: :func:`classify_entry` over its lenient tables."""
    observations, kinds, max_last_seen = [], Counter(), []
    for table in lenient_parse(sample)[0]:
        if table.entries:
            max_last_seen.append(max(e.last_int for e in table.entries))
        for e in table.entries:
            if onp_ip is not None and e.addr == onp_ip:
                continue
            kind = classify_entry(e)
            kinds[kind] += 1
            if kind == CLASS_VICTIM:
                observations.append(
                    VictimObservation(
                        sample.t, table.amplifier_ip, e.addr, e.port, e.mode,
                        e.count, e.avg_interval, e.last_int,
                    )
                )
    return observations, kinds, max_last_seen


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_victimology_kernels_match(data):
    samples = corpus_from(data, n_samples=3, mutated=True)
    report = analyze_dataset(build_event_columns(samples, jobs=1).sample_views(), onp_ip=1)
    every, rows, per_victim_amps, durations, hours = [], [], [], [], Counter()
    for got, sample in zip(report.samples, samples):
        observations, kinds, max_last_seen = reference_victimology(sample, onp_ip=1)
        assert got.observations == observations
        assert got.n_non_victim == kinds[CLASS_NON_VICTIM]
        assert got.n_scanner == kinds[CLASS_SCANNER]
        assert got.max_last_seen == max_last_seen
        every.extend(observations)
        packets, amps = Counter(), Counter()
        starts, lengths = defaultdict(list), defaultdict(list)
        for o in observations:
            packets[o.victim_ip] += o.packets
            amps[o.victim_ip] += 1
            starts[o.victim_ip].append(o.start_time)
            lengths[o.victim_ip].append(o.duration)
        for values in starts.values():
            hours[int(sorted(values)[len(values) // 2] // HOUR)] += 1
        durations.extend(sorted(v)[len(v) // 2] for v in lengths.values())
        values = list(packets.values())
        rows.append(
            (sample.t, sum(values) / len(values), percentile(values, 50), percentile(values, 95))
            if values
            else (sample.t, 0.0, 0.0, 0.0)
        )
        per_victim_amps.append((sample.t, percentile(list(amps.values()), 50) if amps else 0.0))
    assert report.victim_packet_stats() == rows
    assert report.amplifiers_per_victim() == per_victim_amps
    assert report.attacks_per_hour() == dict(sorted(hours.items()))
    assert report.durations() == durations
    assert report.total_attack_packets() == sum(o.packets for o in every)
    assert report.all_victim_ips() == {o.victim_ip for o in every}
    ports = Counter(o.port for o in every)
    assert report.port_table() == [(p, n / len(every)) for p, n in ports.most_common(20)]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_concentration_kernel_matches_in_value_and_order(data):
    """Figure 5's group-by: same {asn: packets} *in the same insertion
    order* (most_common ties resolve by it), unrouted IPs dropped."""
    samples = corpus_from(data, n_samples=3, mutated=False)
    table = _FakeAsnTable()
    got = as_concentration(
        analyze_dataset(build_event_columns(samples, jobs=1).sample_views()), table
    )
    victims, amplifiers = defaultdict(int), defaultdict(int)
    for sample in samples:
        for o in reference_victimology(sample)[0]:
            for totals, ip in ((victims, o.victim_ip), (amplifiers, o.amplifier_ip)):
                if table.asn_of(ip) is not None:
                    totals[table.asn_of(ip)] += o.packets
    assert list(got.victim_as_packets.items()) == list(victims.items())
    assert list(got.amplifier_as_packets.items()) == list(amplifiers.items())


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_churn_kernel_matches(data):
    samples = corpus_from(data, n_samples=4, mutated=True)
    ip_sets = [{t.amplifier_ip for t in lenient_parse(s)[0]} for s in samples]
    seen, cumulative, new = Counter(), set(), []
    for ips in ip_sets:
        new.append(len(ips - cumulative))
        cumulative |= ips
        seen.update(ips)
    total = len(cumulative)
    expected = ChurnReport(
        total,
        len(ip_sets[0]) / total if total else 0.0,
        sum(1 for n in seen.values() if n == 1) / total if total else 0.0,
        tuple(new),
    )
    assert churn_report(build_event_columns(samples, jobs=1).sample_views()) == expected


def version_sample(specs, t=1000.0, packed=True):
    """A mode-6 version sweep sample; ``specs`` is ``[(ip, payload)]``
    where payload is a READVAR string or pre-built raw packets."""
    built = []
    for ip, payload in specs:
        if isinstance(payload, tuple):
            built.append((ip, payload, 1))
            continue
        raw = payload.encode("ascii")
        fragments = [
            raw[i : i + MODE6_DATA_AREA] for i in range(0, len(raw), MODE6_DATA_AREA)
        ] or [b""]
        packets = tuple(
            encode_mode6_response(
                CTL_OP_READVAR,
                fragment,
                sequence=index,
                offset=index * MODE6_DATA_AREA,
                more=index < len(fragments) - 1,
            )
            for index, fragment in enumerate(fragments)
        )
        built.append((ip, packets, 1))
    if packed:
        return packed_sample(built, t=t, mode=6)
    from tests.strategies import capture_of

    sample = OnpSample(
        t=t,
        mode=6,
        captures=[capture_of(packets, target_ip=ip, t=t) for ip, packets, _ in built],
    )
    return sample


def test_version_parse_packed_matches_object_path():
    """The packed version-sweep reader slices payloads straight from the
    blob; records (and their last-write-wins order) match the view loop."""
    payloads = [
        render_system_variables("4.2.6p5", 2010, "Linux/2.6.32", "x86_64", 3, "GPS"),
        render_system_variables("4.1.1", 2004, "cisco", "unknown", 16, ".INIT."),
        (b"\x00\x01",),  # short mode-6 packet: unparseable, memoized skip
    ]
    specs = [(50, payloads[0]), (51, payloads[1]), (52, payloads[2]), (50, payloads[1])]
    fast = parse_version_samples(
        [version_sample(specs), version_sample(specs, t=2000.0)]
    )
    slow = parse_version_samples(
        [version_sample(specs, packed=False), version_sample(specs, t=2000.0, packed=False)]
    )
    assert len(fast) == len(slow) > 0
    assert [(r.ip, r.os_family, r.system, r.stratum, r.compile_year) for r in fast.records] == [
        (r.ip, r.os_family, r.system, r.stratum, r.compile_year) for r in slow.records
    ]
    assert fast.os_distribution() == slow.os_distribution()
    assert fast.stratum16_fraction() == slow.stratum16_fraction()


# ---------------------------------------------------------------------------
# Cache-envelope plumbing: concat and pickle round-trips
# ---------------------------------------------------------------------------


def test_event_columns_pickle_roundtrip():
    samples = [
        packed_sample([(7, BASE_PACKET_SETS[20], 1), (8, attack_packets(4), 3)]),
        packed_sample([(9, BASE_PACKET_SETS[1], 1)], t=2000.0),
    ]
    columns = build_event_columns(samples, jobs=1)
    clone = pickle.loads(pickle.dumps(columns))
    assert isinstance(clone, EventColumns)
    assert clone.samples.tobytes() == columns.samples.tobytes()
    assert clone.tables.tobytes() == columns.tables.tobytes()
    assert clone.entries.tobytes() == columns.entries.tobytes()
    for a, b in zip(clone.sample_views(), columns.sample_views()):
        assert isinstance(a, ColumnarSample)
        assert a.stats == b.stats
        assert [t.entries for t in a.tables] == [t.entries for t in b.tables]


def test_concat_then_spill_preserves_byte_order(monkeypatch, tmp_path):
    """np.concatenate (NumPy >= 2) recasts structured results to native
    byte order; a spilled *merged* batch must still read back value-exact.
    Regression: the spill view once assumed the canonical big-endian
    dtype and byteswapped every entry of a concatenated corpus."""
    monkeypatch.setenv("REPRO_SPILL_MB", "0")
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
    samples = [
        packed_sample([(7, BASE_PACKET_SETS[20], 1), (8, attack_packets(4), 3)]),
        packed_sample([(9, attack_packets(2), 1)], t=2000.0),
    ]
    merged = build_event_columns(samples, jobs=1)  # concat + spill engaged
    import numpy as np

    assert isinstance(merged.entries.base, np.memmap) or isinstance(
        merged.entries, np.memmap
    )
    for view, sample in zip(merged.sample_views(), samples):
        assert_sample_equivalent(view, sample)


def test_event_columns_spill_roundtrip(monkeypatch, tmp_path):
    """Past the threshold the entries blob lives in a memmap; views and
    pickling (which re-inlines) are unaffected."""
    monkeypatch.setenv("REPRO_SPILL_MB", "0")
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
    sample = packed_sample([(7, BASE_PACKET_SETS[40], 1)])
    columns = columns_for_sample(sample)
    spilled = columns.maybe_spill()
    (view,) = spilled.sample_views()
    assert_sample_equivalent(view, sample)
    clone = pickle.loads(pickle.dumps(spilled))
    assert clone.entries.tobytes() == spilled.entries.tobytes()
