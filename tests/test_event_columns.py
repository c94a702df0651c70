"""Columnar corpus equivalence: ``EventColumns`` vs per-capture references.

The columnar fast path must be invisible.  For any corpus — clean or
mangled by the full mutation menagerie (truncation, bit flips, drops,
reorders, duplicates) — decoding straight out of the packed blob
produces tables, entries, and :class:`ParseStats` identical to running
the lenient salvage path over every capture (``lenient_parse``),
decodes each sample exactly once, and every aggregation
kernel (victimology, concentration, churn, the conformance batch
queries, Table 3's pick) computes what small
``Counter``/set references built from ``classify_entry`` over those
tables compute.  These properties are what keep every artifact
byte-identical.
"""

from collections import Counter, defaultdict, namedtuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.attack
from repro.analysis import queries
from repro.analysis.amplification import (
    MegaCensus,
    aggregate_bytes_per_amplifier,
    mega_amplifier_census,
)
from repro.analysis.churn import ChurnReport, churn_report
from repro.analysis.concentration import as_concentration
from repro.analysis.context import AnalysisContext
from repro.analysis.event_columns import build_event_columns, columns_for_sample
from repro.analysis.versions import parse_version_samples
from repro.analysis.victimology import (
    CLASS_NON_VICTIM,
    CLASS_SCANNER,
    CLASS_VICTIM,
    analyze_dataset,
    classify_entry,
)
from repro.attack.scanner import ONP_PROBER_IP
from repro.cli import render_artifact
from repro.measurement.capture_store import PackedCapturesBuilder
from repro.measurement.onp import OnpSample
from repro.ntp import MonlistTable, encode_mode6_response
from repro.ntp.constants import CTL_OP_READVAR, IMPL_XNTPD, MODE6_DATA_AREA
from repro.ntp.variables import render_system_variables
from repro.reporting import render_monlist_table
from repro.util.simtime import HOUR
from repro.util.stats import percentile, rank_series
from tests.strategies import (
    BASE_PACKET_SETS,
    lenient_parse,
    parse_version_captures,
    version_statistics,
)

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
    return OnpSample(t, mode, builder.finish(), outage=outage, coverage=coverage)


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
    """A ColumnarSample view, and its sample's rows of the tables and
    entries columns, are indistinguishable from the lenient per-capture
    parse of ``sample``, field by field."""
    tables, stats = lenient_parse(sample)
    cols = view.columns
    assert view.t == sample.t
    assert view.outage == sample.outage
    assert view.coverage == sample.coverage
    assert view.stats == stats
    assert len(view) == len(tables)
    assert view.amplifier_ips() == {table.amplifier_ip for table in tables}
    t_lo, t_hi = cols.sample_table_span(view.sample_index)
    e_lo, e_hi = cols.sample_entry_span(view.sample_index)
    expected_tables, expected_entries = [], []
    for table in tables:
        assert table.t == view.t
        expected_tables.append(
            (
                view.sample_index,
                table.amplifier_ip,
                table.entry_size,
                table.n_packets_once,
                table.n_repeats,
                table.payload_bytes_once,
                table.on_wire_bytes_once,
                e_lo + len(expected_entries),
                len(table.entries),
            )
        )
        expected_entries.extend(
            (e.last_int, e.first_int, e.restr, e.count, e.addr, e.daddr, e.flags, e.port, e.mode, e.version)
            for e in table.entries
        )
    assert cols.tables[t_lo:t_hi].tolist() == expected_tables
    assert cols.entries[e_lo:e_hi].tolist() == expected_entries


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
    outage = packed_sample([], t=500.0, outage=True, coverage=0.0)
    empties = packed_sample([(3, (), 1), (4, (), 1)], t=900.0)
    for sample in (outage, empties):
        columns = columns_for_sample(sample)
        (view,) = columns.sample_views()
        assert_sample_equivalent(view, sample)
    # Empty captures are *accounted*, not skipped.
    stats = columns_for_sample(empties).sample_views()[0].stats
    assert stats.captures_total == 2 and stats.captures_failed == 2


# ---------------------------------------------------------------------------
# Parse-once accounting
# ---------------------------------------------------------------------------


def test_columnar_decode_advances_ledger_once_per_sample(decode_spy):
    samples = [
        packed_sample([(7, BASE_PACKET_SETS[4], 1)], t=1000.0),
        packed_sample([(8, attack_packets(2), 1)], t=2000.0),
        packed_sample([], t=3000.0),
    ]
    build_event_columns(samples)
    # Each sample decoded exactly once, in corpus order.
    assert [id(s) for s in decode_spy] == [id(s) for s in samples]


# ---------------------------------------------------------------------------
# Aggregation kernels vs Counter/set references over lenient tables
# ---------------------------------------------------------------------------


class _FakeAsnTable:
    """asn_of with unrouted holes, ASN 0 included (the -1 sentinel must
    not shadow a real AS number); asns_of is its array form."""

    def asn_of(self, ip):
        if ip % 4 == 0:
            return None
        return ip % 7

    def asns_of(self, ips):
        return np.array(
            [-1 if (asn := self.asn_of(ip)) is None else asn for ip in ips.tolist()],
            dtype=np.int64,
        )


#: One victim-classified entry as :class:`SampleVictimology` holds it,
#: with the start time its ``start_times()`` derives.
Pair = namedtuple(
    "Pair", "amplifier_ip victim_ip port packets avg_interval last_seen_ago start_time"
)


def victim_pairs(got):
    """A :class:`SampleVictimology`'s victim columns as :data:`Pair` rows."""
    return [
        Pair(*row)
        for row in zip(
            got.amplifier_ip.tolist(),
            got.victim_ip.tolist(),
            got.port.tolist(),
            got.packets.tolist(),
            got.avg_interval.tolist(),
            got.last_seen_ago.tolist(),
            got.start_times().tolist(),
        )
    ]


def reference_victimology(sample, onp_ip=None):
    """``(victim pairs, class counts, per-table max last-seen)`` of one
    sample: :func:`classify_entry` over its lenient tables."""
    pairs, kinds, max_last_seen = [], Counter(), []
    for table in lenient_parse(sample)[0]:
        if table.entries:
            max_last_seen.append(max(e.last_int for e in table.entries))
        for e in table.entries:
            if onp_ip is not None and e.addr == onp_ip:
                continue
            kind = classify_entry(e)
            kinds[kind] += 1
            if kind == CLASS_VICTIM:
                start = sample.t - e.last_int - e.count * e.avg_interval
                pairs.append(
                    Pair(table.amplifier_ip, e.addr, e.port, e.count, e.avg_interval, e.last_int, start)
                )
    return pairs, kinds, max_last_seen


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_victimology_kernels_match(data):
    samples = corpus_from(data, n_samples=3, mutated=True)
    report = analyze_dataset(build_event_columns(samples).sample_views(), onp_ip=1)
    every, rows, per_victim_amps, hours = [], [], [], Counter()
    for got, sample in zip(report.samples, samples):
        pairs, kinds, max_last_seen = reference_victimology(sample, onp_ip=1)
        assert victim_pairs(got) == pairs
        assert got.n_non_victim == kinds[CLASS_NON_VICTIM]
        assert got.n_scanner == kinds[CLASS_SCANNER]
        assert got.max_last_seen == max_last_seen
        every.extend(pairs)
        packets, amps = Counter(), Counter()
        starts = defaultdict(list)
        for pair in pairs:
            packets[pair.victim_ip] += pair.packets
            amps[pair.victim_ip] += 1
            starts[pair.victim_ip].append(pair.start_time)
        for values in starts.values():
            hours[int(sorted(values)[len(values) // 2] // HOUR)] += 1
        assert got.packets_per_victim() == dict(packets)
        assert list(got.packets_per_victim()) == list(packets)
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
    assert report.total_attack_packets() == sum(pair.packets for pair in every)
    assert report.all_victim_ips() == {pair.victim_ip for pair in every}
    ports = Counter(pair.port for pair in every)
    assert report.port_table() == [(p, n / len(every)) for p, n in ports.most_common(20)]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_concentration_kernel_matches_in_value_and_order(data):
    """Figure 5's group-by: same {asn: packets} *in the same insertion
    order* (most_common ties resolve by it), unrouted IPs dropped."""
    samples = corpus_from(data, n_samples=3, mutated=False)
    table = _FakeAsnTable()
    got = as_concentration(
        analyze_dataset(build_event_columns(samples).sample_views()), table
    )
    victims, amplifiers = defaultdict(int), defaultdict(int)
    for sample in samples:
        for pair in reference_victimology(sample)[0]:
            for totals, ip in ((victims, pair.victim_ip), (amplifiers, pair.amplifier_ip)):
                if table.asn_of(ip) is not None:
                    totals[table.asn_of(ip)] += pair.packets
    assert list(got.victim_as_packets.items()) == list(victims.items())
    assert list(got.amplifier_as_packets.items()) == list(amplifiers.items())


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_conformance_batch_answers_match_reference(data):
    """The batch side of ``world.streaming_matches_batch`` and Table 3,
    on a stand-in world over a mangled corpus, against counts over the
    lenient tables and :func:`classify_entry`."""
    samples = corpus_from(data, n_samples=3, mutated=True)
    asn_table = _FakeAsnTable()
    world = SimpleNamespace(onp=SimpleNamespace(monlist_samples=samples), table=asn_table)
    ctx = AnalysisContext(world)

    entry_totals, as_totals, windows = {}, {}, []
    for sample in samples:
        tables = lenient_parse(sample)[0]
        victims = [
            e
            for table in tables
            for e in table.entries
            if e.addr != ONP_PROBER_IP and classify_entry(e) == CLASS_VICTIM
        ]
        for table in tables:
            if table.entries:
                entry_totals[table.amplifier_ip] = (
                    entry_totals.get(table.amplifier_ip, 0) + len(table.entries)
                )
        for e in victims:
            asn = asn_table.asn_of(e.addr)
            if asn is not None:
                as_totals[asn] = as_totals.get(asn, 0) + e.count
        windows.append(
            (len({t.amplifier_ip for t in tables}), len(victims), sum(e.count for e in victims))
        )
    assert list(queries.amplifier_entry_totals(ctx).items()) == list(entry_totals.items())
    assert list(queries.victim_as_packet_totals(ctx).items()) == list(as_totals.items())
    assert [
        (row["amplifiers"], row["victim_pairs"], row["victim_packets"])
        for row in queries.capture_window_answers(ctx)
    ] == windows

    # Table 3: the first table of sample min(6, n - 1) with at least four
    # entries whose top entry is the prober's, else the note.
    prober = data.draw(st.sampled_from([0, 1003, 1019, 5003, 5005]))
    sample = samples[min(6, len(samples) - 1)]
    tables, stats = lenient_parse(sample)
    topped = [t for t in tables if len(t.entries) >= 4 and t.entries[0].addr == prober]
    if topped:
        expected = render_monlist_table(
            topped[0].entries[:8], title="Table 3: an amplifier's monlist table"
        )
    else:
        expected = (
            f"(no probe-topped table found: scanned {stats.captures_total} captures "
            f"of sample {sample.date} — {stats.captures_parsed} parsed, "
            f"{stats.captures_failed} unparseable)"
        )
    with mock.patch.object(repro.attack, "ONP_PROBER_IP", prober):
        assert render_artifact(world, "T3", context=ctx) == expected


def test_reply_byte_kernels_match():
    """Fig 4a's per-amplifier byte totals and the §3.4 mega census, read
    from the columns, against the lenient tables' on-wire totals: one
    amplifier answering in two samples, a mega reply, an empty capture
    and an empty sample."""
    samples = [
        packed_sample([(7, BASE_PACKET_SETS[20], 1), (9, attack_packets(3), 100)]),
        packed_sample(
            [(11, BASE_PACKET_SETS[1], 1), (9, BASE_PACKET_SETS[4], 10**7), (8, (), 1),
             (7, attack_packets(2), 1)],
            t=2000.0,
        ),
        packed_sample([], t=3000.0),
    ]
    totals, max_reply = {}, {}
    for sample in samples:
        for table in lenient_parse(sample)[0]:
            amp, reply = table.amplifier_ip, table.total_on_wire_bytes
            totals[amp] = totals.get(amp, 0) + reply
            max_reply[amp] = max(max_reply.get(amp, 0), reply)
    views = build_event_columns(samples).sample_views()
    got, ranks = aggregate_bytes_per_amplifier(views)
    assert list(got.items()) == list(totals.items())
    assert ranks == rank_series(totals.values())
    assert mega_amplifier_census(views) == MegaCensus(
        n_over_100kb=sum(1 for v in max_reply.values() if v > 100e3),
        n_over_1gb=sum(1 for v in max_reply.values() if v > 1e9),
        largest_bytes=max(max_reply.values()),
        fraction_under_50kb=sum(1 for v in totals.values() if v < 50e3) / len(totals),
    )


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
    assert churn_report(build_event_columns(samples).sample_views()) == expected


def version_sample(specs, t=1000.0):
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
    return packed_sample(built, t=t, mode=6)


def test_version_parse_packed_matches_object_path():
    """The packed version-sweep reader decodes the stores as columns; its
    rows (in first-capture order, last write winning) match the
    per-capture oracle over the same samples' capture views."""
    payloads = [
        render_system_variables("4.2.6p5", 2010, "Linux/2.6.32", "x86_64", 3, "GPS"),
        render_system_variables("4.1.1", 2004, "cisco", "unknown", 16, ".INIT."),
        (b"\x00\x01",),  # short mode-6 packet: unparseable, skipped
    ]
    specs = [(50, payloads[0]), (51, payloads[1]), (52, payloads[2]), (50, payloads[1])]
    samples = [version_sample(specs), version_sample(specs, t=2000.0)]
    fast = parse_version_samples(samples)
    slow = parse_version_captures([c for sample in samples for c in sample.captures])
    assert len(fast) == len(slow) > 0
    rows = zip(
        fast.ip.tolist(),
        fast.family.tolist(),
        fast.system.tolist(),
        fast.stratum.tolist(),
        fast.compile_year.tolist(),
    )
    assert [row[:4] + (row[4] or None,) for row in rows] == [
        (r.ip, r.os_family, r.system, r.stratum, r.compile_year) for r in slow
    ]
    distribution, stratum16, cdf = version_statistics(slow)
    assert list(fast.os_distribution().items()) == list(distribution.items())
    assert fast.stratum16_fraction() == stratum16
    assert fast.compile_year_cdf() == cdf


# ---------------------------------------------------------------------------
# Concat and spill
# ---------------------------------------------------------------------------


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
    merged = build_event_columns(samples)  # concat + spill engaged
    assert isinstance(merged.entries.base, np.memmap) or isinstance(
        merged.entries, np.memmap
    )
    for view, sample in zip(merged.sample_views(), samples):
        assert_sample_equivalent(view, sample)


def test_event_columns_spill_roundtrip(monkeypatch, tmp_path):
    """Past the threshold the entries blob lives in a memmap; views are
    unaffected."""
    monkeypatch.setenv("REPRO_SPILL_MB", "0")
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
    sample = packed_sample([(7, BASE_PACKET_SETS[40], 1)])
    columns = columns_for_sample(sample)
    spilled = columns.maybe_spill()
    (view,) = spilled.sample_views()
    assert_sample_equivalent(view, sample)
