"""Tests for version-probe parsing and Table 2 statistics.

The batch decode, :func:`parse_version_samples`, reads the packed stores
column-wise; ``tests.strategies.parse_version_captures`` parses one
capture at a time and is its oracle.  They must agree record for record,
in order, and on every Table 2 statistic: on the test world, and on
generated corpora with hostile payloads and packet faults.
"""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import os_family_of, parse_version_samples
from repro.analysis import versions
from repro.measurement.capture_store import PackedCaptures, PackedCapturesBuilder
from repro.measurement.onp import OnpSample
from repro.ntp import variables
from repro.ntp.constants import CTL_OP_READVAR, MODE6_DATA_AREA, MODE6_HEADER_SIZE
from repro.ntp.variables import parse_system_variables, render_system_variables
from repro.ntp.wire import WireError, decode_mode6, encode_mode6_response
from tests.strategies import parse_version_captures, version_statistics


def report_rows(report):
    """The report's rows as oracle-shaped tuples (an absent year is None)."""
    return [
        (ip, family, system, stratum, year or None)
        for ip, family, system, stratum, year in zip(
            report.ip.tolist(),
            report.family.tolist(),
            report.system.tolist(),
            report.stratum.tolist(),
            report.compile_year.tolist(),
        )
    ]


def oracle_rows(records):
    return [(r.ip, r.os_family, r.system, r.stratum, r.compile_year) for r in records]


def statistics(report):
    return (
        list(report.os_distribution().items()),
        report.stratum16_fraction(),
        report.compile_year_cdf(),
    )


def assert_matches_oracle(samples, subsets=()):
    report = parse_version_samples(samples)
    records = parse_version_captures([c for sample in samples for c in sample.captures])
    assert report_rows(report) == oracle_rows(records)
    for ips in (None, *subsets):
        sub = report if ips is None else report.restrict_to(ips)
        kept = records if ips is None else [r for r in records if r.ip in ips]
        distribution, stratum16, cdf = version_statistics(kept)
        assert statistics(sub) == (list(distribution.items()), stratum16, cdf)
    return report


def test_os_family_mapping():
    assert os_family_of("Linux/3.2.0") == "linux"
    assert os_family_of("cisco") == "cisco"
    assert os_family_of("FreeBSD/9.1") == "bsd"
    assert os_family_of("JUNOS12.1") == "junos"
    assert os_family_of("UNIX") == "unix"
    assert os_family_of("weird-thing") == "other"
    assert os_family_of(None) == "other"


@pytest.fixture(scope="module")
def version_report(world):
    return parse_version_samples(world.onp.version_samples)


def test_records_deduplicated_by_ip(version_report):
    assert len(np.unique(version_report.ip)) == len(version_report) > 0


def test_world_matches_oracle(world):
    hosts = world.hosts
    amplifier_ips = set(hosts.ip[hosts.monlist_amplifier].tolist())
    mega_ips = set(hosts.ip[hosts.is_mega].tolist())
    assert_matches_oracle(world.onp.version_samples, (amplifier_ips, mega_ips))


def test_all_ntp_distribution_cisco_heavy(version_report):
    """Table 2 right column: cisco/unix/linux dominate.

    The measured aggregate mixes the cisco-heavy non-amplifier majority
    with the linux-heavy amplifier lineage (inflated by DHCP churn, as in
    the paper's 5.8M unique version IPs), so exact column values are
    checked on the non-amplifier subset in the benchmarks; here we assert
    the aggregate ordering.
    """
    dist = version_report.os_distribution()
    assert dist.get("cisco", 0) > 0.25
    assert dist.get("unix", 0) > 0.12
    top3 = sorted(dist, key=dist.get, reverse=True)[:3]
    assert set(top3) == {"cisco", "unix", "linux"}


def test_amplifier_subset_linux_heavy(version_report, world):
    amplifier_ips = set(world.hosts.ip[world.hosts.monlist_amplifier].tolist())
    sub = version_report.restrict_to(amplifier_ips)
    assert len(sub) > 10
    dist = sub.os_distribution()
    assert dist.get("linux", 0) > 0.5  # Table 2 middle column: ~80%
    assert dist.get("cisco", 0) < 0.1


def test_mega_subset_includes_junos(version_report, world):
    mega_ips = set(world.hosts.ip[world.hosts.is_mega].tolist())
    sub = version_report.restrict_to(mega_ips)
    if len(sub) < 5:
        pytest.skip("too few version-responding megas at this scale")
    dist = sub.os_distribution()
    assert dist.get("junos", 0) + dist.get("linux", 0) > 0.4


def test_stratum16_fraction(version_report):
    frac = version_report.stratum16_fraction()
    assert 0.12 < frac < 0.27  # paper: 19%


def test_compile_year_cdf(version_report):
    cdf = version_report.compile_year_cdf()
    assert 0.05 < cdf[2004] < 0.22  # paper: 13% before 2004
    assert 0.45 < cdf[2012] < 0.72  # paper: 59% before 2012
    assert cdf[2004] < cdf[2010] < cdf[2012] < cdf[2013]


def test_empty_report():
    report = parse_version_samples([])
    assert len(report) == 0
    assert report.os_distribution() == {}
    assert report.stratum16_fraction() == 0.0
    assert report.compile_year_cdf()[2012] == 0.0
    assert len(report.restrict_to({1, 2})) == 0


def test_spilled_stores_decode_like_ram_stores(world):
    """A store's payload may be a memory-mapped spill file."""
    ram = [sample for sample in world.onp.version_samples if len(sample.packed)]
    spilled = [
        OnpSample(sample.t, 6, PackedCaptures.concat([sample.packed]).maybe_spill(threshold=0))
        for sample in ram
    ]
    assert all(isinstance(sample.packed.payload, np.memmap) for sample in spilled)
    assert report_rows(parse_version_samples(spilled)) == report_rows(parse_version_samples(ram))


def test_no_parse_per_ip(world, monkeypatch):
    """The world's replies are all in canonical form: the tokenizer never
    runs, and record fields are derived once per distinct raw (system,
    stratum, compile-year text) triple, not once per IP or capture."""
    last = {}
    for sample in world.onp.version_samples:
        for capture in sample.captures:
            try:
                fragments = sorted(map(decode_mode6, capture.packets), key=lambda f: f.offset)
            except WireError:
                continue
            last[capture.target_ip] = b"".join(f.data for f in fragments)
    triples = set()
    for payload in last.values():
        found = parse_system_variables(payload)
        year = re.search(r"UTC \d{4}", found.get("version") or "")
        triples.add((found.get("system"), found.get("stratum"), year and year.group()))

    class CountingPattern:
        def __init__(self, pattern):
            self.pattern, self.calls = pattern, 0

        def finditer(self, text):
            self.calls += 1
            return self.pattern.finditer(text)

    tokenizer = CountingPattern(variables._FIELD_RE)
    monkeypatch.setattr(variables, "_FIELD_RE", tokenizer)
    derived = []
    triple_fields = versions._triple_fields

    def counting(*raw):
        derived.append(raw)
        return triple_fields(*raw)

    monkeypatch.setattr(versions, "_triple_fields", counting)
    report = parse_version_samples(world.onp.version_samples)
    assert len(report) == len(last) > 1000
    assert tokenizer.calls == 0
    assert sorted(derived, key=repr) == sorted(triples, key=repr)
    assert len(triples) < len(last) / 4


# -- generated corpora: hostile payloads and packet faults ---------------------

#: Field names: the three Table 2 reads, a near miss of each, and others.
_NAMES = [b"system", b"stratum", b"version", b"xsystem", b"Stratum", b"processor", b"leap"]

#: Values: canonical ones, and every way a value can leave the canonical
#: form (a comma inside quotes, an unterminated quote, blanks, non-ASCII).
_VALUES = [
    b'"Linux/2.6.32"',
    b'"cisco"',
    b"FreeBSD/9.1",
    b'"JUNOS12.1"',
    b"3",
    b"16",
    b"1_6",
    b" 3 ",
    b"\x1c2\x1c",
    b"x",
    b"",
    b'""',
    b'"ntpd 4.2.6p5@1.2349-o Tue Dec 11 08:40:34 UTC 2010 (1)"',
    b"ntpd 4.1.1 UTC 1989 UTC 2003",
    b'"UTC 20125"',
    b'"a, b"',
    b'"unterminated',
    b'"q"x',
    b'x"y',
    b"caf\xc3\xa9 \xff",
    b'"Lin\xffux"',
    b"\xe9\xe9",
    b'"\x1c Linux \x1c"',
    b"a=b",
]

#: What joins two fields: the canonical ", " and its variants.
_SEPARATORS = [b", ", b", ", b",", b" , ", b" ,", b",  ", b",\x1c", b", , "]

_fields = st.tuples(
    st.sampled_from([b"", b" ", b"-", b'"'] + [b""] * 4),
    st.sampled_from(_NAMES),
    st.sampled_from([b"="] * 6 + [b" =", b""]),
    st.sampled_from(_VALUES),
)


@st.composite
def version_payloads(draw):
    """A READVAR body: canonical from ``render_system_variables``, or a
    hand-built list of fields with hostile names, values and separators
    (duplicate and missing keys included)."""
    if draw(st.booleans()):
        return render_system_variables(
            draw(st.sampled_from(["4.2.6p5", "4.1.1", "4.2.0"])),
            draw(st.sampled_from([1999, 2003, 2010, 2013])),
            draw(st.sampled_from(["Linux/2.6.32", "cisco", "UNIX", "JUNOS12.1", ""])),
            "x86_64",
            draw(st.sampled_from([2, 3, 16])),
            "GPS",
            extra_vars=draw(st.integers(min_value=0, max_value=22)),
            weekday_index=draw(st.integers(min_value=0, max_value=6)),
        ).encode("ascii")
    fields = draw(st.lists(_fields, max_size=7))
    out = b""
    for index, (junk, name, equals, value) in enumerate(fields):
        if index:
            out += draw(st.sampled_from(_SEPARATORS))
        out += junk + name + equals + value
    return out + draw(st.sampled_from([b""] * 6 + [b",", b", ", b" "]))


@st.composite
def version_captures(draw):
    """One capture's packets: the payload fragmented and encoded, then
    possibly faulted (a short packet, the wrong mode, a count past the
    end, reordered, dropped or duplicated fragments, no packets)."""
    payload = draw(version_payloads())
    size = draw(st.sampled_from([MODE6_DATA_AREA, MODE6_DATA_AREA, 40, 7]))
    pieces = [payload[i : i + size] for i in range(0, len(payload), size)] or [b""]
    packets = [
        encode_mode6_response(CTL_OP_READVAR, piece, sequence=i, offset=i * size)
        for i, piece in enumerate(pieces)
    ]
    fault = draw(
        st.sampled_from(
            [None] * 8 + ["short", "mode", "count", "reorder", "duplicate", "drop", "empty"]
        )
    )
    index = draw(st.integers(min_value=0, max_value=len(packets) - 1))
    if fault == "short":
        keep = draw(st.integers(min_value=0, max_value=MODE6_HEADER_SIZE - 1))
        packets[index] = packets[index][:keep]
    elif fault == "mode":
        packets[index] = bytes([packets[index][0] & 0xF8 | 3]) + packets[index][1:]
    elif fault == "count":
        body = len(pieces[index])
        keep = MODE6_HEADER_SIZE + body - 1 if body else MODE6_HEADER_SIZE - 1
        packets[index] = packets[index][:keep]
    elif fault == "reorder":
        packets = draw(st.permutations(packets))
    elif fault == "duplicate":
        packets.insert(index, packets[index])
    elif fault == "drop" and len(packets) > 1:
        del packets[index]
    elif fault == "empty":
        packets = []
    return tuple(packets)


@st.composite
def version_corpora(draw):
    """Up to three weekly samples over a small IP pool, so IPs repeat
    within and across samples and a later capture may be unparseable."""
    samples = []
    for week in range(draw(st.integers(min_value=1, max_value=3))):
        builder = PackedCapturesBuilder(1000.0 + 604800.0 * week)
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            builder.add(draw(st.integers(min_value=1, max_value=6)), draw(version_captures()))
        samples.append(OnpSample(1000.0 + 604800.0 * week, 6, builder.finish()))
    return samples


@given(version_corpora(), st.sets(st.integers(min_value=1, max_value=6)))
def test_batch_decode_matches_oracle(samples, ips):
    assert_matches_oracle(samples, (ips,))
