"""Parsing the ``version`` probe corpus (§3.3, Table 2).

Consumes raw mode-6 response captures: reassembles fragmented payloads,
parses the system-variable strings, and tabulates OS/system strings,
stratum-16 fractions, and compile years — exactly the fields Table 2 and
§3.3's "poor state of updates" findings are built from.
"""

from collections import Counter
from dataclasses import dataclass, field

from repro.ntp.constants import STRATUM_UNSYNCHRONIZED
from repro.ntp.variables import extract_compile_year, parse_system_variables
from repro.ntp.wire import WireError, decode_mode6

__all__ = [
    "VersionRecord",
    "VersionReport",
    "parse_version_captures",
    "parse_version_samples",
    "os_family_of",
]

#: Map raw ``system=`` strings onto Table 2's OS families.
_FAMILY_KEYWORDS = [
    ("cisco", "cisco"),
    ("unix", "unix"),
    ("linux", "linux"),
    ("freebsd", "bsd"),
    ("netbsd", "bsd"),
    ("openbsd", "bsd"),
    ("bsd", "bsd"),
    ("junos", "junos"),
    ("darwin", "darwin"),
    ("windows", "windows"),
    ("sunos", "sun"),
    ("sun", "sun"),
    ("vmkernel", "vmkernel"),
    ("secureos", "secureos"),
    ("qnx", "qnx"),
    ("cygwin", "cygwin"),
    ("isilon", "isilon"),
]


def os_family_of(system_string):
    """Classify a raw system string into a Table-2 OS family."""
    lowered = (system_string or "").lower()
    for keyword, family in _FAMILY_KEYWORDS:
        if keyword in lowered:
            return family
    return "other"


@dataclass(frozen=True)
class VersionRecord:
    """One server's parsed version variables."""

    ip: int
    os_family: str
    system: str
    stratum: int
    compile_year: int  # None when absent


@dataclass
class VersionReport:
    """Aggregates over a set of version records."""

    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def os_distribution(self):
        """{family: fraction} — one Table 2 column."""
        counts = Counter(r.os_family for r in self.records)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {family: n / total for family, n in counts.most_common()}

    def stratum16_fraction(self):
        """§3.3: fraction reporting stratum 16 (unsynchronized)."""
        if not self.records:
            return 0.0
        n16 = sum(1 for r in self.records if r.stratum == STRATUM_UNSYNCHRONIZED)
        return n16 / len(self.records)

    def compile_year_cdf(self, years=(2004, 2010, 2011, 2012, 2013)):
        """{year: fraction compiled before it} over records with years."""
        with_years = [r.compile_year for r in self.records if r.compile_year]
        if not with_years:
            return {year: 0.0 for year in years}
        return {
            year: sum(1 for y in with_years if y < year) / len(with_years)
            for year in years
        }

    def restrict_to(self, ips):
        """A sub-report over the given IPs (e.g. the mega amplifier set)."""
        ips = set(ips)
        sub = VersionReport()
        sub.records = [r for r in self.records if r.ip in ips]
        return sub


#: Memo sentinel for packet tuples that failed to decode.
_UNPARSEABLE = object()


def _parse_one_version_capture(packets):
    """Parse one capture's packets into IP-independent record fields.

    Returns ``(os_family, system, stratum, compile_year)`` or
    ``_UNPARSEABLE``.  Split out so the corpus loop can memoize on the
    packet tuple: a server's reply bytes are identical across weekly
    sweeps (and the apparatus reuses the reply object), so a corpus with
    N captures typically has far fewer distinct payloads than captures.
    """
    try:
        fragments = sorted((decode_mode6(p) for p in packets), key=lambda p: p.offset)
    except WireError:
        return _UNPARSEABLE
    payload = b"".join(f.data for f in fragments)
    variables = parse_system_variables(payload)
    system = variables.get("system", "")
    try:
        stratum = int(variables.get("stratum", "-1"))
    except ValueError:
        stratum = -1
    return (
        os_family_of(system),
        system,
        stratum,
        extract_compile_year(variables.get("version")),
    )


def _record_fields(by_ip, memo, key, packets, target_ip):
    fields = memo.get(key)
    if fields is None:
        fields = memo[key] = _parse_one_version_capture(packets)
    if fields is _UNPARSEABLE:
        return
    os_family, system, stratum, compile_year = fields
    by_ip[target_ip] = VersionRecord(
        ip=target_ip,
        os_family=os_family,
        system=system,
        stratum=stratum,
        compile_year=compile_year,
    )


def parse_version_captures(captures):
    """Parse raw mode-6 captures (deduplicating by IP, last write wins)."""
    by_ip = {}
    # Keyed by the packets tuple *value*, so the memo entry deliberately
    # carries no IP — two servers with byte-identical replies share one
    # parse but still get their own records.
    memo = {}
    for capture in captures:
        _record_fields(by_ip, memo, capture.packets, capture.packets, capture.target_ip)
    report = VersionReport()
    report.records = list(by_ip.values())
    return report


def parse_version_samples(version_samples):
    """Parse version samples straight from their packed stores.

    Each :class:`~repro.measurement.capture_store.PackedCaptures` is read
    column-wise — memo keys come from the raw payload slice and
    packet-length vector, so byte-identical replies still share one
    parse — and packet bytes are only sliced out on a memo miss.  The
    last-write-wins IP table fills in capture order, so the record list
    is identical to flattening every sample's captures through
    :func:`parse_version_captures`.
    """
    by_ip = {}
    memo = {}
    for sample in version_samples:
        packed = sample.packed
        pkt_offsets = packed.pkt_offsets
        byte_offsets = packed.byte_offsets
        pkt_lens = packed.pkt_lens
        payload = packed.payload
        targets = packed.target_ips
        for i in range(len(packed)):
            pkt_lo = int(pkt_offsets[i])
            pkt_hi = int(pkt_offsets[i + 1])
            raw = payload[int(byte_offsets[pkt_lo]) : int(byte_offsets[pkt_hi])].tobytes()
            lens = pkt_lens[pkt_lo:pkt_hi]
            key = (raw, lens.tobytes())
            packets = None
            if key not in memo:
                packets = []
                offset = 0
                for length in lens.tolist():
                    packets.append(raw[offset : offset + length])
                    offset += length
                packets = tuple(packets)
            _record_fields(by_ip, memo, key, packets, int(targets[i]))
    report = VersionReport()
    report.records = list(by_ip.values())
    return report
