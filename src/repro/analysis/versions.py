"""Table 2 and §3.3 from the ``version`` probe corpus.

The corpus is raw mode-6 READVAR captures, one packed store per weekly
sweep.  :func:`parse_version_samples` decodes it as arrays and builds no
per-capture or per-IP object:

* one sort groups the captures by IP; each IP keeps its last parseable
  capture, in order of its first.  A capture is unparseable when one of
  its packets is shorter than a header, is not mode 6, or declares a
  count past its end; only each IP's first and last captures are
  checked, until they parse;
* the chosen captures' fragment bodies are gathered and joined in offset
  order, a few thousand captures at a time;
* a byte search over those bodies checks the canonical ``name=value,
  name=value`` form and reads the ``system``, ``stratum`` and ``version``
  values.  A body in any other form goes alone through
  :func:`~repro.ntp.variables.parse_system_variables`;
* the record fields are derived once per distinct raw (system, stratum,
  compile year) triple.

:class:`VersionReport` holds one row per IP as columns and tabulates OS
families, the stratum-16 share and compile years — exactly the fields
Table 2 and §3.3's "poor state of updates" findings are built from.
"""

import numpy as np

from repro.analysis.event_columns import _gather_ranges, _record_view, _segment_sums
from repro.ntp.constants import MODE6_HEADER_SIZE, MODE_CONTROL, STRATUM_UNSYNCHRONIZED
from repro.ntp.variables import extract_compile_year, parse_system_variables

__all__ = [
    "VersionReport",
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


class VersionReport:
    """Aggregates over one row per responding IP, held as columns:
    ``ip``, ``family`` (Table 2's OS family), ``system`` (the raw
    ``system=`` string), ``stratum`` (-1 when absent or not an integer)
    and ``compile_year`` (0 when absent)."""

    __slots__ = ("ip", "family", "system", "stratum", "compile_year")

    def __init__(self, ip, family, system, stratum, compile_year):
        self.ip = ip
        self.family = family
        self.system = system
        self.stratum = stratum
        self.compile_year = compile_year

    def __len__(self):
        return len(self.ip)

    def os_distribution(self):
        """{family: fraction} — one Table 2 column, most common first and
        ties in order of first appearance (``Counter.most_common``)."""
        total = len(self)
        if total == 0:
            return {}
        names, first, counts = np.unique(self.family, return_index=True, return_counts=True)
        order = np.lexsort((first, -counts))
        return {str(names[i]): int(counts[i]) / total for i in order}

    def stratum16_fraction(self):
        """§3.3: fraction reporting stratum 16 (unsynchronized)."""
        if not len(self):
            return 0.0
        return int(np.count_nonzero(self.stratum == STRATUM_UNSYNCHRONIZED)) / len(self)

    def compile_year_cdf(self, years=(2004, 2010, 2011, 2012, 2013)):
        """{year: fraction compiled before it} over records with years."""
        with_years = self.compile_year[self.compile_year != 0]
        if not len(with_years):
            return {year: 0.0 for year in years}
        return {
            year: int(np.count_nonzero(with_years < year)) / len(with_years) for year in years
        }

    def restrict_to(self, ips):
        """A sub-report over the given IPs (e.g. the mega amplifier set),
        rows in this report's order; ``ips`` is any iterable of ints."""
        if not isinstance(ips, np.ndarray):
            ips = np.fromiter(ips, dtype=np.int64)
        keep = np.isin(self.ip, ips)
        return VersionReport(
            self.ip[keep],
            self.family[keep],
            self.system[keep],
            self.stratum[keep],
            self.compile_year[keep],
        )


#: The 12-byte mode-6 header as one record: byte 0 (leap, version,
#: mode), response/error/more/opcode, sequence, status, association,
#: fragment offset and data count.
_HEADER_DTYPE = np.dtype(
    [
        ("flags", "u1"),
        ("op", "u1"),
        ("sequence", ">u2"),
        ("status", ">u2"),
        ("assoc", ">u2"),
        ("offset", ">u2"),
        ("count", ">u2"),
    ]
)
assert _HEADER_DTYPE.itemsize == MODE6_HEADER_SIZE

#: The variables Table 2 reads.  The record fields come from the raw
#: ``system`` and ``stratum`` values and the version's compile year.
_KEYS = ("system", "stratum", "version")

#: The bytes ``\w`` matches, and the bytes ``str.strip`` removes, in text
#: decoded as ``parse_system_variables`` decodes it (a non-ASCII byte
#: becomes U+FFFD, which is neither).
_WORD = np.array([chr(c).isalnum() or c == ord("_") for c in range(128)] + [False] * 128)
_BLANK = np.array([chr(c).isspace() for c in range(128)] + [False] * 128)

#: ``extract_compile_year``'s pattern, ``UTC (\d{4})``, as bytes.
_UTC = np.frombuffer(b"UTC ", dtype=np.uint8)

#: The longest value of a read variable the byte search takes; a body
#: with a longer one goes to the tokenizer.  It bounds the value windows.
_MAX_VALUE = 254

#: Zero bytes before the first body and after the last: an 8-byte window
#: that ends at a body byte, or a value window that starts at one, stays
#: in the blob.
_FRONT, _BACK = 8, _MAX_VALUE + 8

#: A capture of one packet is copied as a window of a multiple of this
#: many bytes: rows of a width are gathered at once, and waste little.
_ROW = 64

#: Chosen captures decoded together: their joined bodies, and the arrays
#: the search derives from them, stay small enough to stay in cache.
_CHUNK = 8192

_COMMA, _EQUALS, _QUOTE = (ord(c) for c in ',="')


def _parseable(packed, cap_idx):
    """Which captures ``cap_idx`` of a store ``decode_mode6`` decodes: none
    of their packets is shorter than a header, in another mode, or
    declares a count past its end.  An empty capture decodes, to an empty
    body."""
    counts = np.asarray(packed.pkt_counts, dtype=np.int64)[cap_idx]
    pkt = _gather_ranges(np.asarray(packed.pkt_offsets, dtype=np.int64)[cap_idx], counts)
    lens = np.asarray(packed.pkt_lens, dtype=np.int64)[pkt]
    headers = _record_view(packed.payload, MODE6_HEADER_SIZE)
    ok = lens >= MODE6_HEADER_SIZE
    if len(headers):
        # Clipped so a short packet at the payload's end reads an
        # in-bounds header that its length check then rejects.
        at = np.minimum(np.asarray(packed.byte_offsets, dtype=np.int64)[pkt], len(headers) - 1)
        hdr = headers[at].view(_HEADER_DTYPE)
        ok &= (hdr["flags"] & 0x07) == MODE_CONTROL
        ok &= hdr["count"].astype(np.int64) + MODE6_HEADER_SIZE <= lens
    parseable = np.ones(len(cap_idx), dtype=bool)
    parseable[np.repeat(np.arange(len(cap_idx)), counts)[~ok]] = False
    return parseable


def _joined_bodies(parts):
    """The bodies of parseable captures, each capture's fragments joined
    in stable offset order; ``parts`` is a list of ``(packed, cap_idx)``.

    Returns ``(blob, lo, hi, which)``: body ``i`` is ``blob[lo[i]:hi[i]]``
    and belongs to capture ``which[i]`` of the parts' captures, counted
    across the list; ``lo`` ascends.  A capture of one packet (nearly
    every capture) is copied as one window of its payload, its body
    rounded up to a multiple of ``_ROW`` bytes, so these rows hold other
    bytes after their bodies.  The other bodies are gathered byte by
    byte after the rows.
    """
    payloads, at, size, rest_sizes, rest_bytes = [], [], [], [], []
    for packed, cap_idx in parts:
        payload = packed.payload
        counts = np.asarray(packed.pkt_counts, dtype=np.int64)[cap_idx]
        heads = np.zeros(len(cap_idx) + 1, dtype=np.int64)
        np.cumsum(counts, out=heads[1:])
        pkt = _gather_ranges(np.asarray(packed.pkt_offsets, dtype=np.int64)[cap_idx], counts)
        starts = np.asarray(packed.byte_offsets, dtype=np.int64)[pkt] + MODE6_HEADER_SIZE
        hdr = _record_view(payload, MODE6_HEADER_SIZE)[starts - MODE6_HEADER_SIZE]
        hdr = hdr.view(_HEADER_DTYPE)
        sizes = hdr["count"].astype(np.int64)
        one = counts == 1
        body_at, body_size = np.full((2, len(cap_idx)), -1, dtype=np.int64)
        body_at[one], body_size[one] = starts[heads[:-1][one]], sizes[heads[:-1][one]]
        body_size[body_at + (body_size // _ROW + 1) * _ROW > len(payload)] = -1
        rest = np.flatnonzero(body_size < 0)
        own = _gather_ranges(heads[rest], counts[rest])
        own = own[np.lexsort((hdr["offset"][own], np.repeat(np.arange(len(rest)), counts[rest])))]
        rest_bytes.append(payload[_gather_ranges(starts[own], sizes[own])])
        rest_sizes.append(_segment_sums(sizes[own][None], np.append(0, np.cumsum(counts[rest])))[0])
        payloads.append(payload)
        at.append(body_at)
        size.append(body_size)
    part = np.repeat(np.arange(len(parts)), [len(cap_idx) for _, cap_idx in parts])
    at, size = np.concatenate(at), np.concatenate(size)
    width = (size // _ROW + 1) * _ROW
    rows = np.flatnonzero(size >= 0)
    rows = rows[np.argsort(width[rows], kind="stable")]
    rest = np.flatnonzero(size < 0)
    row_ends = _FRONT + np.cumsum(width[rows])
    bounds = np.zeros(len(rest) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(rest_sizes), out=bounds[1:])
    bounds += int(row_ends[-1]) if len(rows) else _FRONT

    blob = np.zeros(int(bounds[-1]) + _BACK, dtype=np.uint8)
    lo = np.concatenate((row_ends - width[rows], bounds[:-1]))
    # One gather per row width and payload: those rows sit together.
    _, firsts = np.unique(width[rows] * len(parts) + part[rows], return_index=True)
    for first, last in zip(firsts.tolist(), [*firsts[1:].tolist(), len(rows)]):
        run = rows[first:last]
        window = _record_view(payloads[part[run[0]]], int(width[run[0]]))
        blob[lo[first] : row_ends[last - 1]] = window[at[run]].view(np.uint8)
    blob[bounds[0] : bounds[-1]] = np.concatenate(rest_bytes)
    hi = np.concatenate((lo[: len(rows)] + size[rows], bounds[1:]))
    return blob, lo, hi, np.concatenate((rows, rest))


def _search_variables(blob, lo, hi):
    """Byte search for Table 2's variables in canonical bodies.

    A body's fields are its comma-separated parts.  The body is canonical
    when no field holds two ``=``, every ``=`` follows a word byte inside
    its body, and a value that opens with a quote closes with one at the
    end of its field; and when its last ``system``, ``stratum`` and
    ``version`` values are at most ``_MAX_VALUE`` bytes, the first two
    with no other quote inside and no blank at either end.  On such a
    body ``parse_system_variables`` reads one variable per field that
    holds a ``=``, named by the word run before it: a quote elsewhere
    neither ends a value nor starts one.  The value is the rest of the
    field, quotes dropped, and the last field of a name gives it.

    Returns ``(canonical, starts, lengths)``: a mask over bodies, and the
    spans of the ``system`` value (row 0), the ``stratum`` value (row 1)
    and the compile year's ``UTC dddd`` in the ``version`` value (row 2),
    length -1 where absent.
    """
    n = len(lo)
    data = blob[: int(hi.max(initial=0))]
    # Every comma and "=", in order.  The blob holds other bytes between
    # bodies, so whatever these find out is kept only inside a body.
    marks = np.flatnonzero((data == _COMMA) | (data == _EQUALS))
    is_equals = np.append(blob[marks] == _EQUALS, False)
    equals = np.flatnonzero(is_equals)
    eq = marks[equals]

    def inside(positions):
        """The body each position lies in, and which positions do."""
        body = np.searchsorted(lo, positions, side="right") - 1
        return body, (body >= 0) & (positions < hi[np.maximum(body, 0)])

    def next_mark(index):
        """The mark after ``eq[index]``; the data's end after the last."""
        after = equals[index] + 1
        return np.where(after < len(marks), marks[np.minimum(after, len(marks) - 1)], len(data))

    def field_end(index, body):
        """Where the field of ``eq[index]`` ends: at the next mark, unless
        that lies past the body."""
        return np.minimum(next_mark(index), hi[body])

    # A bad "=": no word byte before it, a second one in its field, or a
    # quote that opens its value and is not closed at the field's end.
    previous = blob[eq - 1]
    unnamed = ~_WORD[previous]
    twice = is_equals[equals + 1]
    opens = blob[eq + 1] == _QUOTE
    check = np.flatnonzero(unnamed | twice | opens)
    body, found = inside(eq[check])
    check, body = check[found], body[found]
    end = field_end(check, body)
    opens[check] &= eq[check] + 1 < end
    bad = unnamed[check] | (twice[check] & (next_mark(check) < hi[body]))
    bad |= opens[check] & ((end - 1 <= eq[check] + 1) | (blob[end - 1] != _QUOTE))
    canonical = np.ones(n, dtype=bool)
    canonical[body[bad]] = False
    canonical[(hi > lo) & (blob[lo] == _EQUALS)] = False

    # The 8 bytes before each "=" that follows a key's last letter, byte
    # eq - 1 the most significant: a name is the word run that ends there.
    named = np.flatnonzero(np.logical_or.reduce([previous == ord(key[-1]) for key in _KEYS]))
    before = _record_view(blob, 8)[eq[named] - 8].view(np.dtype("<u8"))
    spans = np.full((3, 2, n), -1, dtype=np.int64)
    for row, key in enumerate(_KEYS):
        shift = 8 * (8 - len(key))
        hits = np.flatnonzero(before >> shift == int.from_bytes(key.encode("ascii"), "little"))
        preceding = (before[hits] >> (shift - 8)) & 0xFF
        hits = named[hits]
        hit_body, found = inside(eq[hits])
        hits, hit_body, preceding = hits[found], hit_body[found], preceding[found]
        start = eq[hits] - len(key)
        whole = (start == lo[hit_body]) | ((start > lo[hit_body]) & ~_WORD[preceding])
        hits, hit_body = hits[whole], hit_body[whole]
        # Fields run in body order, so a body's last hit is its value.
        last = np.ones(len(hits), dtype=bool)
        last[:-1] = hit_body[1:] != hit_body[:-1]
        hits, hit_body = hits[last], hit_body[last]
        quoted = opens[hits]
        start = eq[hits] + 1 + quoted
        length = field_end(hits, hit_body) - quoted - start
        unfit = length > _MAX_VALUE
        if key != "version":
            unfit |= (length > 0) & ~quoted & (
                _BLANK[blob[start]] | _BLANK[blob[start + length - 1]]
            )
            # A quote inside a quoted value would end it early.
            inner = np.flatnonzero(quoted & ~unfit)
            width = int(length[inner].max(initial=1))
            window = _record_view(blob, width)[start[inner]].view(np.uint8)
            marked = (window.reshape(len(inner), width) == _QUOTE) & (
                np.arange(width) < length[inner, None]
            )
            unfit[inner[marked.any(axis=1)]] = True
        canonical[hit_body[unfit]] = False
        spans[row, 0, hit_body] = start
        spans[row, 1, hit_body] = length

    # The compile year's text: the first "UTC dddd" wholly inside the
    # version value (``extract_compile_year``'s match); row 2 becomes its span.
    has = np.flatnonzero(canonical & (spans[2, 1] >= 8))
    start, length = spans[2, 0, has], spans[2, 1, has]
    spans[2] = -1
    span = int(length.max(initial=8))
    found = np.flatnonzero(_record_view(blob, span)[start].view(np.uint8) == _UTC[0])
    row, column = found // span, found % span
    window = _record_view(blob, 8)[start[row] + column].view(np.uint8).reshape(len(found), 8)
    match = (
        (column + 8 <= length[row])
        & (window[:, :4] == _UTC).all(axis=1)
        & ((window[:, 4:] >= ord("0")) & (window[:, 4:] <= ord("9"))).all(axis=1)
    )
    row, column = row[match], column[match]
    first = np.ones(len(row), dtype=bool)
    first[1:] = row[1:] != row[:-1]
    spans[2, 0, has[row[first]]] = start[row[first]] + column[first]
    spans[2, 1, has[row[first]]] = 8
    return canonical, spans[:, 0], spans[:, 1]


def _value_ids(blob, start, length, ids):
    """The id in ``ids`` of each value span (length -1 when absent).

    ``ids`` maps a raw value (None when absent) to an id and grows as new
    values appear.  Each value becomes one row of 8-byte words, (length +
    1, value, zero padding); a sort groups equal rows, and one value per
    group reaches Python.
    """
    width = 8 * (int(length.max(initial=0)) // 8 + 1)
    rows = np.empty((len(start), width), dtype=np.uint8)
    rows[:, 0] = length + 1
    window = _record_view(blob, width - 1)[np.maximum(start, 0)].view(np.uint8)
    rows[:, 1:] = window.reshape(len(start), width - 1)
    words = rows.view(np.dtype("<u8"))
    # Zero what follows each value: word k keeps its first (length + 1 -
    # 8k) bytes, the low ones of a little-endian word.
    kept = np.clip(length[:, None] + 1 - 8 * np.arange(width // 8), 0, 8).astype(np.uint64)
    words &= np.where(kept == 8, ~np.uint64(0), (np.uint64(1) << (np.uint64(8) * kept)) - np.uint64(1))
    # Equal rows sort together under any function of the row: one
    # multiply-add per word makes a single sort key.
    key = words[:, 0].copy()
    for column in words.T[1:]:
        key = key * np.uint64(0x9E3779B97F4A7C15) + column
    order = np.argsort(key)
    words = words[order]
    new = np.ones(len(start), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    distinct = [
        ids.setdefault(
            None if n < 0 else blob[at : at + n].tobytes().decode("ascii", "replace"), len(ids)
        )
        for at, n in zip(start[order[new]].tolist(), length[order[new]].tolist())
    ]
    codes = np.empty(len(start), dtype=np.int64)
    codes[order] = np.asarray(distinct, dtype=np.int64)[np.cumsum(new) - 1]
    return codes


def _read_variables(parts, values):
    """The ids in ``values`` (one dict per raw ``system``, ``stratum`` and
    compile-year text) of each chosen capture's raw values, for the
    captures ``parts`` names (see ``_joined_bodies``): canonical bodies
    by byte search, any other alone through the tokenizer (its year text
    is the whole version)."""
    blob, lo, hi, which = _joined_bodies(parts)
    canonical, starts, lengths = _search_variables(blob, lo, hi)
    ids = np.empty((len(_KEYS), len(lo)), dtype=np.int64)
    rows = np.flatnonzero(canonical)
    for row, ids_of in enumerate(values):
        ids[row, rows] = _value_ids(blob, starts[row, rows], lengths[row, rows], ids_of)
    for body in np.flatnonzero(~canonical).tolist():
        variables = parse_system_variables(blob[lo[body] : hi[body]].tobytes())
        for row, (key, ids_of) in enumerate(zip(_KEYS, values)):
            ids[row, body] = ids_of.setdefault(variables.get(key), len(ids_of))
    out = np.empty_like(ids)
    out[:, which] = ids
    return out


def _triple_fields(system, stratum, version):
    """A record's ``(os_family, system, stratum, compile_year)`` from its
    raw ``system``, ``stratum`` and ``version`` text (``None`` when
    absent; the year is 0 when absent)."""
    system = "" if system is None else system
    try:
        stratum = int("-1" if stratum is None else stratum)
    except ValueError:
        stratum = -1
    return os_family_of(system), system, stratum, extract_compile_year(version) or 0


def parse_version_samples(version_samples):
    """The version report over the sweeps' packed stores: one row per IP
    with a parseable capture, in order of its first parseable capture,
    holding the fields of its last one.

    Reads each store's arrays in place (a spilled payload stays
    memory-mapped) and gathers only the chosen captures' bodies.
    """
    stores = [sample.packed for sample in version_samples]
    ips = np.concatenate(
        [np.empty(0, dtype=np.int64)] + [np.asarray(p.target_ips, dtype=np.int64) for p in stores]
    )
    store_of = np.repeat(np.arange(len(stores)), [len(packed) for packed in stores])
    capture_of = np.concatenate(
        [np.empty(0, dtype=np.int64)] + [np.arange(len(packed)) for packed in stores]
    )
    # One sort of (IPv4 address, corpus position) keys groups each IP's
    # captures in corpus order.
    shift = len(ips).bit_length()
    keys = np.sort((ips << shift) | np.arange(len(ips)))
    ip, position = keys >> shift, keys & ((1 << shift) - 1)
    head = np.ones(len(ip), dtype=bool)
    head[1:] = ip[1:] != ip[:-1]
    firsts, lasts = np.flatnonzero(head), np.flatnonzero(np.roll(head, -1))

    def settle(at, step, stop):
        """Step each key index in ``at`` by ``step`` past unparseable
        captures: -1 where it would pass ``stop``, the group's far end."""
        at, todo = at.copy(), np.arange(len(at))
        while len(todo):
            where = position[at[todo]]
            ok = np.zeros(len(todo), dtype=bool)
            for index in np.unique(store_of[where]).tolist():
                mine = np.flatnonzero(store_of[where] == index)
                ok[mine] = _parseable(stores[index], capture_of[where[mine]])
            todo = todo[~ok]
            at[todo] += step
            past = (at[todo] - stop[todo]) * step > 0
            at[todo[past]] = -1
            todo = todo[~past]
        return at

    # Each IP's first and last parseable capture; most captures parse, so
    # only these are checked, stepping inward past any that do not.
    firsts, lasts = settle(firsts, 1, lasts), settle(lasts, -1, firsts)
    seen = firsts >= 0
    chosen = position[lasts[seen]][np.argsort(position[firsts[seen]])]

    values = tuple({} for _ in _KEYS)
    ids = np.empty((len(_KEYS), len(chosen)), dtype=np.int64)
    by_store = np.argsort(store_of[chosen], kind="stable")
    for lo in range(0, len(by_store), _CHUNK):
        rows = by_store[lo : lo + _CHUNK]
        store, runs = np.unique(store_of[chosen[rows]], return_index=True)
        parts = [
            (stores[index], capture_of[chosen[rows[first:last]]])
            for index, first, last in zip(
                store.tolist(), runs.tolist(), [*runs[1:].tolist(), len(rows)]
            )
        ]
        ids[:, rows] = _read_variables(parts, values)

    # The record fields of each distinct raw (system, stratum, year text).
    shape = [max(len(ids_of), 1) for ids_of in values]
    triples, codes = np.unique(np.ravel_multi_index(ids, shape), return_inverse=True)
    raws = [list(ids_of) for ids_of in values]
    fields = [
        _triple_fields(*(raw[i] for raw, i in zip(raws, triple)))
        for triple in zip(*(index.tolist() for index in np.unravel_index(triples, shape)))
    ]
    families, systems, strata, years = zip(*fields) if fields else ((), (), (), ())
    return VersionReport(
        ips[chosen],
        np.array(families, dtype=str)[codes],
        np.array(systems, dtype=object)[codes],
        np.array(strata, dtype=np.int64)[codes],
        np.array(years, dtype=np.int64)[codes],
    )
