"""Reconstructing monlist tables from captured response packets (§4.2).

This is the ntpdc-equivalent protocol logic the paper applied to 5M
amplifier-week response sets: parse each mode-7 packet, validate it against
the request, and reassemble the multi-packet table in sequence order.  When
an amplifier sent repeated copies of the table (a mega amplifier), the
*final* table received is used, as in the paper — our captures store
exactly that rendition plus the repeat count.

Corpora are decoded in bulk by
:func:`~repro.analysis.event_columns.decode_capture_batch`; this module
holds the per-capture pieces it builds on: the lenient salvage path every
capture with a malformed packet falls back to (whose reassembly rule the
batch decoder applies itself to the rest), the strict reference parser,
and the :class:`ParseStats` ledger of what was discarded.
"""

from dataclasses import dataclass

from repro.net.framing import on_wire_bytes
from repro.ntp.constants import MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE
from repro.ntp.wire import WireError, decode_mode7, decode_mode7_stream

__all__ = [
    "ReconstructedTable",
    "reconstruct_table",
    "reconstruct_table_lenient",
    "ParseStats",
]


@dataclass
class ReconstructedTable:
    """One amplifier's parsed monlist reply for one sample."""

    amplifier_ip: int
    t: float
    entries: tuple
    entry_size: int
    n_packets_once: int
    n_repeats: int
    payload_bytes_once: int
    on_wire_bytes_once: int

    @property
    def total_packets(self):
        return self.n_packets_once * self.n_repeats

    @property
    def total_on_wire_bytes(self):
        return self.on_wire_bytes_once * self.n_repeats

    @property
    def is_mega(self):
        return self.n_repeats > 1

    def __len__(self):
        return len(self.entries)


def reconstruct_table(capture):
    """Parse one :class:`~repro.measurement.onp.ProbeCapture` into a table.

    Packets are validated (response bit, consistent implementation/request
    code, item size) and entries concatenated in sequence order.  Raises
    :class:`~repro.ntp.wire.WireError` on malformed input.
    """
    decoded = [decode_mode7(p) for p in capture.packets]
    if not decoded:
        raise WireError("empty capture")
    first = decoded[0]
    for pkt in decoded:
        if not pkt.response:
            raise WireError("capture contains a non-response packet")
        if pkt.implementation != first.implementation:
            raise WireError("mixed implementations in one capture")
        if pkt.item_size not in (0, MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE):
            raise WireError(f"unexpected item size {pkt.item_size}")
    ordered = sorted(decoded, key=lambda p: p.sequence)
    entries = []
    for pkt in ordered:
        entries.extend(pkt.items)
    payload = sum(len(p) for p in capture.packets)
    wire = sum(on_wire_bytes(len(p)) for p in capture.packets)
    return ReconstructedTable(
        amplifier_ip=capture.target_ip,
        t=capture.t,
        entries=tuple(entries),
        entry_size=first.item_size,
        n_packets_once=len(capture.packets),
        n_repeats=capture.n_repeats,
        payload_bytes_once=payload,
        on_wire_bytes_once=wire,
    )


@dataclass
class ParseStats:
    """Per-sample accounting of everything the parse layer discarded.

    A real pipeline loses data in ways a bare ``continue`` hides; every
    discard here is counted so a systematically unparseable amplifier is
    visible in the quality report instead of silently vanishing from the
    figures.
    """

    captures_total: int = 0
    #: Captures reconstructed with nothing discarded.
    captures_ok: int = 0
    #: Captures reconstructed only by dropping some packets/entries.
    captures_salvaged: int = 0
    #: Captures with no salvageable response packets at all.
    captures_failed: int = 0
    #: Packets that did not decode as mode 7 (corruption).
    packets_undecodable: int = 0
    #: Decoded packets rejected by validation (non-response, mixed
    #: implementation, unsupported item size).
    packets_invalid: int = 0
    #: Repeated fragments (same sequence number; first copy kept).
    packets_duplicate: int = 0
    #: Fragments after a sequence gap, unusable for in-order reassembly.
    packets_out_of_sequence: int = 0
    #: Monitor entries recovered into tables.
    entries_recovered: int = 0
    #: Monitor entries discarded along with their rejected fragments.
    entries_discarded: int = 0

    @property
    def captures_parsed(self):
        return self.captures_ok + self.captures_salvaged

    @property
    def degraded(self):
        """True when anything at all was discarded."""
        return (
            self.captures_salvaged
            or self.captures_failed
            or self.packets_undecodable
            or self.packets_invalid
            or self.packets_duplicate
            or self.packets_out_of_sequence
            or self.entries_discarded
        ) != 0

    def merge(self, other):
        """Accumulate another :class:`ParseStats` into this one."""
        for stat_field in self.__dataclass_fields__:
            setattr(self, stat_field, getattr(self, stat_field) + getattr(other, stat_field))
        return self


def reconstruct_table_lenient(capture, stats=None):
    """Best-effort reconstruction of one capture.

    Salvages what the strict path would reject wholesale: undecodable and
    invalid packets are dropped, duplicate fragments are deduplicated
    (first copy wins), and the longest in-order sequence run from the
    lowest sequence number is reassembled — fragments after a sequence gap
    cannot be placed and are discarded.  Every discard is counted in
    ``stats``.  Returns None when nothing is salvageable.

    On a well-formed capture this is byte-identical to
    :func:`reconstruct_table` (same entries, same sizes) with zero
    discards — the clean world does not change.
    """
    if stats is None:
        stats = ParseStats()
    stats.captures_total += 1
    decoded, n_undecodable = decode_mode7_stream(capture.packets)
    stats.packets_undecodable += n_undecodable
    degraded = n_undecodable > 0

    valid = []
    expected_impl = None
    for pkt in decoded:
        if not pkt.response or pkt.item_size not in (0, MON_ENTRY_V1_SIZE, MON_ENTRY_V2_SIZE):
            stats.packets_invalid += 1
            stats.entries_discarded += len(pkt.items)
            degraded = True
            continue
        if expected_impl is None:
            expected_impl = pkt.implementation
        elif pkt.implementation != expected_impl:
            stats.packets_invalid += 1
            stats.entries_discarded += len(pkt.items)
            degraded = True
            continue
        valid.append(pkt)

    by_sequence = {}
    for pkt in valid:  # arrival order; first copy of a sequence wins
        if pkt.sequence in by_sequence:
            stats.packets_duplicate += 1
            degraded = True
            continue
        by_sequence[pkt.sequence] = pkt
    if not by_sequence:
        stats.captures_failed += 1
        return None

    # Reassemble the contiguous run from the lowest sequence; a fragment
    # beyond a gap has no defensible position in the table and is dropped
    # (never interpolated, never fabricated).
    sequences = sorted(by_sequence)
    run = [sequences[0]]
    for seq in sequences[1:]:
        if seq == run[-1] + 1:
            run.append(seq)
        else:
            break
    for seq in sequences[len(run):]:
        stats.packets_out_of_sequence += 1
        stats.entries_discarded += len(by_sequence[seq].items)
        degraded = True

    entries = []
    for seq in run:
        entries.extend(by_sequence[seq].items)
    stats.entries_recovered += len(entries)
    if degraded:
        stats.captures_salvaged += 1
    else:
        stats.captures_ok += 1
    payload = sum(len(p) for p in capture.packets)
    wire = sum(on_wire_bytes(len(p)) for p in capture.packets)
    return ReconstructedTable(
        amplifier_ip=capture.target_ip,
        t=capture.t,
        entries=tuple(entries),
        entry_size=by_sequence[run[0]].item_size,
        n_packets_once=len(capture.packets),
        n_repeats=capture.n_repeats,
        payload_bytes_once=payload,
        on_wire_bytes_once=wire,
    )
