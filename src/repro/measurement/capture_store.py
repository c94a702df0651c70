"""Packed storage for ONP probe captures: one blob, not a million tuples.

At ``scale=1.0`` a single monlist sweep renders mode-7 replies from
~1.4M amplifiers.  Holding those as per-capture Python tuples of bytes
objects costs several GB of object overhead before the payload itself;
this module packs a whole sweep (or one build-block's slice of it) into
five flat index arrays plus a single contiguous payload blob:

``target_ips[i]``, ``n_repeats[i]``
    per-capture identity (as in :class:`repro.measurement.onp.ProbeCapture`);
``pkt_counts[i]``, ``pkt_offsets`` (prefix sums)
    which packets belong to capture ``i``;
``pkt_lens[j]``, ``byte_offsets`` (prefix sums)
    where packet ``j``'s bytes live in ``payload``.

The payload can live in RAM (``np.ndarray``) or — past a configurable
threshold — in an anonymous memory-mapped spill file, so a full-scale
corpus streams from disk through ``np.memmap`` windows instead of
occupying tens of GB of RSS.  The spill file is unlinked immediately
after mapping: POSIX keeps the mapping alive through the open fd, so
nothing leaks even on a crashed run.

Spill files carry an integrity header (magic + payload length + CRC-32)
that is validated before the payload is mapped: a truncated write (full
disk, killed process) or corrupted file fails loudly, naming the path,
instead of feeding garbage bytes into the analysis.  File names embed
the writing PID so :func:`sweep_stale_spills` can remove files that a
dead process left behind in a configured ``REPRO_SPILL_DIR`` (the
window between ``mkstemp`` and ``unlink`` in a SIGKILLed run).

A ``PackedCaptures`` also doubles as the worker→parent transport for the
sharded ONP sweep (it pickles compactly) and as the cache-pickle form
(``__getstate__`` re-inlines a spilled payload so a cached world never
depends on an unlinked temp file).
"""

from __future__ import annotations

import os
import re
import struct
import tempfile
import zlib

import numpy as np

__all__ = [
    "PackedCaptures",
    "PackedCapturesBuilder",
    "pack_captures",
    "SpillError",
    "spill_threshold_bytes",
    "write_spill",
    "map_spill",
    "maybe_spill_array",
    "inline_array",
    "sweep_stale_spills",
]

#: Environment knobs for the spill layer.
SPILL_MB_ENV = "REPRO_SPILL_MB"
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

#: Default payload size past which a store spills to a memmap (256 MB).
_DEFAULT_SPILL_MB = 256

#: Spill-file integrity header: magic, payload length, CRC-32.
SPILL_MAGIC = b"RSPILL01"
_SPILL_HEADER = struct.Struct(">8sQI")
SPILL_HEADER_SIZE = _SPILL_HEADER.size

#: Spill file names embed the writing PID for the stale-file sweep.
_SPILL_NAME_RE = re.compile(r"repro-spill-(\d+)-.*\.bin$")


class SpillError(RuntimeError):
    """A spill file failed integrity validation (always names the path)."""


def spill_threshold_bytes():
    """The configured spill threshold in bytes (``REPRO_SPILL_MB`` MB)."""
    try:
        mb = float(os.environ.get(SPILL_MB_ENV, _DEFAULT_SPILL_MB))
    except ValueError:
        mb = _DEFAULT_SPILL_MB
    return int(mb * 1024 * 1024)


def write_spill(data, directory=None):
    """Write payload bytes to a fresh spill file with the integrity
    header; returns the file's path.  ``directory`` defaults to
    ``REPRO_SPILL_DIR`` (or the system temp dir when unset)."""
    if directory is None:
        directory = os.environ.get(SPILL_DIR_ENV) or None
    fd, path = tempfile.mkstemp(
        prefix=f"repro-spill-{os.getpid()}-", suffix=".bin", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(
                _SPILL_HEADER.pack(SPILL_MAGIC, len(data), zlib.crc32(data) & 0xFFFFFFFF)
            )
            handle.write(data)
    except BaseException:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise
    return path


def map_spill(path):
    """Validate a spill file's header and memory-map its payload.

    Raises :class:`SpillError` naming the path when the file is shorter
    than its header, carries the wrong magic, promises a different
    payload length than it holds, or fails the checksum — garbage bytes
    must never silently enter the analysis.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise SpillError(f"unreadable spill file {path}: {exc}") from None
    if size < SPILL_HEADER_SIZE:
        raise SpillError(
            f"corrupt spill file {path}: {size} bytes is shorter than "
            f"the {SPILL_HEADER_SIZE}-byte header"
        )
    with open(path, "rb") as handle:
        magic, length, checksum = _SPILL_HEADER.unpack(handle.read(SPILL_HEADER_SIZE))
    if magic != SPILL_MAGIC:
        raise SpillError(f"corrupt spill file {path}: bad magic {magic!r}")
    if size - SPILL_HEADER_SIZE != length:
        raise SpillError(
            f"short spill file {path}: header promises {length} payload bytes, "
            f"file holds {size - SPILL_HEADER_SIZE}"
        )
    if length == 0:
        return np.empty(0, dtype=np.uint8)
    mapped = np.memmap(path, dtype=np.uint8, mode="r", offset=SPILL_HEADER_SIZE)
    actual = zlib.crc32(mapped) & 0xFFFFFFFF
    if actual != checksum:
        raise SpillError(
            f"corrupt spill file {path}: payload crc32 {actual:#010x} "
            f"!= recorded {checksum:#010x}"
        )
    return mapped


def maybe_spill_array(array, threshold=None):
    """Move any numpy array's buffer into an unlinked spill memmap past
    the threshold (the generic sibling of ``PackedCaptures.maybe_spill``,
    used by the darknet/ISP corpora).  Returns the original array when it
    is small, empty, or already memmap-backed; otherwise a read-only
    memmap view with the same dtype and shape.
    """
    if threshold is None:
        threshold = spill_threshold_bytes()
    base = array.base if array.base is not None else array
    if isinstance(base, np.memmap) or array.nbytes == 0 or array.nbytes <= threshold:
        return array
    sweep_stale_spills()
    path = write_spill(np.ascontiguousarray(array).tobytes())
    try:
        mapped = map_spill(path)
    finally:
        os.unlink(path)
    return mapped.view(array.dtype).reshape(array.shape)


def inline_array(array):
    """A RAM-resident copy of a possibly memmap-backed array — the pickle
    form, so cached worlds never depend on an unlinked temp file."""
    base = array.base if array.base is not None else array
    if isinstance(base, np.memmap):
        return np.asarray(array).copy()
    return array


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: the process exists but is not ours.
        return True
    return True


def sweep_stale_spills(directory=None):
    """Remove spill files left in ``REPRO_SPILL_DIR`` by dead processes.

    Normally a spill file is unlinked the moment it is mapped, but a
    process SIGKILLed inside that window leaves it behind.  Files from
    live PIDs (including our own) are never touched.  Returns the list
    of removed paths; a no-op when no spill directory is configured
    (files in the system temp dir age out by other means).
    """
    if directory is None:
        directory = os.environ.get(SPILL_DIR_ENV) or None
    if not directory or not os.path.isdir(directory):
        return []
    removed = []
    for name in sorted(os.listdir(directory)):
        match = _SPILL_NAME_RE.match(name)
        if not match:
            continue
        pid = int(match.group(1))
        if pid == os.getpid() or _pid_alive(pid):
            continue
        path = os.path.join(directory, name)
        try:
            os.unlink(path)
        except OSError:
            continue
        removed.append(path)
    return removed


class _CaptureView:
    """A :class:`ProbeCapture`-shaped view into a packed store.

    Materializes nothing until asked: ``packets`` slices the payload
    (RAM or memmap window) on access.
    """

    __slots__ = ("_store", "_index")

    def __init__(self, store, index):
        self._store = store
        self._index = index

    @property
    def target_ip(self):
        return int(self._store.target_ips[self._index])

    @property
    def t(self):
        return self._store.t

    @property
    def n_repeats(self):
        return int(self._store.n_repeats[self._index])

    @property
    def packets(self):
        store, i = self._store, self._index
        lo = int(store.pkt_offsets[i])
        hi = int(store.pkt_offsets[i + 1])
        offsets = store.byte_offsets
        payload = store.payload
        return tuple(
            payload[int(offsets[j]) : int(offsets[j + 1])].tobytes() for j in range(lo, hi)
        )

    @property
    def total_packets(self):
        store, i = self._store, self._index
        return int(store.pkt_counts[i]) * int(store.n_repeats[i])

    @property
    def total_payload_bytes(self):
        store, i = self._store, self._index
        lo = int(store.pkt_offsets[i])
        hi = int(store.pkt_offsets[i + 1])
        span = int(store.byte_offsets[hi]) - int(store.byte_offsets[lo])
        return span * int(store.n_repeats[i])


class PackedCaptures:
    """One sample's captures as flat arrays over a single payload blob."""

    __slots__ = (
        "t",
        "target_ips",
        "n_repeats",
        "pkt_counts",
        "pkt_offsets",
        "pkt_lens",
        "byte_offsets",
        "payload",
    )

    def __init__(self, t, target_ips, n_repeats, pkt_counts, pkt_offsets, pkt_lens, byte_offsets, payload):
        self.t = t
        self.target_ips = target_ips
        self.n_repeats = n_repeats
        self.pkt_counts = pkt_counts
        self.pkt_offsets = pkt_offsets
        self.pkt_lens = pkt_lens
        self.byte_offsets = byte_offsets
        self.payload = payload

    def __len__(self):
        return len(self.target_ips)

    def view(self, index):
        return _CaptureView(self, index)

    def views(self):
        return [_CaptureView(self, i) for i in range(len(self.target_ips))]

    def payload_bytes(self):
        """Size of the payload blob (stored once; repeats are arithmetic)."""
        return int(self.payload.nbytes)

    @classmethod
    def concat(cls, parts):
        """Merge block-ordered parts into one store (offsets recomputed)."""
        parts = list(parts)
        if not parts:
            return cls.empty(0.0)
        t = parts[0].t
        target_ips = np.concatenate([p.target_ips for p in parts])
        n_repeats = np.concatenate([p.n_repeats for p in parts])
        pkt_counts = np.concatenate([p.pkt_counts for p in parts])
        pkt_lens = np.concatenate([p.pkt_lens for p in parts])
        pkt_offsets = np.zeros(len(target_ips) + 1, dtype=np.int64)
        np.cumsum(pkt_counts, out=pkt_offsets[1:])
        byte_offsets = np.zeros(len(pkt_lens) + 1, dtype=np.int64)
        np.cumsum(pkt_lens, out=byte_offsets[1:])
        payload = np.concatenate(
            [np.asarray(p.payload) for p in parts]
            if parts
            else [np.empty(0, dtype=np.uint8)]
        )
        return cls(t, target_ips, n_repeats, pkt_counts, pkt_offsets, pkt_lens, byte_offsets, payload)

    @classmethod
    def empty(cls, t):
        return cls(
            t,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.uint8),
        )

    def maybe_spill(self, threshold=None):
        """Move the payload into an unlinked memory-mapped spill file when
        it exceeds the threshold; a no-op below it (or if already mapped).

        Returns ``self`` either way, so it chains after :meth:`concat`.
        """
        if isinstance(self.payload, np.memmap) or len(self.payload) == 0:
            return self
        if threshold is None:
            threshold = spill_threshold_bytes()
        if self.payload.nbytes <= threshold:
            return self
        # Reclaim anything a previously-killed run left in the spill dir
        # before adding to it.
        sweep_stale_spills()
        path = write_spill(self.payload.tobytes())
        try:
            mapped = map_spill(path)
        finally:
            # The mapping (and the np.memmap's own fd) keeps the data
            # alive; unlinking now means no temp files survive the run.
            os.unlink(path)
        self.payload = mapped
        return self

    # -- pickling ----------------------------------------------------------
    # Cache pickles and worker→parent transport must be self-contained:
    # a memmap payload is re-inlined as an in-RAM array (the receiving
    # process can re-spill if it wants to).

    def __getstate__(self):
        return {
            "t": self.t,
            "target_ips": self.target_ips,
            "n_repeats": self.n_repeats,
            "pkt_counts": self.pkt_counts,
            "pkt_offsets": self.pkt_offsets,
            "pkt_lens": self.pkt_lens,
            "byte_offsets": self.byte_offsets,
            "payload": np.asarray(self.payload).copy()
            if isinstance(self.payload, np.memmap)
            else self.payload,
        }

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


class PackedCapturesBuilder:
    """Accumulates captures into the packed layout."""

    def __init__(self, t):
        self.t = t
        self._target_ips = []
        self._n_repeats = []
        self._pkt_counts = []
        self._pkt_lens = []
        self._blob = bytearray()

    def add(self, target_ip, packets, n_repeats=1):
        self._target_ips.append(target_ip)
        self._n_repeats.append(n_repeats)
        self._pkt_counts.append(len(packets))
        for packet in packets:
            self._pkt_lens.append(len(packet))
            self._blob += packet

    def __len__(self):
        return len(self._target_ips)

    def finish(self):
        pkt_counts = np.array(self._pkt_counts, dtype=np.int64)
        pkt_offsets = np.zeros(len(pkt_counts) + 1, dtype=np.int64)
        np.cumsum(pkt_counts, out=pkt_offsets[1:])
        pkt_lens = np.array(self._pkt_lens, dtype=np.int64)
        byte_offsets = np.zeros(len(pkt_lens) + 1, dtype=np.int64)
        np.cumsum(pkt_lens, out=byte_offsets[1:])
        return PackedCaptures(
            self.t,
            np.array(self._target_ips, dtype=np.int64),
            np.array(self._n_repeats, dtype=np.int64),
            pkt_counts,
            pkt_offsets,
            pkt_lens,
            byte_offsets,
            np.frombuffer(bytes(self._blob), dtype=np.uint8),
        )


def pack_captures(captures, t=0.0):
    """Pack :class:`ProbeCapture`-shaped captures into one store, in order.

    This is how a capture set that never had a store (a test fixture, an
    outage gap, a loose stream payload) reaches the columnar decoder.
    """
    builder = PackedCapturesBuilder(t)
    for capture in captures:
        builder.add(capture.target_ip, capture.packets, n_repeats=capture.n_repeats)
    return builder.finish()
