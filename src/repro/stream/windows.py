"""Tumbling sim-time windows with watermark-based late-record accounting.

The engine's memory contract is per-window, not per-stream: exact state
(sets, counters, per-window parse stats) lives only while a window is
*open*; once the watermark passes a window's end the window is finalized
into a small summary dict and its exact state is freed.  Cross-window
heavy-hitter questions are answered by the sketches, never by keeping
every window's raw state.

Accounting mirrors the :class:`~repro.analysis.monlist_parse.ParseStats`
discipline: a record is never silently skipped.  Every offered record
lands in exactly one of three ledgers — ``applied``, ``late`` (its window
ended at or before the watermark, or was closed by end of stream), or
``duplicate`` (same identity already applied to the same open window) —
and ``total == applied + late + duplicate`` is an engine invariant the
tests and the conformance harness both assert.  Tumbling windows accept
any future time, so there is no out-of-range ledger.

Records are offered a batch at a time (:meth:`WindowSet.offer_batch`),
each row carrying the watermark as it stood once that row arrived, and
the batch decision equals the record-at-a-time rule exactly: a row is
late when its window's end is at or below *its own* watermark (so a
window the rising watermark would have closed mid-batch refuses the rest
of the batch), and a row is a duplicate when its identity is already in
the window's seen set or appears earlier in the batch (the first copy
wins).  Lateness is defined by the watermark alone, not by whether the
window ever held state, which keeps every ledger decision a function of
the records applied so far — never of which windows happened to open, of
batch boundaries, or of when queries arrived.

A ``WindowSet`` holds no callbacks: :meth:`WindowSet.advance` and
:meth:`WindowSet.close_all` hand the windows they close back to the
caller, which condenses each one and records the summary with
:meth:`WindowSet.retire`, and :meth:`WindowSet.summaries` takes the
finalizer as an argument.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TumblingWindows", "WindowSet"]


class TumblingWindows:
    """Pure window arithmetic: fixed ``width``, aligned to ``origin``."""

    __slots__ = ("width", "origin")

    def __init__(self, width, origin=0.0):
        if not width > 0:
            raise ValueError("window width must be positive")
        self.width = float(width)
        self.origin = float(origin)

    def index_of(self, t):
        """The window index holding event time ``t`` (floor semantics).

        The division is self-correcting: when ``t`` sits within one ulp
        of a boundary the float quotient can round across it, so the
        result is nudged until ``lo <= t < hi`` actually holds — the
        containment property the window tests pin exactly.
        """
        t = float(t)
        origin, width = self.origin, self.width
        index = math.floor((t - origin) / width)
        if t < origin + index * width:
            index -= 1
        elif t >= origin + (index + 1) * width:
            index += 1
        return index

    def index_array(self, t):
        """:meth:`index_of` over a float64 array, nudge included."""
        origin, width = self.origin, self.width
        index = np.floor((t - origin) / width)
        index -= t < origin + index * width
        index += t >= origin + (index + 1) * width
        return index.astype(np.int64)

    def bounds(self, index):
        """``[lo, hi)`` of window ``index``.

        ``hi`` is computed as the *next* window's ``lo`` (not ``lo +
        width``), so adjacent windows tile the line exactly under float
        rounding — no time can fall between or inside two windows.
        """
        return (
            self.origin + index * self.width,
            self.origin + (index + 1) * self.width,
        )

    def contains(self, index, t):
        lo, hi = self.bounds(index)
        return lo <= t < hi


_NO_IDS = np.empty(0, dtype=np.int64)


class _OpenWindow:
    __slots__ = ("state", "seen", "records")

    def __init__(self, state):
        self.state = state
        #: Identities applied so far, sorted.
        self.seen = _NO_IDS
        self.records = 0

    def first_copies(self, rows, ids):
        """The ``rows`` whose identity ``ids`` is neither already seen nor
        on an earlier row; marks those identities seen."""
        seen = self.seen
        fresh = None
        if (ids[1:] > ids[:-1]).all():
            if not len(seen) or ids[0] > seen[-1]:
                # Identities rising past everything seen: the sorted
                # replay's case, where seen stays sorted by appending.
                self.seen = np.concatenate((seen, ids))
                return rows
        else:
            _, first = np.unique(ids, return_index=True)
            fresh = np.zeros(len(ids), dtype=bool)
            fresh[first] = True
        if len(seen):
            unseen = ~np.isin(ids, seen)
            fresh = unseen if fresh is None else fresh & unseen
        if fresh is not None:
            rows, ids = rows[fresh], ids[fresh]
        self.seen = np.union1d(seen, ids)
        return rows


class WindowSet:
    """Windowed state for one record kind, driven by a shared watermark.

    ``state_factory()`` builds a fresh per-window mutable state.
    :meth:`offer_batch` runs the ledger over a batch of rows and returns,
    per open window that gained rows, the rows the caller must apply.
    """

    __slots__ = ("windows", "_factory", "open", "closed", "total", "applied", "late", "duplicate", "late_uids", "_next_close", "_closed_rows", "_open_summaries")

    #: How many late-record uids to retain verbatim for forensics (the
    #: counters are complete either way).
    LATE_UID_KEEP = 32

    def __init__(self, width, origin=0.0, state_factory=dict):
        self.windows = TumblingWindows(width, origin=origin)
        self._factory = state_factory
        self.open = {}
        self.closed = {}
        self.total = 0
        self.applied = 0
        self.late = 0
        self.duplicate = 0
        self.late_uids = []
        # Advance fast path: the earliest open-window end, so a watermark
        # move that closes nothing costs one comparison.  None means
        # "unknown — scan"; scanning an empty set yields inf.
        self._next_close = None
        # Read-side memoization: closed windows are immutable, so their
        # summary rows are built once; an open window's summary is reused
        # until another record lands in it (its ``records`` count moves).
        self._closed_rows = None
        self._open_summaries = {}

    # -- ingest ------------------------------------------------------------

    def offer_batch(self, t, ident, watermark, uid_of):
        """Account a batch of this kind's rows, in arrival order.

        ``t`` holds event times, ``ident`` one int64 identity per row and
        ``watermark`` the watermark once each row had arrived (``-inf``
        before any record); ``uid_of(row)`` renders a row's uid for
        ``late_uids``.  Returns ``[(index, window, rows)]``: each open
        window that gained rows, with the positions (ascending, i.e.
        arrival order) of the rows to apply to its state.
        """
        if not len(t):
            return []
        w = self.windows
        first = w.index_of(t[0])
        if first == w.index_of(t[-1]) and (t[1:] >= t[:-1]).all():
            # Time-sorted rows inside one window: the sorted replay's case.
            keys, inverse = np.array([first]), None
        else:
            keys, inverse = np.unique(w.index_array(t), return_inverse=True)
        hi = w.origin + (keys + 1) * w.width
        late = (hi[0] if inverse is None else hi[inverse]) <= watermark
        closed = self.closed
        if closed:
            shut = np.array([key in closed for key in keys.tolist()])
            if shut.any():
                late |= shut[0] if inverse is None else shut[inverse]
        n_late = int(np.count_nonzero(late))
        if n_late:
            room = self.LATE_UID_KEEP - len(self.late_uids)
            if room > 0:
                self.late_uids.extend(uid_of(row) for row in np.flatnonzero(late)[:room].tolist())
            live = np.flatnonzero(~late)
        else:
            live = np.arange(len(t))

        if inverse is None:
            split = [(first, live)] if len(live) else []
        else:
            group = inverse[live]
            by_window = live[np.argsort(group, kind="stable")]
            ends = np.cumsum(np.bincount(group, minlength=len(keys))).tolist()
            split = [
                (key, by_window[lo:end])
                for key, lo, end in zip(keys.tolist(), [0] + ends[:-1], ends)
                if end > lo
            ]
        groups = []
        n_applied = 0
        for key, rows in split:
            window = self.open.get(key)
            if window is None:
                window = self.open[key] = _OpenWindow(self._factory())
                end = w.origin + (key + 1) * w.width
                if self._next_close is not None and end < self._next_close:
                    self._next_close = end
            rows = window.first_copies(rows, ident[rows])
            if len(rows):
                window.records += len(rows)
                n_applied += len(rows)
                groups.append((key, window, rows))
        n = len(t)
        self.total += n
        self.late += n_late
        self.applied += n_applied
        self.duplicate += n - n_late - n_applied
        return groups

    def advance(self, watermark):
        """Pop every open window whose end the watermark has passed.

        Returns ``[(index, lo, hi, window)]`` ascending by index; the
        caller condenses each and records it with :meth:`retire`.  One
        comparison against the cached earliest open end in the common
        nothing-to-close case.
        """
        nxt = self._next_close
        if nxt is not None and watermark < nxt:
            return []
        nxt = math.inf
        closing = []
        for index in sorted(self.open):
            lo, hi = self.windows.bounds(index)
            if watermark < hi:
                if hi < nxt:
                    nxt = hi
                continue
            closing.append((index, lo, hi, self._pop(index)))
        self._next_close = nxt
        return closing

    def close_all(self):
        """End of stream: pop everything still open (as :meth:`advance`)."""
        closing = [
            (index, *self.windows.bounds(index), self._pop(index)) for index in sorted(self.open)
        ]
        self._next_close = math.inf
        return closing

    def _pop(self, index):
        self._open_summaries.pop(index, None)
        return self.open.pop(index)

    def retire(self, index, summary):
        """Record a popped window's final summary."""
        self.closed[index] = summary
        self._closed_rows = None

    # -- views -------------------------------------------------------------

    def summaries(self, finalize):
        """``[(index, lo, hi, summary, is_open)]`` ascending by window.

        Open windows are summarized through ``finalize(state, records)``,
        which must be pure — the mid-window answer the service serves —
        without mutating or closing them.
        """
        rows = self._closed_rows
        if rows is None:
            rows = []
            for index in sorted(self.closed):
                lo, hi = self.windows.bounds(index)
                rows.append((index, lo, hi, self.closed[index], False))
            self._closed_rows = rows
        out = list(rows)
        memo = self._open_summaries
        for index in sorted(self.open):
            window = self.open[index]
            cached = memo.get(index)
            if cached is not None and cached[0] == window.records:
                out.append(cached[1])
                continue
            lo, hi = self.windows.bounds(index)
            row = (index, lo, hi, finalize(window.state, window.records), True)
            memo[index] = (window.records, row)
            out.append(row)
        return out

    def accounting(self):
        return {
            "total": self.total,
            "applied": self.applied,
            "late": self.late,
            "duplicate": self.duplicate,
            "open_windows": len(self.open),
            "closed_windows": len(self.closed),
            "late_uids": list(self.late_uids),
        }

    @property
    def balanced(self):
        """The no-record-unaccounted invariant."""
        return self.total == self.applied + self.late + self.duplicate
