"""Bounded-memory stream summaries: count-min and space-saving top-K.

Both structures follow the AMON playbook: heavy-hitter state that fits in
a few kilobytes regardless of stream length, with *declared* error bounds
the conformance harness can check against batch ground truth —

* :class:`CountMinSketch` over-estimates only: for any key,
  ``true <= estimate <= true + epsilon * total_weight`` with probability
  ``1 - delta`` (Cormode & Muthukrishnan's bound, ``width = ceil(e/eps)``,
  ``depth = ceil(ln(1/delta))``);
* :class:`SpaceSavingTopK` tracks at most ``capacity`` keys and reports a
  per-key over-estimate ``error``; any key whose true weight exceeds
  ``total_weight / capacity`` is guaranteed present.

Hashing is deterministic (BLAKE2b with a per-row salt) so two engines fed
the same stream agree byte-for-byte — the same determinism contract the
batch pipeline holds at any ``--jobs``.

The count-min cell matrix is a NumPy array, and a window's worth of keys
folds in with one table lookup and one scatter-add.  Integer-weight
sketches stay ``int64`` (exact cell sums), and the first float weight
promotes the matrix to ``float64`` — cell adds are then subject to float
rounding like any float accumulator, which is why only the byte-volume
sketch carries float weights and its conformance check a relative
tolerance.  Space-saving stays a sequential loop: its answer depends on
add order.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct

import numpy as np

__all__ = ["CountMinSketch", "SpaceSavingTopK"]

_KEY_PACK = struct.Struct(">q")


def _hash_row(key, salt):
    """Deterministic 64-bit hash of an int key under one row's salt."""
    digest = hashlib.blake2b(
        _KEY_PACK.pack(int(key)), digest_size=8, salt=salt
    ).digest()
    return int.from_bytes(digest, "big")


class _CellTable:
    """Sorted key -> cell-column table for one sketch geometry.

    A key's row hashes are pure functions of ``(key, width, depth)``, and
    the serving path re-touches the same IPs every window close, so each
    geometry keeps one table shared by every sketch of that shape:
    BLAKE2b runs once per key the process ever sketches, and a lookup is
    one ``searchsorted`` over the sorted keys.  Bounded by the number of
    distinct keys sketched.
    """

    __slots__ = ("width", "salts", "keys", "cols")

    def __init__(self, width, salts):
        self.width = width
        self.salts = salts
        self.keys = np.empty(0, dtype=np.int64)
        self.cols = np.empty((0, len(salts)), dtype=np.int64)

    def columns(self, keys):
        """The ``(len(keys), depth)`` cell columns of int64 ``keys``."""
        table = self.keys
        pos = np.searchsorted(table, keys)
        known = pos < len(table)
        known[known] = table[pos[known]] == keys[known]
        if not known.all():
            fresh = np.unique(keys[~known])
            width, salts = self.width, self.salts
            cols = np.array(
                [[_hash_row(key, salt) % width for salt in salts] for key in fresh.tolist()],
                dtype=np.int64,
            )
            at = np.searchsorted(table, fresh)
            self.keys = np.insert(table, at, fresh)
            self.cols = np.insert(self.cols, at, cols, axis=0)
            pos = np.searchsorted(self.keys, keys)
        return self.cols[pos]


#: One :class:`_CellTable` per ``(width, depth)``, shared process-wide
#: so a new engine reuses the hashes earlier ones computed.  It memoizes
#: pure functions: its contents change speed, never an answer.
_CELL_TABLES = {}


def _cell_table(width, salts):
    table = _CELL_TABLES.get((width, len(salts)))
    if table is None:
        table = _CELL_TABLES[(width, len(salts))] = _CellTable(width, salts)
    return table


class CountMinSketch:
    """A count-min sketch over integer keys with numeric weights.

    ``estimate(key)`` never under-counts; the over-count is bounded by
    ``epsilon * total_weight`` with probability ``1 - delta``.  Weights
    may be ints (exact totals) or floats (byte volumes).
    """

    __slots__ = ("epsilon", "delta", "width", "depth", "rows", "total", "_salts")

    def __init__(self, epsilon=0.005, delta=0.01):
        if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
            raise ValueError("epsilon and delta must be in (0, 1)")
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.width = max(1, math.ceil(math.e / epsilon))
        self.depth = max(1, math.ceil(math.log(1.0 / delta)))
        self.rows = np.zeros((self.depth, self.width), dtype=np.int64)
        self.total = 0
        self._salts = [b"cms-row-%02d" % d for d in range(self.depth)]

    def _columns(self, keys):
        return _cell_table(self.width, self._salts).columns(keys)

    def add(self, key, weight=1):
        if weight < 0:
            raise ValueError("count-min supports non-negative weights only")
        if isinstance(weight, float) and self.rows.dtype != np.float64:
            self.rows = self.rows.astype(np.float64)
        cols = self._columns(np.array([key], dtype=np.int64))[0].tolist()
        for d in range(self.depth):
            self.rows[d, cols[d]] += weight
        self.total += weight

    def add_many(self, keys, weights):
        """Vectorized :meth:`add` over parallel sequences.

        Equivalent to ``for k, w in zip(keys, weights): add(k, w)`` in
        every cell — cell sums are order-free for ints, and the float path
        accumulates via ``np.add.at`` in sequence order — while the total
        adds the batch's NumPy sum.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if not len(keys):
            return
        w = np.asarray(weights)
        if w.min() < 0:
            raise ValueError("count-min supports non-negative weights only")
        if w.dtype.kind == "f" and self.rows.dtype != np.float64:
            self.rows = self.rows.astype(np.float64)
        cols = self._columns(keys)
        for d in range(self.depth):
            np.add.at(self.rows[d], cols[:, d], w)
        total = w.sum()
        self.total += total.item() if w.dtype.kind == "f" else int(total)

    def estimate(self, key):
        return self.estimate_many((key,))[0]

    def estimate_many(self, keys):
        """Vectorized :meth:`estimate`: one gather + row-min for all
        ``keys`` (the top-query render asks for every ranked key)."""
        keys = np.asarray(list(keys), dtype=np.int64)
        if not len(keys):
            return []
        vals = self.rows[np.arange(self.depth), self._columns(keys)]
        return vals.min(axis=1).tolist()

    def error_bound(self):
        """The declared additive over-count ceiling at the current total."""
        return self.epsilon * self.total

    def copy(self):
        out = CountMinSketch(self.epsilon, self.delta)
        out.rows = self.rows.copy()
        out.total = self.total
        return out

    def __eq__(self, other):
        return (
            isinstance(other, CountMinSketch)
            and self.width == other.width
            and self.depth == other.depth
            and self.total == other.total
            and bool(np.array_equal(self.rows, other.rows))
        )

    def as_dict(self):
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "width": self.width,
            "depth": self.depth,
            "total": self.total,
            "error_bound": self.error_bound(),
        }


class SpaceSavingTopK:
    """Metwally et al.'s space-saving heavy hitters over integer keys.

    At most ``capacity`` keys are tracked; each carries ``(count, error)``
    where ``count`` over-estimates the true weight by at most ``error``.
    Any key with true weight above ``total / capacity`` is guaranteed
    present.  Eviction and reporting tie-break deterministically on
    ``(count, -key)`` so equal streams produce equal summaries.
    """

    __slots__ = ("capacity", "counters", "errors", "total", "_heap")

    def __init__(self, capacity=64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.counters = {}
        self.errors = {}
        self.total = 0
        # Lazy min-heap of (count, -key, key): entries go stale when a
        # counter is bumped or evicted and are discarded on pop, so
        # finding the eviction victim is O(log n) amortized instead of a
        # linear scan of every counter per eviction.
        self._heap = []

    def _rebuild_heap(self):
        self._heap = [(c, -k, k) for k, c in self.counters.items()]
        heapq.heapify(self._heap)

    def _weakest(self):
        """The tracked key cheapest to evict (deterministic tie-break:
        min by ``(count, -key)``, exactly the heap order)."""
        heap, counters = self._heap, self.counters
        while heap:
            count, _nk, key = heap[0]
            if counters.get(key) == count:
                return key
            heapq.heappop(heap)
        self._rebuild_heap()
        return self._heap[0][2]

    def add(self, key, weight=1):
        if weight < 0:
            raise ValueError("space-saving supports non-negative weights only")
        key = int(key)
        self.total += weight
        counters = self.counters
        if key in counters:
            count = counters[key] + weight
            counters[key] = count
            heapq.heappush(self._heap, (count, -key, key))
            return
        if len(counters) < self.capacity:
            counters[key] = weight
            self.errors[key] = 0
            heapq.heappush(self._heap, (weight, -key, key))
            return
        victim = self._weakest()
        floor = counters.pop(victim)
        self.errors.pop(victim)
        # The newcomer inherits the evicted counter as its over-estimate.
        counters[key] = floor + weight
        self.errors[key] = floor
        heapq.heappush(self._heap, (floor + weight, -key, key))
        if len(self._heap) > 8 * self.capacity:
            self._rebuild_heap()

    def add_many(self, keys, weights):
        """Sequence-equivalent to ``for k, w in zip(keys, weights):
        add(k, w)`` — same evictions in the same order, counters and
        errors identical — with the loop's lookups hoisted.  This is the
        window-close fold path, which adds a whole window's per-key totals
        at once (``total`` gains their subtotal).  An eviction drops stale
        heap entries off the top, then swaps the fresh minimum for the
        newcomer in one ``heapreplace``."""
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        weights = list(weights)
        if weights and min(weights) < 0:
            raise ValueError("space-saving supports non-negative weights only")
        counters = self.counters
        errors = self.errors
        get = counters.get
        heap = self._heap
        limit = 8 * self.capacity
        room = self.capacity - len(counters)
        push = heapq.heappush
        pop = heapq.heappop
        replace = heapq.heapreplace
        total = 0
        for key, weight in zip(keys, weights):
            total += weight
            count = get(key)
            if count is not None:
                count += weight
                counters[key] = count
                push(heap, (count, -key, key))
                if len(heap) > limit:
                    self._rebuild_heap()
                    heap = self._heap
                continue
            if room > 0:
                room -= 1
                counters[key] = weight
                errors[key] = 0
                push(heap, (weight, -key, key))
                continue
            # Every counter has a fresh entry in the heap, so this stops
            # at the minimum by (count, -key).
            floor, _nk, victim = heap[0]
            while get(victim) != floor:
                pop(heap)
                floor, _nk, victim = heap[0]
            del counters[victim]
            del errors[victim]
            # The newcomer inherits the evicted counter as its over-estimate.
            counters[key] = count = floor + weight
            errors[key] = floor
            replace(heap, (count, -key, key))
        self.total += total

    def top(self, n=None):
        """``[(key, count, error)]`` descending by count (ties: lower key
        first, so output is deterministic)."""
        ranked = sorted(self.counters, key=lambda k: (-self.counters[k], k))
        if n is not None:
            ranked = ranked[:n]
        return [(k, self.counters[k], self.errors[k]) for k in ranked]

    def guarantee_threshold(self):
        """True weight above this is guaranteed to be tracked."""
        return self.total / self.capacity

    def copy(self):
        out = SpaceSavingTopK(self.capacity)
        out.counters = dict(self.counters)
        out.errors = dict(self.errors)
        out.total = self.total
        out._heap = list(self._heap)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SpaceSavingTopK)
            and self.capacity == other.capacity
            and self.total == other.total
            and self.counters == other.counters
            and self.errors == other.errors
        )

    def as_dict(self, n=None):
        return {
            "capacity": self.capacity,
            "total": self.total,
            "guarantee_threshold": self.guarantee_threshold(),
            "entries": [
                {"key": k, "count": c, "error": e} for k, c, e in self.top(n)
            ],
        }
