"""Structure-of-arrays LRU row cache with whole-batch operations.

Drop-in replacement for the :class:`~repro.cache.lru.LRUCache` eviction
machinery, bit-identical in every observable — hit/miss/eviction counters,
modelled CPU seconds, eviction order, ``used_bytes`` — but organised as
parallel arrays so a whole batch of row keys can be probed or filled with a
fixed number of NumPy operations instead of one dict transaction per row:

* keys of the hot shape ``(table_name, stored_index)`` live entirely in
  per-slot arrays (table id, stored index) behind a per-table int64 direct
  index (stored index -> slot).  Index entries are never cleared: a lookup
  accepts an entry only when the slot it names still holds that very key, so
  freeing a slot costs no per-table work.  Other key shapes use a dict.
* row payloads live in contiguous per-row-length storage pools, so a batched
  probe gathers all hit rows as one ``(hits, row_bytes)`` uint8 matrix.
  Free slots and free pool rows are int64 array stacks.
* recency is a monotonically increasing stamp per slot plus a stamp-ordered
  log (``log[stamp] = slot``).  A log entry is live while its slot still
  carries that stamp, so the live entries read from the log head onwards are
  exactly the LRU order.  Touching or inserting appends; the head only moves
  forward; when the log fills up the live entries are renumbered to the front.

CPU-time accounting replicates the scalar cache's float accumulation exactly:
``np.add.accumulate`` performs the same left-to-right chain of additions a
per-row ``+=`` loop would, so ``stats.cpu_seconds`` stays bitwise equal.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cache.base import CacheKey, RowCache

#: A hot key ``(table, stored)`` is coded ``table << _STORED_BITS | stored``.
_STORED_BITS = 40
_STORED_LIMIT = 1 << _STORED_BITS
_INTEGER_TYPES = (int, np.integer)
#: ``_slot_code`` of a free slot.
_FREE = -1
#: ``_slot_code`` of a slot holding any other key shape.
_OTHER = -2


def as_row_indices(stored_indices: np.ndarray) -> np.ndarray:
    """``stored_indices`` as a 1-D int64 array; raises ``ValueError`` for any
    other shape or a non-integer dtype."""
    stored = np.asarray(stored_indices)
    if stored.ndim != 1:
        raise ValueError(f"stored indices must be 1-D, got shape {stored.shape}")
    if stored.size and stored.dtype.kind not in "iu":
        raise ValueError(f"stored indices must be integers, got dtype {stored.dtype}")
    return stored.astype(np.int64, copy=False)


def as_fill_batch(
    stored_indices: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a fill batch's shape before anything is charged or stored.

    Returns ``(stored, values)``: 1-D int64 stored indices and a
    ``(len(stored), row_len)`` uint8 matrix.  Raises ``ValueError`` otherwise.
    """
    stored = as_row_indices(stored_indices)
    if not isinstance(values, np.ndarray) or values.dtype != np.uint8 or values.ndim != 2:
        raise ValueError("values must be a 2-D uint8 matrix, one row per stored index")
    if values.shape[0] != stored.size:
        raise ValueError(
            f"values has {values.shape[0]} rows for {stored.size} stored indices"
        )
    return stored, values


class _IntStack:
    """Growable int64 stack (the free lists)."""

    __slots__ = ("items", "size")

    def __init__(self) -> None:
        self.items = np.zeros(16, dtype=np.int64)
        self.size = 0

    def _reserve(self, size: int) -> None:
        if size > self.items.size:
            grown = np.zeros(max(size, 2 * self.items.size), dtype=np.int64)
            grown[: self.size] = self.items[: self.size]
            self.items = grown

    def push(self, values: np.ndarray) -> None:
        end = self.size + int(values.size)
        self._reserve(end)
        self.items[self.size : end] = values
        self.size = end

    def pop(self, count: int) -> np.ndarray:
        """Up to ``count`` items from the top."""
        start = max(self.size - count, 0)
        taken = self.items[start : self.size].copy()
        self.size = start
        return taken

    def push_one(self, value: int) -> None:
        self._reserve(self.size + 1)
        self.items[self.size] = value
        self.size += 1

    def pop_one(self) -> int:
        self.size -= 1
        return int(self.items[self.size])


class _RowPool:
    """Contiguous storage for fixed-length rows with a free list."""

    __slots__ = ("data", "count", "free")

    def __init__(self, row_len: int) -> None:
        self.data = np.empty((16, row_len), dtype=np.uint8)
        self.count = 0
        self.free = _IntStack()

    def _fresh(self, count: int) -> int:
        """Claim ``count`` never-used rows; returns the first."""
        first = self.count
        self.count += count
        if self.count > self.data.shape[0]:
            grown = np.empty(
                (max(self.count, 2 * self.data.shape[0]), self.data.shape[1]),
                dtype=np.uint8,
            )
            grown[:first] = self.data[:first]
            self.data = grown
        return first

    def alloc(self, count: int) -> np.ndarray:
        reused = self.free.pop(count)
        fresh = count - reused.size
        if not fresh:
            return reused
        first = self._fresh(fresh)
        return np.concatenate((reused, np.arange(first, first + fresh, dtype=np.int64)))

    def alloc_one(self) -> int:
        if self.free.size:
            return self.free.pop_one()
        return self._fresh(1)


class SoALRUCache(RowCache):
    """Byte-budgeted LRU cache over structure-of-arrays storage.

    Constructor parameters and scalar ``get``/``put`` semantics mirror
    :class:`~repro.cache.lru.LRUCache` exactly; the batch methods
    (:meth:`probe_batch`, :meth:`fill_batch`, :meth:`contains_batch`) are the
    array-native equivalents of calling the scalar operations once per row in
    input order.
    """

    def __init__(
        self,
        capacity_bytes: int,
        per_item_overhead_bytes: int = 32,
        lookup_cpu_seconds: float = 2.0e-7,
        insert_cpu_seconds: float = 4.0e-7,
    ) -> None:
        super().__init__(capacity_bytes)
        if per_item_overhead_bytes < 0:
            raise ValueError(
                f"per_item_overhead_bytes must be non-negative: {per_item_overhead_bytes}"
            )
        self.per_item_overhead_bytes = per_item_overhead_bytes
        self.lookup_cpu_seconds = lookup_cpu_seconds
        self.insert_cpu_seconds = insert_cpu_seconds
        self.clear()

    def clear(self) -> None:
        # Per-slot arrays; a free slot has stamp -1 and code _FREE.
        self._slot_len = np.zeros(0, dtype=np.int64)
        self._slot_row = np.zeros(0, dtype=np.int64)
        self._slot_stamp = np.zeros(0, dtype=np.int64)
        self._slot_code = np.zeros(0, dtype=np.int64)
        self._free_slots = _IntStack()
        self._grow_slots(16)
        self._pools: Dict[int, _RowPool] = {}
        # Hot keys: table name <-> id, and per table id the direct index.
        self._table_ids: Dict[str, int] = {}
        self._table_names: List[str] = []
        self._table_index: List[np.ndarray] = []
        # Every other key shape.
        self._slot_of: Dict[CacheKey, int] = {}
        self._other_keys: Dict[int, CacheKey] = {}
        # Stamp-ordered log: _log[stamp] is the slot stamped ``stamp``.
        self._log = np.zeros(64, dtype=np.int64)
        self._head = 0
        self._stamp = 0
        self._live = 0
        self._used_bytes = 0

    # ------------------------------------------------------------- internals
    @staticmethod
    def _row_key_parts(key: CacheKey) -> Optional[Tuple[str, int]]:
        if isinstance(key, tuple) and len(key) == 2:
            table_name, stored = key
            if (
                isinstance(table_name, str)
                and isinstance(stored, _INTEGER_TYPES)
                and 0 <= stored < _STORED_LIMIT
            ):
                return table_name, int(stored)
        return None

    def _table_id(self, table_name: str) -> int:
        table = self._table_ids.get(table_name)
        if table is None:
            table = len(self._table_names)
            self._table_ids[table_name] = table
            self._table_names.append(table_name)
            self._table_index.append(np.full(64, -1, dtype=np.int64))
        return table

    def _index_for(self, table: int, min_size: int) -> np.ndarray:
        index = self._table_index[table]
        if index.size < min_size:
            grown = np.full(max(min_size, index.size * 2), -1, dtype=np.int64)
            grown[: index.size] = index
            self._table_index[table] = index = grown
        return index

    def _lookup(self, table: int, stored: np.ndarray) -> np.ndarray:
        """Slot of each ``(table, stored)`` key, ``-1`` where absent."""
        # Clipping maps an out-of-range index onto an entry of another key,
        # which the code check rejects like any stale entry.  A stored index
        # outside [0, 2**40) is never a hot key (its code could alias another).
        slots = self._table_index[table].take(stored, mode="clip")
        stale = self._slot_code[slots] != stored + (table << _STORED_BITS)
        slots[stale | ((stored >> _STORED_BITS) != 0)] = -1
        return slots

    def _find(self, key: CacheKey) -> Optional[int]:
        """Slot of ``key``, or ``None`` when it is not cached."""
        parts = self._row_key_parts(key)
        if parts is None:
            return self._slot_of.get(key)
        table = self._table_ids.get(parts[0])
        if table is None:
            return None
        stored = parts[1]
        index = self._table_index[table]
        if stored >= index.size:
            return None
        slot: int = index.item(stored)
        if slot < 0 or self._slot_code.item(slot) != stored + (table << _STORED_BITS):
            return None
        return slot

    def _grow_slots(self, needed: int) -> None:
        old = self._slot_stamp.size
        new = max(old * 2, old + needed)
        for name, fill in (
            ("_slot_len", 0),
            ("_slot_row", 0),
            ("_slot_stamp", -1),
            ("_slot_code", _FREE),
        ):
            grown = np.full(new, fill, dtype=np.int64)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        self._free_slots.push(np.arange(new - 1, old - 1, -1, dtype=np.int64))

    def _pool_for(self, row_len: int) -> _RowPool:
        pool = self._pools.get(row_len)
        if pool is None:
            pool = _RowPool(row_len)
            self._pools[row_len] = pool
        return pool

    def _take_stamps(self, count: int) -> int:
        """Reserve ``count`` consecutive stamps; returns the first.

        When the log is full its live entries are renumbered ``0..live-1``
        in order (only the relative order of stamps is observable), and the
        log doubles if that leaves less than half of it free.
        """
        if self._stamp + count > self._log.size:
            positions = np.arange(self._head, self._stamp, dtype=np.int64)
            slots = self._log[self._head : self._stamp]
            live = slots[self._slot_stamp[slots] == positions]
            if 2 * (live.size + count) > self._log.size:
                self._log = np.zeros(2 * max(self._log.size, live.size + count), np.int64)
            self._log[: live.size] = live
            self._slot_stamp[live] = np.arange(live.size, dtype=np.int64)
            self._head = 0
            self._stamp = int(live.size)
        first = self._stamp
        self._stamp += count
        return first

    def _entry_size(self, value_len: int) -> int:
        return value_len + self.per_item_overhead_bytes

    def _charge_sequential(self, count: int, cost: float, total: float) -> float:
        """``count`` repetitions of ``total += cost`` as one accumulate."""
        increments = np.empty(count + 1, dtype=np.float64)
        increments[0] = total
        increments[1:] = cost
        return float(np.add.accumulate(increments)[-1])

    # ---------------------------------------------------- one entry (scalar)
    def _insert_entry(self, key: CacheKey, value: np.ndarray) -> None:
        """Store one row; ``value`` is a 1-D uint8 view of the payload."""
        if not self._free_slots.size:
            self._grow_slots(1)
        slot = self._free_slots.pop_one()
        row_len = int(value.size)
        pool = self._pool_for(row_len)
        row = pool.alloc_one()
        pool.data[row] = value
        self._slot_len[slot] = row_len
        self._slot_row[slot] = row
        parts = self._row_key_parts(key)
        if parts is None:
            self._slot_code[slot] = _OTHER
            self._slot_of[key] = slot
            self._other_keys[slot] = key
        else:
            table = self._table_id(parts[0])
            self._index_for(table, parts[1] + 1)[parts[1]] = slot
            self._slot_code[slot] = parts[1] + (table << _STORED_BITS)
        stamp = self._take_stamps(1)
        self._log[stamp] = slot
        self._slot_stamp[slot] = stamp
        self._used_bytes += self._entry_size(row_len)
        self._live += 1

    def _remove_slot(self, slot: int) -> None:
        row_len: int = self._slot_len.item(slot)
        self._pools[row_len].free.push_one(self._slot_row.item(slot))
        self._used_bytes -= self._entry_size(row_len)
        if self._slot_code.item(slot) == _OTHER:
            del self._slot_of[self._other_keys.pop(slot)]
        self._slot_code[slot] = _FREE
        self._slot_stamp[slot] = -1
        self._free_slots.push_one(slot)
        self._live -= 1

    def _evict_lru(self) -> None:
        log, stamps = self._log, self._slot_stamp
        position = self._head
        while stamps.item(log.item(position)) != position:
            position += 1  # touched or freed since this entry was logged
        self._head = position + 1
        self._remove_slot(log.item(position))

    def _evict_until_fits(self, needed: int) -> None:
        while self._live and self._used_bytes + needed > self.capacity_bytes:
            self._evict_lru()
            self.stats.evictions += 1

    # -------------------------------------------------- many entries (batch)
    def _insert_rows(self, table: int, stored: np.ndarray, values: np.ndarray) -> None:
        """Store fresh, distinct ``(table, stored)`` rows as most recent, in order."""
        count = int(stored.size)
        if self._free_slots.size < count:
            self._grow_slots(count - self._free_slots.size)
        slots = self._free_slots.pop(count)
        row_len = int(values.shape[1])
        pool = self._pool_for(row_len)
        rows = pool.alloc(count)
        pool.data[rows] = values
        self._slot_len[slots] = row_len
        self._slot_row[slots] = rows
        self._slot_code[slots] = stored + (table << _STORED_BITS)
        self._table_index[table][stored] = slots
        first = self._take_stamps(count)
        self._log[first : first + count] = slots
        self._slot_stamp[slots] = np.arange(first, first + count, dtype=np.int64)
        self._used_bytes += count * self._entry_size(row_len)
        self._live += count

    def _release(self, slots: np.ndarray) -> None:
        """Free ``slots`` (evicted or replaced entries)."""
        # Return pool rows grouped by row length (one push per length).
        lengths = self._slot_len[slots]
        order = lengths.argsort()
        lengths = lengths[order]
        rows = self._slot_row[slots[order]]
        self._used_bytes -= int(lengths.sum()) + slots.size * self.per_item_overhead_bytes
        cuts = (np.nonzero(lengths[1:] != lengths[:-1])[0] + 1).tolist()
        for start, stop in zip([0] + cuts, cuts + [slots.size]):
            self._pools[int(lengths[start])].free.push(rows[start:stop])
        if self._other_keys:
            for slot in slots[self._slot_code[slots] == _OTHER].tolist():
                del self._slot_of[self._other_keys.pop(slot)]
        self._slot_code[slots] = _FREE
        self._slot_stamp[slots] = -1
        self._free_slots.push(slots)
        self._live -= int(slots.size)

    def _lru_victims(self, excess: int) -> np.ndarray:
        """The oldest live slots whose entry bytes first reach ``excess``
        (every live slot when they never do), oldest first.  Moves the log
        head past them; the caller releases them."""
        head, end = self._head, self._stamp
        # Expected entries to scan at the mean entry size, doubled per retry
        # when stale log entries or larger-than-mean residents fall short.
        span = -(-excess * self._live // max(self._used_bytes, 1)) + 16
        while True:
            stop = min(head + span, end)
            slots = self._log[head:stop]
            live = (self._slot_stamp[slots] == np.arange(head, stop, dtype=np.int64)).nonzero()[0]
            freed = (self._slot_len[slots[live]] + self.per_item_overhead_bytes).cumsum()
            if stop == end or (freed.size and int(freed[-1]) >= excess):
                break
            span *= 2
        count = min(int(freed.searchsorted(excess)) + 1, int(freed.size))
        if count:
            self._head = head + int(live[count - 1]) + 1
        return slots[live[:count]]

    def _fill_fresh(
        self, table: int, stored: np.ndarray, values: np.ndarray, size: int
    ) -> None:
        """Closed-form :meth:`put` of fresh, distinct keys of entry ``size``.

        Sequential puts evict residents in LRU order until ``excess = used +
        n*size - capacity`` bytes are freed: a cumsum over the oldest live
        entries gives the exact count, whatever their sizes.  If even all
        residents are too few, the batch's own first rows are the casualties
        and the last ``capacity // size`` rows remain.
        """
        count = int(stored.size)
        excess = self._used_bytes + count * size - self.capacity_bytes
        evicted = 0
        if excess > 0 and self._live:
            victims = self._lru_victims(excess)
            self._release(victims)
            evicted = int(victims.size)
        keep = count
        if self._used_bytes + count * size > self.capacity_bytes:
            keep = self.capacity_bytes // size
        self._insert_rows(table, stored[count - keep :], values[count - keep :])
        self.stats.inserts += count
        self.stats.evictions += evicted + count - keep

    # ------------------------------------------------------------ scalar API
    def get(self, key: CacheKey) -> Optional[bytes]:
        self.stats.cpu_seconds += self.lookup_cpu_seconds
        slot = self._find(key)
        if slot is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        stamp = self._take_stamps(1)
        self._log[stamp] = slot
        self._slot_stamp[slot] = stamp
        row_len: int = self._slot_len.item(slot)
        return self._pools[row_len].data[self._slot_row.item(slot)].tobytes()

    def put(self, key: CacheKey, value: bytes) -> bool:
        self.stats.cpu_seconds += self.insert_cpu_seconds
        size = self._entry_size(len(value))
        if size > self.capacity_bytes:
            self.stats.rejected_inserts += 1
            return False
        slot = self._find(key)
        if slot is not None:
            self._remove_slot(slot)
        self._evict_until_fits(size)
        self._insert_entry(key, np.frombuffer(value, dtype=np.uint8))
        self.stats.inserts += 1
        return True

    def contains(self, key: CacheKey) -> bool:
        return self._find(key) is not None

    def invalidate(self, key: CacheKey) -> bool:
        slot = self._find(key)
        if slot is None:
            return False
        self._remove_slot(slot)
        return True

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def item_count(self) -> int:
        return self._live

    def keys(self) -> Iterator[CacheKey]:
        """Iterate keys from least to most recently used (for inspection)."""
        live = np.flatnonzero(self._slot_stamp >= 0)
        order = live[np.argsort(self._slot_stamp[live])]
        return iter(
            [
                self._other_keys[slot]
                if code == _OTHER
                else (self._table_names[code >> _STORED_BITS], code & (_STORED_LIMIT - 1))
                for slot, code in zip(order.tolist(), self._slot_code[order].tolist())
            ]
        )

    # ------------------------------------------------------------- batch API
    def probe_batch(
        self, table_name: str, stored_indices: np.ndarray, row_len: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe ``(table_name, stored)`` for a whole batch of stored rows.

        Equivalent to calling :meth:`get` once per row in input order — same
        hit/miss/CPU accounting, same final LRU order (for duplicate rows the
        last occurrence wins, as it would scalar-wise).  Returns a boolean hit
        mask aligned with the input and the hit rows as one
        ``(num_hits, row_len)`` uint8 matrix in input order.  A cached row
        whose length is not ``row_len`` raises ``ValueError`` before any
        state changes.
        """
        stored = as_row_indices(stored_indices)
        count = int(stored.size)
        table = self._table_ids.get(table_name)
        if table is None or count == 0:
            hit_slots = np.zeros(0, dtype=np.int64)
            hit_mask = np.zeros(count, dtype=bool)
        else:
            slots = self._lookup(table, stored)
            hit_mask = slots >= 0
            hit_slots = slots[hit_mask]
            if not (self._slot_len[hit_slots] == row_len).all():
                raise ValueError(
                    f"table {table_name!r}: cached row length differs from "
                    f"probe row_len {row_len}"
                )
        num_hits = int(hit_slots.size)
        if count:
            self.stats.cpu_seconds = self._charge_sequential(
                count, self.lookup_cpu_seconds, self.stats.cpu_seconds
            )
        self.stats.hits += num_hits
        self.stats.misses += count - num_hits
        if num_hits == 0:
            return hit_mask, np.empty((0, row_len), dtype=np.uint8)
        first = self._take_stamps(num_hits)
        self._log[first : first + num_hits] = hit_slots
        # Fancy-index assignment applies in order, so a duplicate row keeps
        # its last (most recent) stamp — matching sequential move-to-end; its
        # earlier log entries are stale.
        self._slot_stamp[hit_slots] = np.arange(first, first + num_hits, dtype=np.int64)
        values = self._pools[row_len].data[self._slot_row[hit_slots]]
        return hit_mask, values

    def fill_batch(
        self, table_name: str, stored_indices: np.ndarray, values: np.ndarray
    ) -> None:
        """Insert a batch of rows; equivalent to per-row :meth:`put` calls.

        ``values`` is a ``(len(stored_indices), row_len)`` uint8 matrix; a
        batch of any other shape, or a stored index outside ``[0, 2**40)``,
        raises ``ValueError`` before any state changes.

        The batch is cut at every row whose key is already present when it
        is put (resident before the batch, or repeated within it): such a row
        first drops its earlier entry, as :meth:`put` does.  Each segment of
        fresh, distinct keys is then filled in closed form
        (:meth:`_fill_fresh`) with a fixed number of array operations:
        evictions from one cumsum over the oldest live entries, survivors
        stamped in row order, counters and ``used_bytes`` by arithmetic.
        Serving batches are misses, so they are one segment.
        """
        stored, values = as_fill_batch(stored_indices, values)
        count = int(stored.size)
        if count == 0:
            return
        order = stored.argsort(kind="stable")
        ranked = stored[order]
        if ranked[0] < 0 or ranked[-1] >= _STORED_LIMIT:
            raise ValueError(f"stored indices must be in [0, 2**{_STORED_BITS})")
        self.stats.cpu_seconds = self._charge_sequential(
            count, self.insert_cpu_seconds, self.stats.cpu_seconds
        )
        size = self._entry_size(int(values.shape[1]))
        if size > self.capacity_bytes:
            self.stats.rejected_inserts += count
            return
        table = self._table_id(table_name)
        self._index_for(table, int(ranked[-1]) + 1)
        # Rows whose key may be present when they are put: resident before
        # the batch, or a repeat of an earlier row (the stable sort puts the
        # first occurrence first).  Each starts a segment.
        present = self._lookup(table, stored) >= 0
        present[order[1:][ranked[1:] == ranked[:-1]]] = True
        starts = present.nonzero()[0].tolist()
        if not starts or starts[0]:
            starts.insert(0, 0)
        for start, stop in zip(starts, starts[1:] + [count]):
            if present[start]:
                slot = self._lookup(table, stored[start : start + 1])
                if slot[0] >= 0:
                    self._release(slot)
            self._fill_fresh(table, stored[start:stop], values[start:stop], size)

    def contains_batch(self, table_name: str, stored_indices: np.ndarray) -> np.ndarray:
        """Vectorised membership test; no stats, no LRU effect."""
        stored = as_row_indices(stored_indices)
        table = self._table_ids.get(table_name)
        if table is None:
            return np.zeros(stored.size, dtype=bool)
        return self._lookup(table, stored) >= 0
