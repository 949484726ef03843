"""Equivalence tests for the structure-of-arrays LRU cache.

``SoALRUCache`` is the array-native engine behind the batched serve core;
its contract is *bit-identical observables* to ``LRUCache`` — same hits,
misses, evictions, eviction order, ``used_bytes`` and modelled CPU
seconds — whether it is driven through the scalar API or the batch API.
These tests drive both caches through mirrored operation sequences and
compare every observable.
"""

import cProfile
import pstats

import numpy as np
import pytest

from repro.cache import LRUCache, UnifiedCacheConfig, UnifiedRowCache
from repro.cache.soa import SoALRUCache
from repro.sim.rng import make_rng
from repro.sim.units import KIB


def _pair(capacity=1024, overhead=0):
    return (
        LRUCache(capacity, per_item_overhead_bytes=overhead),
        SoALRUCache(capacity, per_item_overhead_bytes=overhead),
    )


def _row(table, stored, row_len=8):
    rng = make_rng(0, "soa-test-row", table, stored)
    return rng.integers(0, 256, size=row_len, dtype=np.uint8).tobytes()


def _assert_same_observables(reference, soa):
    assert soa.stats.hits == reference.stats.hits
    assert soa.stats.misses == reference.stats.misses
    assert soa.stats.inserts == reference.stats.inserts
    assert soa.stats.evictions == reference.stats.evictions
    assert soa.stats.rejected_inserts == reference.stats.rejected_inserts
    assert soa.stats.cpu_seconds == reference.stats.cpu_seconds
    assert soa.used_bytes == reference.used_bytes
    assert soa.item_count == reference.item_count
    assert list(soa.keys()) == list(reference.keys())


def _state(cache):
    stats = cache.stats
    return (
        stats.hits,
        stats.misses,
        stats.inserts,
        stats.evictions,
        stats.rejected_inserts,
        stats.cpu_seconds,
        cache.used_bytes,
        cache.item_count,
        list(cache.keys()),
    )


class TestScalarEquivalence:
    def test_random_op_sequence_matches_lru(self):
        reference, soa = _pair(capacity=40 * 16, overhead=8)
        rng = make_rng(0, "soa-test", "scalar-ops")
        for _ in range(2000):
            stored = int(rng.integers(0, 64))
            key = ("t", stored)
            op = rng.random()
            if op < 0.5:
                assert soa.get(key) == reference.get(key)
            elif op < 0.9:
                value = _row("t", stored)
                assert soa.put(key, value) == reference.put(key, value)
            else:
                assert soa.contains(key) == reference.contains(key)
            _assert_same_observables(reference, soa)

    def test_non_row_keys_supported(self):
        reference, soa = _pair()
        for cache in (reference, soa):
            cache.put("plain-string", b"v1")
            cache.put(("tuple", "of", "strings"), b"v2")
        assert soa.get("plain-string") == reference.get("plain-string")
        assert soa.get(("tuple", "of", "strings")) == reference.get(
            ("tuple", "of", "strings")
        )
        _assert_same_observables(reference, soa)

    def test_oversized_value_rejected(self):
        reference, soa = _pair(capacity=16)
        for cache in (reference, soa):
            assert not cache.put(("t", 0), bytes(64))
        _assert_same_observables(reference, soa)

    def test_invalidate_and_clear(self):
        reference, soa = _pair()
        for cache in (reference, soa):
            cache.put(("t", 1), b"a")
            cache.put(("t", 2), b"b")
            assert cache.invalidate(("t", 1))
            assert not cache.invalidate(("t", 1))
        _assert_same_observables(reference, soa)
        for cache in (reference, soa):
            cache.clear()
        _assert_same_observables(reference, soa)
        # The index survives a clear: new inserts must still be found.
        for cache in (reference, soa):
            cache.put(("t", 2), b"c")
        assert soa.get(("t", 2)) == reference.get(("t", 2))
        _assert_same_observables(reference, soa)

    def test_eviction_order_is_lru(self):
        reference, soa = _pair(capacity=3 * 4, overhead=0)
        for cache in (reference, soa):
            cache.put(("t", 0), b"aaaa")
            cache.put(("t", 1), b"bbbb")
            cache.put(("t", 2), b"cccc")
            cache.get(("t", 0))  # touch: 0 becomes most recent
            cache.put(("t", 3), b"dddd")  # evicts 1, the least recent
        assert soa.contains(("t", 0)) and reference.contains(("t", 0))
        assert not soa.contains(("t", 1)) and not reference.contains(("t", 1))
        _assert_same_observables(reference, soa)


class TestBatchEquivalence:
    def test_probe_batch_equals_scalar_gets(self):
        reference, soa = _pair(capacity=4096)
        rng = make_rng(0, "soa-test", "probe-batch")
        row_len = 8
        for stored in range(24):
            value = _row("t", stored, row_len)
            reference.put(("t", stored), value)
            soa.put(("t", stored), value)
        for _ in range(50):
            stored = rng.integers(-4, 40, size=16)  # includes misses + negatives
            expected = [reference.get(("t", int(s))) for s in stored]
            hit_mask, values = soa.probe_batch("t", stored, row_len)
            assert list(hit_mask) == [row is not None for row in expected]
            hits = [row for row in expected if row is not None]
            assert [bytes(v) for v in values] == hits
            _assert_same_observables(reference, soa)

    def test_fill_batch_equals_scalar_puts(self):
        reference, soa = _pair(capacity=24 * 16, overhead=8)
        rng = make_rng(0, "soa-test", "fill-batch")
        row_len = 8
        for _ in range(40):
            stored = rng.integers(0, 64, size=8)
            matrix = np.stack(
                [
                    np.frombuffer(_row("t", int(s), row_len), dtype=np.uint8)
                    for s in stored
                ]
            )
            for s, row in zip(stored, matrix):
                reference.put(("t", int(s)), row.tobytes())
            soa.fill_batch("t", stored, matrix)
            _assert_same_observables(reference, soa)

    def test_contains_batch_has_no_side_effects(self):
        _, soa = _pair()
        soa.put(("t", 3), b"x")
        before = (soa.stats.hits, soa.stats.misses, soa.stats.cpu_seconds)
        mask = soa.contains_batch("t", np.array([-1, 0, 3, 99]))
        assert list(mask) == [False, False, True, False]
        assert (soa.stats.hits, soa.stats.misses, soa.stats.cpu_seconds) == before

    def test_probe_batch_duplicate_rows_keep_last_stamp(self):
        reference, soa = _pair(capacity=2 * 4)
        for cache in (reference, soa):
            cache.put(("t", 0), b"aaaa")
            cache.put(("t", 1), b"bbbb")
        # Scalar walk: get(0), get(1), get(0) leaves 1 least-recent.
        for s in (0, 1, 0):
            reference.get(("t", s))
        soa.probe_batch("t", np.array([0, 1, 0]), 4)
        for cache in (reference, soa):
            cache.put(("t", 2), b"cccc")  # evicts 1 in both
        assert not soa.contains(("t", 1)) and not reference.contains(("t", 1))
        _assert_same_observables(reference, soa)

    def test_probe_batch_row_length_mismatch_raises(self):
        _, soa = _pair()
        soa.put(("t", 0), b"aaaa")
        soa.put(("t", 1), b"bbbb")
        before = _state(soa)
        with pytest.raises(ValueError):
            soa.probe_batch("t", np.array([1, 0, 99]), 8)
        assert _state(soa) == before  # nothing charged, counted or touched

    def test_fill_batch_oversized_rows_all_rejected(self):
        reference, soa = _pair(capacity=4)
        stored = np.array([0, 1, 2])
        matrix = np.zeros((3, 64), dtype=np.uint8)
        for s, row in zip(stored, matrix):
            reference.put(("t", int(s)), row.tobytes())
        soa.fill_batch("t", stored, matrix)
        _assert_same_observables(reference, soa)

    def test_empty_batches_are_noops(self):
        _, soa = _pair()
        hit_mask, values = soa.probe_batch("t", np.empty(0, dtype=np.int64), 4)
        assert hit_mask.size == 0 and values.shape == (0, 4)
        soa.fill_batch("t", np.empty(0, dtype=np.int64), np.empty((0, 4), np.uint8))
        assert soa.stats.inserts == 0 and soa.stats.cpu_seconds == 0.0


class TestBatchValidation:
    """A malformed batch raises before it charges, counts or stores anything."""

    def _filled(self):
        soa = SoALRUCache(8 * 16, per_item_overhead_bytes=4)
        soa.fill_batch("t", np.arange(6), np.ones((6, 8), dtype=np.uint8))
        soa.get(("t", 2))
        return soa

    @pytest.mark.parametrize(
        "stored, values",
        [
            (np.arange(10, 14), np.zeros((2, 8), dtype=np.uint8)),  # short matrix
            (np.arange(10, 12), np.zeros((4, 8), dtype=np.uint8)),  # long matrix
            (np.arange(10, 12), np.zeros((2, 8), dtype=np.float32)),  # wrong dtype
            (np.arange(10, 12), np.zeros(16, dtype=np.uint8)),  # 1-D values
            (np.arange(10, 14).reshape(2, 2), np.zeros((4, 8), dtype=np.uint8)),
            (np.array([10.0, 11.0]), np.zeros((2, 8), dtype=np.uint8)),  # float keys
            (np.array([10, -1]), np.zeros((2, 8), dtype=np.uint8)),  # negative key
        ],
    )
    def test_fill_batch_rejects_malformed_batch_without_side_effects(self, stored, values):
        soa = self._filled()
        before = _state(soa)
        with pytest.raises(ValueError):
            soa.fill_batch("t", stored, values)
        assert _state(soa) == before

    def test_unified_fill_batch_fallback_rejects_short_matrix(self):
        unified = UnifiedRowCache(UnifiedCacheConfig(capacity_bytes=4 * KIB, num_partitions=2))
        with pytest.raises(ValueError):
            unified.fill_batch("t", np.arange(4), np.zeros((2, 8), dtype=np.uint8))
        assert unified.item_count == 0
        assert unified.stats.cpu_seconds == 0.0


class TestFillBatchAgainstOracle:
    """Random operation sequences drive ``SoALRUCache`` and ``LRUCache`` alike.

    Two tables of different row lengths share the cache (as two tables of
    different dimension share a memory-optimised partition), so evictions
    free entries of mixed sizes.  Batches run up to three times the
    capacity (the batch's own first rows become casualties), draw keys from
    a small domain (duplicates within a batch, keys already resident), and
    interleave with probes, scalar gets/puts, invalidations and oversize
    rejects.
    """

    ROW_LENS = {"a": 8, "b": 20, "big": 600}

    def _matrix(self, table, stored):
        row_len = self.ROW_LENS[table]
        if not len(stored):
            return np.empty((0, row_len), dtype=np.uint8)
        return np.stack(
            [np.frombuffer(_row(table, int(s), row_len), dtype=np.uint8) for s in stored]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sequences_match_lru(self, seed):
        reference, soa = _pair(capacity=400, overhead=12)
        rng = make_rng(seed, "soa-test", "oracle")
        for _ in range(300):
            op = rng.random()
            table = "a" if rng.random() < 0.5 else "b"
            row_len = self.ROW_LENS[table]
            if op < 0.4:
                if rng.random() < 0.05:
                    table = "big"
                size = int(rng.integers(0, 60))
                stored = rng.integers(0, 48, size=size)
                matrix = self._matrix(table, stored)
                for s, row in zip(stored, matrix):
                    reference.put((table, int(s)), row.tobytes())
                soa.fill_batch(table, stored, matrix)
            elif op < 0.6:
                stored = rng.integers(-2, 52, size=int(rng.integers(0, 24)))
                expected = [reference.get((table, int(s))) for s in stored]
                hit_mask, values = soa.probe_batch(table, stored, row_len)
                assert list(hit_mask) == [row is not None for row in expected]
                assert [bytes(v) for v in values] == [r for r in expected if r is not None]
            elif op < 0.7:
                key = (table, int(rng.integers(0, 48)))
                assert soa.get(key) == reference.get(key)
            elif op < 0.8:
                key = (table, int(rng.integers(0, 48)))
                value = _row(table, key[1], row_len)
                assert soa.put(key, value) == reference.put(key, value)
            elif op < 0.87:
                key = (table, int(rng.integers(0, 48)))
                assert soa.invalidate(key) == reference.invalidate(key)
            elif op < 0.92:
                key = ("other", table, int(rng.integers(0, 4)))
                value = bytes(int(rng.integers(1, 40)))
                assert soa.put(key, value) == reference.put(key, value)
            elif op < 0.96:
                stored = rng.integers(0, 52, size=8)
                mask = soa.contains_batch(table, stored)
                assert list(mask) == [reference.contains((table, int(s))) for s in stored]
            else:
                key = (table, int(rng.integers(0, 48)))
                assert soa.contains(key) == reference.contains(key)
            _assert_same_observables(reference, soa)

    def test_batch_larger_than_capacity_keeps_last_rows(self):
        reference, soa = _pair(capacity=10 * 16, overhead=8)
        stored = np.arange(100, 135)
        matrix = self._matrix("a", stored)
        for cache in (reference, soa):
            cache.put(("b", 1), _row("b", 1, 20))
        for s, row in zip(stored, matrix):
            reference.put(("a", int(s)), row.tobytes())
        soa.fill_batch("a", stored, matrix)
        _assert_same_observables(reference, soa)
        assert list(soa.keys()) == [("a", int(s)) for s in stored[-10:]]

    def test_duplicates_and_resident_keys_in_one_batch(self):
        reference, soa = _pair(capacity=6 * 20, overhead=12)
        for cache in (reference, soa):
            for s in range(5):
                cache.put(("a", s), _row("a", s, 8))
        stored = np.array([7, 0, 7, 3, 9, 0, 11, 12, 3])
        matrix = self._matrix("a", stored)
        for s, row in zip(stored, matrix):
            reference.put(("a", int(s)), row.tobytes())
        soa.fill_batch("a", stored, matrix)
        _assert_same_observables(reference, soa)


def _fill_call_profile(rows):
    """Function-call counts of one ``fill_batch`` of ``rows`` fresh rows into a
    full cache of uniform entries (each insert evicts exactly one entry)."""
    entry = 32 + 8
    soa = SoALRUCache(4096 * entry, per_item_overhead_bytes=8)
    soa.fill_batch("t", np.arange(4096), np.zeros((4096, 32), dtype=np.uint8))
    stored = np.arange(4096, 4096 + rows)
    values = np.ones((rows, 32), dtype=np.uint8)
    profiler = cProfile.Profile()
    profiler.enable()
    soa.fill_batch("t", stored, values)
    profiler.disable()
    assert soa.stats.evictions == rows and soa.item_count == 4096
    calls = pstats.Stats(profiler).stats
    return {name: counts[1] for (_, _, name), counts in calls.items()}


def test_fill_batch_call_count_is_independent_of_batch_size():
    """The fill is O(1) Python calls per batch, whatever the batch size (a
    machine-independent gate: it counts calls, it does not time them)."""
    small, large = _fill_call_profile(64), _fill_call_profile(2048)
    assert sum(small.values()) == sum(large.values())
    for per_entry in ("_insert_entry", "_evict_lru", "_remove_slot"):
        assert per_entry not in small and per_entry not in large
