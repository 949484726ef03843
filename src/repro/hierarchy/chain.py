"""The tier chain: serving row lookups through an N-tier hierarchy.

A :class:`TierChain` owns an ordered list of :class:`~repro.hierarchy.tier.MemoryTier`
objects (fastest first) plus the :class:`~repro.hierarchy.placement.TieredPlacement`
that says where every stored row lives.  Serving one row homed on tier ``k``:

1. probe the row caches of tiers ``0 .. k-1`` in order (each probe costs host
   CPU time),
2. on a full miss, read the row from tier ``k`` — fast-memory bytes for rows
   homed on tier 0, a device IO otherwise,
3. promote the row into upper-tier caches according to the configurable
   promotion policy (``all`` — every cache above the home tier; ``top`` —
   the fastest cache only; ``none``).

A batch flows through the chain as arrays (:meth:`TierChain.fetch_batch`):
one probe per cache for all eligible rows, one matrix gather for tier-0 rows,
one batch read per device tier.  A cache hit below tier 0 that promotes the
row into faster caches changes what later rows of the same batch find, so
such batches walk their cache probes in row order instead
(:meth:`TierChain.fetch_rows`) and then share the same array code.

Whenever only tier 0 carries a cache — every legacy two-tier configuration —
``all`` and ``top`` coincide and the chain is bit-identical to the original
FM-cache-then-SM path of :class:`~repro.core.sdm.SoftwareDefinedMemory`,
which the golden parity tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hierarchy.placement import TieredPlacement
from repro.hierarchy.tier import PROMOTION_POLICIES, MemoryTier
from repro.obs.trace import NULL_RECORDER, TraceRecorder


@dataclass
class BatchFetchOutcome:
    """Result of fetching one batch of stored rows through the chain.

    ``rows`` stacks the served payloads as one uint8 matrix, row ``i``
    answering the ``i``-th requested stored row.
    """

    rows: np.ndarray
    completion_time: float
    device_reads: int = 0
    fast_rows: int = 0
    cache_hits: int = 0
    probe_seconds: float = 0.0
    reads_by_tier: Dict[int, int] = field(default_factory=dict)


class TierChain:
    """Serves stored-row lookups through an ordered list of memory tiers."""

    def __init__(
        self,
        tiers: Sequence[MemoryTier],
        placement: TieredPlacement,
        *,
        promotion: str = "top",
        cache_probe_seconds: float = 0.0,
        fm_lookup_overhead: float = 0.0,
        fm_bandwidth: float = float("inf"),
    ) -> None:
        if not tiers:
            raise ValueError("TierChain needs at least one tier")
        if promotion not in PROMOTION_POLICIES:
            raise ValueError(
                f"unknown promotion policy {promotion!r}; choices: {PROMOTION_POLICIES}"
            )
        if placement.num_tiers > len(tiers):
            raise ValueError(
                f"placement references {placement.num_tiers} tiers, chain has {len(tiers)}"
            )
        self.tiers = list(tiers)
        self.placement = placement
        self.promotion = promotion
        self.cache_probe_seconds = cache_probe_seconds
        self.fm_lookup_overhead = fm_lookup_overhead
        self.fm_bandwidth = fm_bandwidth
        #: Span recorder for probe / storage-IO waits; the no-op default
        #: keeps the serve path bit-identical to an uninstrumented build.
        self.recorder: TraceRecorder = NULL_RECORDER
        # Which tiers carry a cache never changes after construction, so the
        # per-home-tier probe lists (walked for every row) are precomputed.
        cached = [index for index, tier in enumerate(self.tiers) if tier.cache is not None]
        self._cached_tiers: List[int] = cached
        self._upper_cache_indices: List[List[int]] = [
            [index for index in cached if index < home_tier]
            for home_tier in range(len(self.tiers) + 1)
        ]

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    def _upper_caches(self, home_tier: int) -> List[int]:
        """Tier indices above ``home_tier`` that carry a row cache."""
        return self._upper_cache_indices[home_tier]

    def _promotion_targets(self, home_tier: int) -> List[int]:
        if self.promotion == "none":
            return []
        upper = self._upper_caches(home_tier)
        if not upper:
            return []
        if self.promotion == "top":
            return upper[:1]
        return upper

    def fetch_batch(
        self,
        table_name: str,
        positions: np.ndarray,
        stored: np.ndarray,
        start_time: float,
        *,
        cache_enabled: bool = True,
        size_hint: int,
    ) -> Optional[BatchFetchOutcome]:
        """Fetch stored rows of a table, the whole batch flowing as arrays.

        Probes each tier's cache once for all eligible rows (each cache sees
        its probes in row order, so stats, CPU charges and LRU order match a
        per-row walk), then serves the rest with :meth:`_serve_probed`.
        Row ``i`` of the outcome answers ``stored[i]``; ``positions`` (the
        request slot of each row) stays in the signature so per-layer
        tracers keep reading ``stored`` as the fourth argument.

        Returns ``None``, before mutating anything, on a promotion hazard: a
        cache hit below tier 0 whose promotion policy fills upper caches
        mid-batch, which later probes of the same batch must observe.
        Callers serve such batches with :meth:`fetch_rows`.
        """
        stored = np.asarray(stored, dtype=np.int64)
        count = int(stored.size)
        home_tiers = self.placement.for_table(table_name).tiers_of_rows(stored)
        hit_tier = np.full(count, -1, dtype=np.int64)
        rows_out = np.zeros((count, size_hint), dtype=np.uint8)
        if cache_enabled:
            # Plan (non-mutating): would any row hit a cache that promotes?
            unresolved = np.ones(count, dtype=bool)
            for tier_index in self._cached_tiers:
                eligible = unresolved & (home_tiers > tier_index)
                if not bool(eligible.any()):
                    continue
                contained = self.tiers[tier_index].cache_contains_batch(
                    table_name, stored[eligible], size_hint
                )
                if bool(contained.any()):
                    if tier_index >= 1 and self._promotion_targets(tier_index):
                        return None
                    unresolved[np.nonzero(eligible)[0][contained]] = False

            for tier_index in self._cached_tiers:
                walk = (home_tiers > tier_index) & (hit_tier < 0)
                if not bool(walk.any()):
                    continue
                hit_mask, values = self.tiers[tier_index].probe_cache_batch(
                    table_name, stored[walk], size_hint
                )
                rows_at = np.nonzero(walk)[0][hit_mask]
                rows_out[rows_at] = values
                hit_tier[rows_at] = tier_index
        return self._serve_probed(
            table_name, stored, home_tiers, hit_tier, rows_out, start_time,
            cache_enabled=cache_enabled, size_hint=size_hint,
        )

    def fetch_rows(
        self,
        table_name: str,
        positions: np.ndarray,
        stored: np.ndarray,
        start_time: float,
        *,
        cache_enabled: bool = True,
        size_hint: int,
    ) -> BatchFetchOutcome:
        """:meth:`fetch_batch` for batches with promotion hazards.

        The cache probes walk the batch in row order, and a hit below tier 0
        fills its promotion targets at once, so later rows of the batch see
        the promoted copy.  The rest of the batch is served by the same
        array code as :meth:`fetch_batch`; on a batch without hazards the
        two methods are interchangeable.
        """
        stored = np.asarray(stored, dtype=np.int64)
        home_tiers = self.placement.for_table(table_name).tiers_of_rows(stored)
        hit_tier = np.full(stored.size, -1, dtype=np.int64)
        rows_out = np.zeros((stored.size, size_hint), dtype=np.uint8)
        if cache_enabled:
            walk = zip(stored.tolist(), home_tiers.tolist())
            for row, (stored_index, home_tier) in enumerate(walk):
                key = (table_name, stored_index)
                for tier_index in self._upper_caches(home_tier):
                    cached = self.tiers[tier_index].probe_cache(key, size_hint=size_hint)
                    if cached is not None:
                        for target in self._promotion_targets(tier_index):
                            self.tiers[target].fill_cache(key, cached)
                        rows_out[row] = np.frombuffer(cached, dtype=np.uint8)
                        hit_tier[row] = tier_index
                        break
        return self._serve_probed(
            table_name, stored, home_tiers, hit_tier, rows_out, start_time,
            cache_enabled=cache_enabled, size_hint=size_hint,
        )

    def _serve_probed(
        self,
        table_name: str,
        stored: np.ndarray,
        home_tiers: np.ndarray,
        hit_tier: np.ndarray,
        rows_out: np.ndarray,
        start_time: float,
        *,
        cache_enabled: bool,
        size_hint: int,
    ) -> BatchFetchOutcome:
        """Serve a probed batch: tier-0 gather, time charges, device misses.

        ``hit_tier`` holds the cached tier that served each row (``-1`` for
        none) and ``rows_out`` already holds those rows' payloads.  Time is
        charged with the serial-probe-then-concurrent-IO cost model: per row,
        one probe charge per walked cache, then the hit or fast-read charge,
        replayed in row order through ``np.add.accumulate`` (a left-to-right
        addition chain, so the accrued floats equal a per-row cursor's);
        misses are then submitted to their home tiers at the accrued cursor.
        """
        count = int(stored.size)
        cache_hits = int(np.count_nonzero(hit_tier >= 0))

        # Tier-0-homed rows: one matrix gather from the in-memory tables.
        fm_mask = home_tiers == 0
        num_fast = int(np.count_nonzero(fm_mask))
        if num_fast:
            fast = self.tiers[0]
            rows_out[fm_mask] = fast.read_rows_matrix(table_name, stored[fm_mask])
            fast.stats.rows_served += num_fast
            fast.stats.bytes_served += num_fast * size_hint

        # Zero padding is bitwise-neutral (x + 0.0 == x for the positive
        # cursor).
        num_cached = len(self._cached_tiers)
        increments = np.zeros((count, num_cached + 1), dtype=np.float64)
        total_probes = 0
        if cache_enabled and count:
            for column, tier_index in enumerate(self._cached_tiers):
                walked = (home_tiers > tier_index) & (
                    (hit_tier < 0) | (hit_tier >= tier_index)
                )
                increments[walked, column] = self.cache_probe_seconds
                total_probes += int(np.count_nonzero(walked))
                hits_here = hit_tier == tier_index
                if bool(hits_here.any()):
                    increments[hits_here, num_cached] = self.tiers[
                        tier_index
                    ].cache_hit_seconds(size_hint)
        if num_fast:
            increments[fm_mask, num_cached] = (
                self.fm_lookup_overhead + size_hint / self.fm_bandwidth
            )
        chain = np.concatenate(([start_time], increments.ravel()))
        cursor = float(np.add.accumulate(chain)[-1])
        probe_chain = np.concatenate(
            ([0.0], np.full(total_probes, self.cache_probe_seconds))
        )
        probe_seconds = float(np.add.accumulate(probe_chain)[-1])

        outcome = BatchFetchOutcome(
            rows=rows_out,
            completion_time=start_time,
            cache_hits=cache_hits,
            fast_rows=num_fast,
            probe_seconds=probe_seconds,
        )
        recorder = self.recorder
        if recorder.enabled and cursor > start_time:
            # The serial host walk: cache probes, hit copies, fast-tier reads.
            recorder.span(
                "walk",
                "chain",
                start_time,
                cursor - start_time,
                args={
                    "probe_seconds": probe_seconds,
                    "cache_hits": cache_hits,
                    "fast_rows": num_fast,
                },
            )

        # Misses: one batch read per home tier, tiers in first-occurrence
        # row order, and target-major promotion fills (each cache still sees
        # its fills in row order).
        io_done = cursor
        miss_rows = np.flatnonzero((hit_tier < 0) & ~fm_mask)
        miss_tiers = home_tiers[miss_rows]
        tiers_present, first_rows = np.unique(miss_tiers, return_index=True)
        for tier_index in tiers_present[np.argsort(first_rows)].tolist():
            tier = self.tiers[tier_index]
            targets = self._promotion_targets(tier_index) if cache_enabled else []
            rows_at = miss_rows[miss_tiers == tier_index]
            miss_stored = stored[rows_at]
            matrix, completions = tier.read_rows_batch(table_name, miss_stored, cursor)
            rows_out[rows_at] = matrix
            for target in targets:
                self.tiers[target].fill_cache_batch(table_name, miss_stored, matrix)
            num_reads = int(rows_at.size)
            group_done = max(cursor, float(completions.max()))
            outcome.device_reads += num_reads
            outcome.reads_by_tier[tier_index] = num_reads
            io_done = max(io_done, group_done)
            if recorder.enabled:
                recorder.span(
                    f"io:{tier.spec.name}",
                    "storage",
                    cursor,
                    group_done - cursor,
                    args={
                        "tier": tier_index,
                        "reads": num_reads,
                        "promoted_rows": len(targets) * num_reads,
                    },
                )

        outcome.completion_time = max(cursor, io_done)
        return outcome

    # ---------------------------------------------------------------- admin
    def clear_caches(self) -> None:
        for tier in self.tiers:
            tier.clear_cache()

    def reset_stats(self) -> None:
        for tier in self.tiers:
            tier.reset_stats()

    def reset_queues(self) -> None:
        """Clear every tier's behavioural queue state; counters untouched."""
        for tier in self.tiers:
            tier.reset_queues()

    def reset_rng(self) -> None:
        """Rewind every tier's random streams to their as-constructed state."""
        for tier in self.tiers:
            tier.reset_rng()
