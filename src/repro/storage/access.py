"""Access paths from the application to SM data: DIRECT-IO vs mmap.

The paper evaluated ``mmap`` against ``DIRECT_IO`` with an application-level
cache and chose the latter: with small access granularity and little spatial
locality, mmap wastes fast-memory space on full 4 KiB pages and is roughly 3x
slower per access (section 4.1).  Both paths are modelled here so the
comparison can be reproduced.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sim.units import BLOCK_SIZE, GIB
from repro.storage.block_layout import BlockLayout
from repro.storage.io_engine import IOEngine, IORequest, IORequestBatch


@dataclass
class ReadResult:
    """Outcome of reading one embedding row through an access path."""

    table_name: str
    row_index: int
    data: bytes
    requested_bytes: int
    transferred_bytes: int
    fm_bytes_consumed: int
    completion_time: float
    latency: float


@dataclass
class BatchReadResult:
    """Array-native outcome of reading a batch of rows of one table.

    ``rows`` stacks the payloads as one ``(n, row_bytes)`` uint8 matrix in
    request order; ``completion_times`` is the per-row completion array.
    """

    rows: np.ndarray
    completion_times: np.ndarray


class AccessPath(abc.ABC):
    """Interface shared by the DIRECT-IO and mmap read paths."""

    @abc.abstractmethod
    def read_rows(
        self, table_name: str, row_indices: Sequence[int], start_time: float
    ) -> List[ReadResult]:
        """Read a set of rows of one table starting at ``start_time``."""

    @abc.abstractmethod
    def read_rows_batch(
        self, table_name: str, row_indices: np.ndarray, start_time: float
    ) -> BatchReadResult:
        """:meth:`read_rows` with the payloads and completions as arrays."""

    @abc.abstractmethod
    def fm_footprint_bytes(self) -> int:
        """Fast-memory bytes this access path consumes beyond the row cache."""

    def clear_cache(self) -> None:
        """Drop any access-path-resident cached state (page cache); no-op
        for paths that hold none."""
        return None

    def reset_stats(self) -> None:
        """Zero any access-path counters; no-op for paths that keep none."""
        return None


class DirectIOReader(AccessPath):
    """O_DIRECT row reads through the io_uring engine.

    Only the requested row bytes land in fast memory (when sub-block reads are
    enabled), and the application-level cache owns all FM space.
    """

    def __init__(self, engine: IOEngine, layout: BlockLayout) -> None:
        self.engine = engine
        self.layout = layout

    def read_rows(
        self, table_name: str, row_indices: Sequence[int], start_time: float
    ) -> List[ReadResult]:
        requests = [
            IORequest(
                table_name=table_name,
                row_index=row_index,
                location=self.layout.locate(table_name, row_index),
            )
            for row_index in row_indices
        ]
        completed = self.engine.submit_row_reads(requests, start_time)
        results: List[ReadResult] = []
        for request in completed:
            results.append(
                ReadResult(
                    table_name=table_name,
                    row_index=request.row_index,
                    data=request.data,
                    requested_bytes=request.location.length,
                    transferred_bytes=request.transferred_bytes,
                    fm_bytes_consumed=request.location.length,
                    completion_time=request.completion_time,
                    latency=request.completion_time - start_time,
                )
            )
        return results

    def read_rows_batch(
        self, table_name: str, row_indices: np.ndarray, start_time: float
    ) -> BatchReadResult:
        """Whole-batch DIRECT-IO read: locate, submit and gather as arrays.

        Engine gating, device scheduling, RNG consumption and every stats
        counter are bit-identical to :meth:`read_rows` — the submission goes
        through :meth:`IOEngine.submit_row_reads_batch`, which replays the
        scalar semantics over structure-of-arrays state.  A table extent
        lives on exactly one device, so the payload gather is one
        advanced-indexing read from that device's block store.
        """
        rows = np.asarray(row_indices, dtype=np.int64)
        locations = self.layout.locate_batch(table_name, rows)
        batch = IORequestBatch.from_locations(table_name, locations)
        self.engine.submit_row_reads_batch(batch, start_time)
        device = self.engine.devices[locations.device_index]
        data = device.read_rows_ndarray(locations.lba, locations.offset, locations.length)
        return BatchReadResult(rows=data, completion_times=batch.completion_time)

    def fm_footprint_bytes(self) -> int:
        return 0


class MmapReader(AccessPath):
    """mmap-based access: whole pages are faulted into the page cache.

    Models the two drawbacks the paper observed: roughly ``latency_factor``
    (default 3x) higher access latency, and fast memory consumed by full
    4 KiB pages even though only 128-256 B of each page is useful.
    """

    def __init__(
        self,
        engine: IOEngine,
        layout: BlockLayout,
        latency_factor: float = 3.0,
        page_cache_capacity_bytes: int = GIB,
    ) -> None:
        if latency_factor < 1.0:
            raise ValueError(f"latency_factor must be >= 1.0: {latency_factor}")
        if page_cache_capacity_bytes <= 0:
            raise ValueError("page_cache_capacity_bytes must be positive")
        self.engine = engine
        self.layout = layout
        self.latency_factor = latency_factor
        self.page_cache_capacity_bytes = page_cache_capacity_bytes
        # Insertion-ordered page cache keyed by (device, lba), valued by the
        # completion time of the fault that brought the page in; python dicts
        # preserve insertion order so popping the first item gives FIFO
        # eviction, a reasonable stand-in for kernel page reclaim.
        self._page_cache: Dict[Tuple[int, int], float] = {}
        self.page_faults = 0
        self.page_hits = 0

    def _page_cache_pages(self) -> int:
        return self.page_cache_capacity_bytes // BLOCK_SIZE

    def read_rows(
        self, table_name: str, row_indices: Sequence[int], start_time: float
    ) -> List[ReadResult]:
        results: List[ReadResult] = []
        for row_index in row_indices:
            location = self.layout.locate(table_name, row_index)
            page_key = (location.device_index, location.lba)
            fault_done = self._page_cache.get(page_key)
            if fault_done is not None:
                self.page_hits += 1
                # The page is mapped; if its fault has not completed yet the
                # access stalls until it does (no new device IO either way).
                if fault_done <= start_time:
                    completion_time, access_latency = start_time, 0.0
                else:
                    completion_time, access_latency = fault_done, fault_done - start_time
                results.append(
                    ReadResult(
                        table_name=table_name,
                        row_index=row_index,
                        data=self.engine.devices[location.device_index].read_block_data(
                            location.lba, location.offset, location.length
                        ),
                        requested_bytes=location.length,
                        transferred_bytes=0,
                        fm_bytes_consumed=0,
                        completion_time=completion_time,
                        latency=access_latency,
                    )
                )
                continue

            self.page_faults += 1
            # A page fault always transfers the full block regardless of the
            # engine's sub-block setting.
            full_block_location = type(location)(
                device_index=location.device_index,
                lba=location.lba,
                offset=0,
                length=BLOCK_SIZE,
            )
            request = IORequest(
                table_name=table_name, row_index=row_index, location=full_block_location
            )
            completed = self.engine.submit_row_reads([request], start_time)[0]
            latency = (completed.completion_time - start_time) * self.latency_factor
            if len(self._page_cache) >= self._page_cache_pages():
                self._page_cache.pop(next(iter(self._page_cache)))
            self._page_cache[page_key] = start_time + latency

            data = self.engine.devices[location.device_index].read_block_data(
                location.lba, location.offset, location.length
            )
            results.append(
                ReadResult(
                    table_name=table_name,
                    row_index=row_index,
                    data=data,
                    requested_bytes=location.length,
                    transferred_bytes=BLOCK_SIZE,
                    fm_bytes_consumed=BLOCK_SIZE,
                    completion_time=start_time + latency,
                    latency=latency,
                )
            )
        return results

    def read_rows_batch(
        self, table_name: str, row_indices: np.ndarray, start_time: float
    ) -> BatchReadResult:
        """:meth:`read_rows` returned as arrays.

        Pages fault and hit one row at a time in request order, so a row
        whose page an earlier row of the batch faulted in is a page hit that
        stalls until that fault completes.
        """
        reads = self.read_rows(table_name, np.asarray(row_indices).tolist(), start_time)
        rows = np.frombuffer(b"".join(read.data for read in reads), dtype=np.uint8)
        return BatchReadResult(
            rows=rows.reshape(len(reads), self.layout.extent(table_name).row_bytes),
            completion_times=np.array(
                [read.completion_time for read in reads], dtype=np.float64
            ),
        )

    def fm_footprint_bytes(self) -> int:
        return len(self._page_cache) * BLOCK_SIZE

    def clear_cache(self) -> None:
        """Unmap every cached page (fault completion times included)."""
        self._page_cache.clear()

    def reset_stats(self) -> None:
        self.page_faults = 0
        self.page_hits = 0
