"""Tests for the DIRECT-IO and mmap access paths."""

import numpy as np
import pytest

from repro.sim.units import BLOCK_SIZE, GB
from repro.storage import (
    BlockLayout,
    DirectIOReader,
    IOEngine,
    IOEngineConfig,
    MmapReader,
    SimulatedDevice,
    nand_flash_spec,
)


def _setup(reader_cls, **reader_kwargs):
    device = SimulatedDevice(nand_flash_spec(1 * GB), seed=0)
    layout = BlockLayout([device.spec.capacity_bytes])
    layout.add_table("t", num_rows=1024, row_bytes=128)
    # Write recognisable data for row 7.
    location = layout.locate("t", 7)
    device.write_block(location.lba, bytes([7] * 128), offset=location.offset)
    engine = IOEngine([device], IOEngineConfig())
    return reader_cls(engine, layout, **reader_kwargs), device


class TestDirectIOReader:
    def test_reads_correct_row_data(self):
        reader, _ = _setup(DirectIOReader)
        results = reader.read_rows("t", [7], start_time=0.0)
        assert results[0].data == bytes([7] * 128)

    def test_only_row_bytes_consume_fm(self):
        reader, _ = _setup(DirectIOReader)
        result = reader.read_rows("t", [7], 0.0)[0]
        assert result.fm_bytes_consumed == 128
        assert reader.fm_footprint_bytes() == 0

    def test_latency_positive_and_matches_completion(self):
        reader, _ = _setup(DirectIOReader)
        result = reader.read_rows("t", [3], 0.5)[0]
        assert result.latency > 0
        assert result.completion_time == pytest.approx(0.5 + result.latency)

    def test_multiple_rows_return_in_request_order(self):
        reader, _ = _setup(DirectIOReader)
        results = reader.read_rows("t", [3, 7, 1], 0.0)
        assert [r.row_index for r in results] == [3, 7, 1]

    def test_batch_read_matches_scalar_reads(self):
        rows = [3, 7, 1, 7, 40, 0]
        scalar_reader, scalar_device = _setup(DirectIOReader)
        batch_reader, batch_device = _setup(DirectIOReader)
        scalar_results = scalar_reader.read_rows("t", rows, 0.25)
        batch = batch_reader.read_rows_batch(
            "t", np.asarray(rows, dtype=np.int64), 0.25
        )
        assert [r.data for r in scalar_results] == [
            row.tobytes() for row in batch.rows
        ]
        assert [
            r.completion_time for r in scalar_results
        ] == batch.completion_times.tolist()
        assert scalar_device.stats == batch_device.stats
        assert scalar_reader.engine.stats == batch_reader.engine.stats


def _mmap_readers(**reader_kwargs):
    """Two identical mmap readers; row ``r`` of table ``t`` holds bytes ``r``."""
    readers = []
    for _ in range(2):
        reader, device = _setup(MmapReader, **reader_kwargs)
        for row in range(128):
            location = reader.layout.locate("t", row)
            device.write_block(location.lba, bytes([row] * 128), offset=location.offset)
        readers.append(reader)
    return readers


def _batch_equals_per_row(rows, start_time, warm=(), **reader_kwargs):
    """Read ``rows`` as one batch on one reader and one row per call on its
    twin (after the same warm-up reads); every outcome must agree."""
    per_row, batched = _mmap_readers(**reader_kwargs)
    for row, at in warm:
        per_row.read_rows("t", [row], at)
        batched.read_rows("t", [row], at)
    expected = [per_row.read_rows("t", [row], start_time)[0] for row in rows]
    batch = batched.read_rows_batch("t", np.asarray(rows, dtype=np.int64), start_time)
    assert [row.tobytes() for row in batch.rows] == [bytes([r] * 128) for r in rows]
    assert [row.tobytes() for row in batch.rows] == [read.data for read in expected]
    assert batch.completion_times.tolist() == [read.completion_time for read in expected]
    assert batched.page_faults == per_row.page_faults
    assert batched.page_hits == per_row.page_hits
    assert batched._page_cache == per_row._page_cache
    assert batched.engine.stats == per_row.engine.stats
    assert batched.engine.devices[0].stats == per_row.engine.devices[0].stats
    return batched, batch


class TestMmapBatchReads:
    """``MmapReader.read_rows_batch`` keeps the per-row page-cache model."""

    def test_page_hits(self):
        reader, batch = _batch_equals_per_row(
            [1, 41, 0], start_time=1.0, warm=[(0, 0.0), (40, 0.0)]
        )
        assert reader.page_faults == 2 and reader.page_hits == 3
        assert batch.completion_times.tolist() == [1.0, 1.0, 1.0]

    def test_hit_on_an_in_flight_fault_stalls(self):
        reader, batch = _batch_equals_per_row([1], start_time=0.0, warm=[(0, 0.0)])
        assert reader.page_faults == 1 and reader.page_hits == 1
        fault_done = reader._page_cache[(0, reader.layout.locate("t", 0).lba)]
        assert batch.completion_times[0] == fault_done > 0.0

    def test_two_rows_of_one_page_in_one_batch(self):
        reader, batch = _batch_equals_per_row([0, 1], start_time=0.0)
        assert reader.page_faults == 1 and reader.page_hits == 1
        assert batch.completion_times[1] == batch.completion_times[0] > 0.0

    def test_fifo_eviction_at_exact_capacity(self):
        reader, _ = _batch_equals_per_row(
            [0, 40, 80, 40, 0],
            start_time=0.0,
            page_cache_capacity_bytes=2 * BLOCK_SIZE,
        )
        # 0, 40, 80 fault (80 evicts 0's page), 40 hits, 0 faults again.
        assert reader.page_faults == 4 and reader.page_hits == 1
        assert reader.fm_footprint_bytes() == 2 * BLOCK_SIZE

    def test_faults_transfer_full_blocks(self):
        reader, _ = _batch_equals_per_row([0, 40, 1], start_time=0.0)
        assert reader.page_faults == 2
        assert reader.engine.stats.bytes_transferred == 2 * BLOCK_SIZE


class TestMmapReader:
    def test_page_fault_then_hit(self):
        reader, _ = _setup(MmapReader)
        first = reader.read_rows("t", [7], 0.0)[0]
        second = reader.read_rows("t", [7], first.completion_time)[0]
        assert reader.page_faults == 1
        assert reader.page_hits == 1
        assert second.latency == 0.0

    def test_rows_in_same_block_share_a_fault(self):
        reader, _ = _setup(MmapReader)
        # rows 0 and 1 live in the same 4KiB block (128B rows).
        reader.read_rows("t", [0, 1], 0.0)
        assert reader.page_faults == 1
        assert reader.page_hits == 1

    def test_page_fault_transfers_whole_block(self):
        reader, _ = _setup(MmapReader)
        result = reader.read_rows("t", [7], 0.0)[0]
        assert result.transferred_bytes == BLOCK_SIZE
        assert result.fm_bytes_consumed == BLOCK_SIZE

    def test_mmap_fm_footprint_counts_resident_pages(self):
        reader, _ = _setup(MmapReader)
        reader.read_rows("t", [0], 0.0)
        reader.read_rows("t", [100], 0.0)
        assert reader.fm_footprint_bytes() == 2 * BLOCK_SIZE

    def test_page_cache_eviction_bounds_footprint(self):
        reader, _ = _setup(MmapReader, page_cache_capacity_bytes=2 * BLOCK_SIZE)
        # touch rows in 4 different blocks
        for row in (0, 40, 80, 120):
            reader.read_rows("t", [row], 0.0)
        assert reader.fm_footprint_bytes() <= 2 * BLOCK_SIZE

    def test_page_cache_eviction_at_exact_capacity_boundary(self):
        # Capacity = exactly 2 pages: the 2nd fault fills the cache without
        # evicting, the 3rd evicts precisely the oldest page (FIFO), and a
        # re-read of the evicted block faults again.
        reader, _ = _setup(MmapReader, page_cache_capacity_bytes=2 * BLOCK_SIZE)
        rows = (0, 40, 80)  # three distinct blocks (32 rows of 128 B / block)
        cursor = 0.0
        for row in rows:
            cursor = reader.read_rows("t", [row], cursor)[0].completion_time
        assert reader.page_faults == 3
        assert reader.fm_footprint_bytes() == 2 * BLOCK_SIZE
        # Block of row 40 (2nd fault) survived; block of row 0 was evicted.
        hit = reader.read_rows("t", [40], cursor)[0]
        assert reader.page_hits == 1
        assert hit.latency == 0.0
        reader.read_rows("t", [0], cursor)
        assert reader.page_faults == 4

    def test_access_before_fault_completion_waits_for_the_fault(self):
        # Two rows of the same block, second access issued while the first
        # fault is still in flight: it counts as a page hit (no new IO) but
        # stalls until the fault's completion time.
        reader, _ = _setup(MmapReader)
        fault = reader.read_rows("t", [0], 0.0)[0]
        assert fault.completion_time > 0.0
        early = reader.read_rows("t", [1], 0.0)[0]
        assert reader.page_faults == 1
        assert reader.page_hits == 1
        assert early.completion_time == fault.completion_time
        assert early.latency == pytest.approx(fault.completion_time)
        # After the fault completes the page serves instantly.
        late = reader.read_rows("t", [1], fault.completion_time)[0]
        assert late.latency == 0.0
        assert late.completion_time == fault.completion_time

    def test_mmap_data_matches_direct_io(self):
        direct, _ = _setup(DirectIOReader)
        mapped, _ = _setup(MmapReader)
        assert (
            direct.read_rows("t", [7], 0.0)[0].data
            == mapped.read_rows("t", [7], 0.0)[0].data
        )

    def test_mmap_slower_than_direct_io_for_cold_reads(self):
        """Section 4.1: mmap showed ~3x higher access latency."""
        direct, _ = _setup(DirectIOReader)
        mapped, _ = _setup(MmapReader, latency_factor=3.0)
        direct_lat = direct.read_rows("t", [9], 0.0)[0].latency
        mapped_lat = mapped.read_rows("t", [9], 0.0)[0].latency
        assert mapped_lat > 2.0 * direct_lat

    def test_invalid_latency_factor_rejected(self):
        device = SimulatedDevice(nand_flash_spec(1 * GB))
        layout = BlockLayout([device.spec.capacity_bytes])
        layout.add_table("t", 16, 128)
        engine = IOEngine([device])
        with pytest.raises(ValueError):
            MmapReader(engine, layout, latency_factor=0.5)
        with pytest.raises(ValueError):
            MmapReader(engine, layout, page_cache_capacity_bytes=0)
