"""Bit-exact parity of the serve core against a frozen oracle.

The SDM serves every embedding-table request through one array-native
path: a whole-batch tier-chain gather, with a row-ordered probe walk for
batches whose cache hits below tier 0 promote rows mid-batch.  The
reference it must reproduce bit for bit is the per-row scalar walk that
path replaced.  That walk's outputs on every configuration below are
frozen in ``tests/golden/batched_parity.json``: a digest of each query's
pooled embedding bytes, exact completion times, SDM counters, per-tier
serving / device / IO-engine stats, mmap page-cache counters, row-cache
counters *and* per-partition key order, and pooled-cache counters.

Loading is frozen beside serving: ``block_images`` holds, per device, the
sha256 of the blocks the SDM wrote onto it at build time (every allocated
block, in LBA order) with the device's write counters.  The images were
recorded from the per-row loader that the array-native one replaced.

The fixture has no regenerate switch on purpose: regenerating it from the
code under test would turn the oracle into a snapshot of whatever that
code does.  A deliberate change to the simulated model must replace the
fixture by hand and say why.
"""

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core import SDMConfig, SoftwareDefinedMemory
from repro.core.config import AccessPathKind
from repro.dlrm import DLRMModel, EmbeddingTable, EmbeddingTableSpec, MLP
from repro.dlrm.pruning import prune_table
from repro.hierarchy import DeviceTier, compute_tiered_placement
from repro.sim.units import BLOCK_SIZE
from repro.storage import IOEngineConfig, MmapReader
from repro.workload import QueryGenerator, WorkloadConfig

NUM_QUERIES = 40
GOLDEN = Path(__file__).parent / "golden" / "batched_parity.json"

# Configuration axes the serve path must cover: quantisation width, pruning
# (with and without depruning), access path, tier count, promotion policy,
# row splitting, cache partitioning, a cache small enough to force
# evictions mid-stream, queue-depth limits tight enough to throttle
# mid-batch, and the full-block (no sub-block SGL) transfer path with its
# memcpy accounting.
VARIANTS = {
    "default": {},
    "pooled-off": {"pooled_cache_enabled": False},
    "quant-4bit": {"quant_bits": 4},
    "pruned": {"pruned_fraction": 0.3},
    "pruned-deprune": {"pruned_fraction": 0.3, "deprune_at_load": True},
    "dequantize-at-load": {"dequantize_at_load": True},
    "mmap": {"access_path": AccessPathKind.MMAP},
    "three-tier": {"tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB"},
    "three-tier-promote-none": {
        "tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB",
        "promotion": "none",
    },
    "three-tier-promote-top": {
        "tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB",
        "promotion": "top",
    },
    "split-rows": {"split_rows": True, "tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB"},
    # A small tier-0 cache over NAND-homed tables: rows evicted from tier 0
    # hit the CXL cache and are re-promoted mid-batch (promotion hazards).
    "three-tier-hazard": {"tiers": "dram:0:2KiB,cxl:1KiB:64KiB,nand:1GiB"},
    "three-tier-hazard-mmap": {
        "tiers": "dram:0:2KiB,cxl:1KiB:64KiB,nand:1GiB",
        "access_path": AccessPathKind.MMAP,
    },
    "split-rows-hazard": {
        "split_rows": True,
        "tiers": "dram:2KiB:2KiB,cxl:4KiB:64KiB,nand:1GiB",
    },
    # Hotness-ranked row split: every tier stores its rows in rank order.
    "split-rows-ranked": {
        "row_hotness": True,
        "tiers": "dram:2KiB,cxl:40KiB:64KiB,nand:1GiB",
    },
    "four-partitions": {"num_cache_partitions": 4},
    "tiny-cache": {"row_cache_capacity_bytes": 4 * 1024},
    "throttled-io": {
        "row_cache_capacity_bytes": 4 * 1024,
        "io": IOEngineConfig(max_outstanding_per_device=4, max_outstanding_per_table=2),
    },
    "full-block-io": {
        "row_cache_capacity_bytes": 4 * 1024,
        "io": IOEngineConfig(sub_block_reads=False),
    },
}


def _model(quant_bits: int = 8) -> DLRMModel:
    specs = [
        EmbeddingTableSpec(
            name="user_0",
            num_rows=256,
            dim=16,
            quant_bits=quant_bits,
            is_user=True,
            avg_pooling_factor=6.0,
            zipf_alpha=1.05,
        ),
        EmbeddingTableSpec(
            name="user_1",
            num_rows=256,
            dim=16,
            quant_bits=quant_bits,
            is_user=True,
            avg_pooling_factor=6.0,
            zipf_alpha=1.05,
        ),
        EmbeddingTableSpec(
            name="item_0",
            num_rows=256,
            dim=16,
            quant_bits=quant_bits,
            is_user=False,
            avg_pooling_factor=3.0,
            zipf_alpha=1.2,
        ),
    ]
    tables = {spec.name: EmbeddingTable.random(spec, seed=0) for spec in specs}
    total_dim = sum(spec.dim for spec in specs)
    return DLRMModel(
        name="parity-model",
        bottom_mlp=MLP([4, 16, 8], seed=0, name="parity/bottom"),
        top_mlp=MLP([8 + total_dim, 16, 1], seed=0, name="parity/top"),
        tables=tables,
        dense_dim=4,
        item_batch=1,
    )


def _build_sdm(variant: dict) -> SoftwareDefinedMemory:
    options = dict(variant)
    quant_bits = options.pop("quant_bits", 8)
    pruned_fraction = options.pop("pruned_fraction", 0.0)
    row_hotness = options.pop("row_hotness", False)
    model = _model(quant_bits)
    pruned = None
    if pruned_fraction:
        pruned = {
            "user_0": prune_table(model.table("user_0"), pruned_fraction, seed=1)
        }
    config = SDMConfig(
        row_cache_capacity_bytes=options.pop("row_cache_capacity_bytes", 256 * 1024),
        pooled_cache_capacity_bytes=128 * 1024,
        num_devices=2,
        seed=0,
        **options,
    )
    placement = None
    if row_hotness:
        placement = compute_tiered_placement(
            model.table_specs,
            config.resolved_tiers(),
            granularity="rows",
            row_hotness={
                name: np.random.default_rng(7).permutation(256)
                for name in ("user_0", "user_1")
            },
        )
    return SoftwareDefinedMemory(
        model, config, placement=placement, pruned_tables=pruned
    )


def _fields(stats) -> dict:
    """A stats dataclass as JSON, floats as exact ``repr`` strings."""
    return {
        name: repr(value) if isinstance(value, float) else value
        for name, value in asdict(stats).items()
    }


def _cache_snapshot(cache) -> dict:
    partitions = list(cache._memory_caches) + list(cache._cpu_caches)
    return {
        "stats": _fields(cache.stats),
        "memory_optimized_stats": _fields(cache.memory_optimized_stats),
        "cpu_optimized_stats": _fields(cache.cpu_optimized_stats),
        "key_order": [
            [[key[0], int(key[1])] for key in partition.keys()]
            for partition in partitions
        ],
    }


def _block_images(sdm: SoftwareDefinedMemory) -> list:
    """Per device tier, per device: what loading wrote onto the device."""
    images = []
    for tier in sdm.tiers:
        if not isinstance(tier, DeviceTier):
            continue
        per_device = []
        for index, device in enumerate(tier.devices):
            blocks = tier.layout.allocated_bytes(index) // BLOCK_SIZE
            digest = hashlib.sha256()
            for lba in range(blocks):
                digest.update(device.read_block_data(lba))
            per_device.append(
                {
                    "blocks": blocks,
                    "sha256": digest.hexdigest(),
                    "writes": device.stats.writes,
                    "bytes_written": device.stats.bytes_written,
                }
            )
        images.append(per_device)
    return images


def _snapshot(sdm: SoftwareDefinedMemory) -> dict:
    """Capture the loaded block images, then serve the fixed query stream
    and capture every observable outcome."""
    block_images = _block_images(sdm)
    generator = QueryGenerator(
        sdm.model, WorkloadConfig(item_batch=1, num_users=100), seed=3
    )
    digests, completions = [], []
    cursor = 0.0
    for query in generator.generate(NUM_QUERIES):
        pooled, done = sdm.pooled_embeddings(query.user_indices, cursor)
        sdm.on_query_complete()
        digest = hashlib.sha256()
        for name, vector in sorted(pooled.items()):
            digest.update(name.encode())
            digest.update(vector.tobytes())
        digests.append(digest.hexdigest())
        completions.append(repr(done))
        cursor = done + 1e-4
    return {
        "block_images": block_images,
        "pooled_sha256": digests,
        "completion_times": completions,
        "sdm_stats": _fields(sdm.stats),
        "tier_stats": [_fields(tier.stats) for tier in sdm.tiers],
        "device_stats": [
            [_fields(device.stats) for device in tier.devices]
            for tier in sdm.tiers
            if isinstance(tier, DeviceTier)
        ],
        "io_engine_stats": [
            _fields(tier.io_engine.stats)
            for tier in sdm.tiers
            if isinstance(tier, DeviceTier)
        ],
        "mmap_page_faults_hits": [
            [tier.access_path.page_faults, tier.access_path.page_hits]
            for tier in sdm.tiers
            if isinstance(tier, DeviceTier) and isinstance(tier.access_path, MmapReader)
        ],
        "caches": [
            None if tier.cache is None else _cache_snapshot(tier.cache)
            for tier in sdm.tiers
        ],
        "pooled_cache_stats": (
            None if sdm.pooled_cache is None else _fields(sdm.pooled_cache.stats)
        ),
    }


@lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _serve_counting_hazard_walks(variant: str):
    """(snapshot, number of ``fetch_rows`` hazard walks) of one variant."""
    sdm = _build_sdm(VARIANTS[variant])
    fetch_rows = sdm.chain.fetch_rows
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fetch_rows(*args, **kwargs)

    sdm.chain.fetch_rows = counted
    return _snapshot(sdm), len(calls)


def test_golden_fixture_covers_every_variant():
    assert sorted(_golden()) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batched_serve_is_bit_identical_to_scalar(variant):
    # The frozen scalar walk's outputs are the oracle (see module docstring).
    snapshot, _ = _serve_counting_hazard_walks(variant)
    expected = _golden()[variant]
    assert snapshot.keys() == expected.keys()
    for key in expected:
        assert snapshot[key] == expected[key], key


def test_batched_mode_actually_takes_the_batched_path():
    # Guard against the matrix passing vacuously: the classic two-tier stack
    # serves every batch with the array path and never needs the walk...
    for variant in ("default", "three-tier-promote-none"):
        assert _serve_counting_hazard_walks(variant)[1] == 0, variant
    sdm = _build_sdm({})
    outcome = sdm.chain.fetch_batch(
        "user_0",
        np.arange(4, dtype=np.int64),
        np.array([1, 2, 3, 4], dtype=np.int64),
        0.0,
        size_hint=sdm._sm_tables["user_0"].row_bytes,
    )
    assert outcome is not None
    assert outcome.rows.shape[0] == 4


def test_hazard_walk_is_exercised_by_the_matrix():
    # ...while promotion hazards (cache hits below tier 0 that promote
    # mid-batch) take the row-ordered probe walk on the hazard variants.
    for variant in ("three-tier-hazard", "three-tier-hazard-mmap", "split-rows-hazard"):
        assert _serve_counting_hazard_walks(variant)[1] > 0, variant
