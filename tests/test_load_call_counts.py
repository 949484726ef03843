"""Loading SM tables makes O(1) Python calls per table, not O(rows).

A machine-independent performance gate: it counts calls, it does not time
them.  Building an SDM over a 1024-row table and over an 8192-row table
must make exactly the same calls from functions in ``repro.core``,
``repro.hierarchy`` and ``repro.storage`` (to any callee, builtins
included), for every kind of stored table: plain, pruned, depruned at
load, dequantised at load, and hotness-ranked across a row split.  Inputs
the build consumes (pruned tables, ranked placements) are prepared before
profiling starts.
"""

import cProfile
import pstats
from pathlib import Path

import numpy as np
import pytest

from repro.core import SoftwareDefinedMemory
from repro.dlrm.pruning import prune_table
from repro.hierarchy import compute_tiered_placement

from helpers import small_model, small_sdm_config

GATED_PACKAGES = tuple(
    str(Path("repro") / package) for package in ("core", "hierarchy", "storage")
)

VARIANTS = {
    "plain": {},
    "pruned": {"prune": True},
    "depruned": {"prune": True, "deprune_at_load": True},
    "dequantized": {"dequantize_at_load": True},
    "rank-ordered": {"rank": True, "tiers": "dram:2KiB,nand:1GiB"},
}


def _gated(filename):
    return any(package in filename for package in GATED_PACKAGES)


def _build_call_counts(num_rows: int, variant: str):
    """Calls made from gated functions while building one SDM, per callee
    ``(file, function)``."""
    options = dict(VARIANTS[variant])
    prune = options.pop("prune", False)
    rank = options.pop("rank", False)
    model = small_model(num_user=1, num_item=0, num_rows=num_rows)
    config = small_sdm_config(**options)
    pruned = {"user_0": prune_table(model.table("user_0"), 0.3, seed=1)} if prune else None
    placement = None
    if rank:
        placement = compute_tiered_placement(
            model.table_specs,
            config.resolved_tiers(),
            granularity="rows",
            row_hotness={"user_0": np.random.default_rng(0).permutation(num_rows)},
        )
    profiler = cProfile.Profile()
    profiler.enable()
    sdm = SoftwareDefinedMemory(model, config, placement=placement, pruned_tables=pruned)
    profiler.disable()
    assert sdm.sm_footprint_bytes() > 0, "the table must be stored below tier 0"
    assert (sdm._sm_tables["user_0"].rank_order is not None) == rank
    calls = {}
    for (filename, _, name), entry in pstats.Stats(profiler).stats.items():
        callers = entry[4]
        made = sum(
            counts[1]
            for (caller_file, _, _), counts in callers.items()
            if _gated(caller_file)
        )
        if made:
            calls[(filename.rpartition("repro")[2], name)] = made
    return calls


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_load_call_counts_do_not_grow_with_the_row_count(variant):
    small, large = _build_call_counts(1024, variant), _build_call_counts(8192, variant)
    assert small, "no calls recorded in the gated packages"
    assert small == large
