"""The serve path makes O(1) Python calls per request, not O(rows).

A machine-independent performance gate: it counts calls, it does not time
them.  Serving one embedding-table request of 128 distinct rows and one of
1024 distinct rows must make exactly the same calls from functions in
``repro.core``, ``repro.hierarchy`` and ``repro.cache`` (to any callee,
builtins included), both cold (every row misses to the devices and is
filled into the row cache) and warm (every row hits).  Both sizes exceed
every initial capacity of the row cache's arrays, so each cold fill grows
them exactly once (amortised doubling: a constant number of calls per
batch).  The row-ordered hazard walk ``TierChain.fetch_rows`` must never
run on this path.  The storage layer's IO queue-depth gating is still a
per-request replay and is out of the gate's scope.
"""

import cProfile
import pstats
from pathlib import Path

import pytest

from repro.core import SoftwareDefinedMemory

from helpers import small_model, small_sdm_config

GATED_PACKAGES = tuple(
    str(Path("repro") / package) for package in ("core", "hierarchy", "cache")
)


def _gated(filename):
    return any(package in filename for package in GATED_PACKAGES)


def _serve_call_counts(num_rows: int, warm: bool):
    """Calls made from gated functions while serving one request, per
    callee ``(file, function)``."""
    model = small_model(num_user=1, num_item=0, num_rows=4096)
    sdm = SoftwareDefinedMemory(
        model, small_sdm_config(pooled_cache_enabled=False, num_devices=1)
    )
    request = {"user_0": list(range(0, 4 * num_rows, 4))}
    if warm:
        sdm.pooled_embeddings(request, 0.0)
    profiler = cProfile.Profile()
    profiler.enable()
    sdm.pooled_embeddings(request, 1.0)
    profiler.disable()
    assert sdm.row_cache.stats.hits == (num_rows if warm else 0)
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


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_serve_call_counts_do_not_grow_with_the_row_count(warm):
    small, large = _serve_call_counts(128, warm), _serve_call_counts(1024, warm)
    assert small, "no calls recorded in the gated packages"
    assert small == large
    assert not any(name == "fetch_rows" for _, name in small)
