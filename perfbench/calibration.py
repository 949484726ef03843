"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine the host's speed drifts by tens of percent over minutes,
so raw wall-clock medians of separate runs disagree by more than any useful
regression bound.  The benchmark times :func:`calibration_seconds` before and
after every pass and reports its end-to-end metrics in *reference seconds*:
wall seconds scaled by ``REFERENCE_SECONDS / calibration``, i.e. as if the
kernel had taken exactly :data:`REFERENCE_SECONDS`.  Raw wall values are
printed beside them.

The kernel mixes what the simulator's serve path spends its time on:
NumPy fancy-index gathers from a block store, ``heapq`` scheduling and
dictionary counting.  It imports nothing from the simulator, so no change to
the program can move it.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Nominal kernel time: the scale the reported metrics are expressed in.
REFERENCE_SECONDS = 0.15

_ROUNDS = 600
_STORE_ROWS = 4096


def calibration_seconds() -> float:
    """Wall seconds of one run of the fixed reference kernel."""
    rng = np.random.default_rng(12345)
    store = rng.integers(0, 255, size=(_STORE_ROWS, 512), dtype=np.uint8)
    columns = np.arange(64)[None, :]
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        rows = rng.integers(0, _STORE_ROWS, size=256)
        store[rows[:, None], columns].sum()
        heap: list = []
        for position in range(200):
            heapq.heappush(heap, (float(position % 17), position))
        counts: dict = {}
        for row in rows.tolist():
            counts[row] = counts.get(row, 0) + 1
    return time.perf_counter() - started
