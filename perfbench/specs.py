"""The benchmark's workloads: scenario and campaign specs built from one seed.

The backend, workload and traffic seeds of a workload derive from the
benchmark's ``--seed`` argument through :func:`derived_seeds`; the simulator
receives only the generated specs.  The model seed is the same for every
``--seed``: it draws the scaled model's *structure* (per-table pooling
factors, row sizes), so varying it would change the work a query does and
with it every wall-clock metric, by far more than the metrics' bounds.  Why
each workload exists, and which layers it loads or bypasses, is recorded in
``layers.json`` beside this file.
"""

from __future__ import annotations

import random
from typing import Dict

from repro import CampaignSpec, ScenarioSpec
from repro.api.spec import (
    BackendChoice,
    ModelChoice,
    ServingChoice,
    TrafficSpec,
    WorkloadChoice,
)
from repro.sim.units import KIB, MIB

SERVE_WORKLOADS = ("serve-warm", "serve-cold", "serve-tiered")
WORKLOADS = SERVE_WORKLOADS + ("campaign-grid",)


#: Seed of every benchmark model (see the module docstring for why it is fixed).
MODEL_SEED = 0


def derived_seeds(seed: int) -> Dict[str, int]:
    """Independent backend/workload/traffic seeds from one seed."""
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in ("backend", "workload", "traffic")}


def serve_spec(workload: str, seed: int) -> ScenarioSpec:
    """The :class:`ScenarioSpec` one pass of a serve workload runs."""
    seeds = derived_seeds(seed)
    if workload == "serve-warm":
        # Open loop below saturation; the row cache (64 MiB) holds the whole
        # SM footprint, so misses are compulsory and nothing is evicted.
        return ScenarioSpec(
            name=workload,
            model=ModelChoice(
                max_tables_per_group=8,
                max_rows_per_table=1024,
                item_batch=8,
                seed=MODEL_SEED,
            ),
            backend=BackendChoice(
                name="sdm",
                options={"row_cache_capacity_bytes": 64 * MIB, "seed": seeds["backend"]},
            ),
            workload=WorkloadChoice(num_queries=300, num_users=200, seed=seeds["workload"]),
            traffic=TrafficSpec(
                mode="open", offered_qps=1000.0, queue_depth=64, seed=seeds["traffic"]
            ),
            serving=ServingChoice(concurrency=2, warmup_queries=40),
        )
    if workload == "serve-cold":
        # No user reuse and a row cache far below the working set: nearly
        # every lookup misses to the devices; the pooled cache is off.
        return ScenarioSpec(
            name=workload,
            model=ModelChoice(
                max_tables_per_group=8,
                max_rows_per_table=8192,
                item_batch=1,
                seed=MODEL_SEED,
            ),
            backend=BackendChoice(
                name="sdm",
                options={
                    "row_cache_capacity_bytes": 64 * KIB,
                    "pooled_cache_enabled": False,
                    "seed": seeds["backend"],
                },
            ),
            workload=WorkloadChoice(
                num_queries=160,
                num_users=1_000_000,
                user_reuse_probability=0.0,
                seed=seeds["workload"],
            ),
            traffic=TrafficSpec(
                mode="open", offered_qps=100.0, queue_depth=64, seed=seeds["traffic"]
            ),
            serving=ServingChoice(concurrency=2, warmup_queries=0),
        )
    if workload == "serve-tiered":
        # DRAM cache -> CXL tier with its own cache -> NAND, promoting into
        # every cache above the home tier; closed loop.
        return ScenarioSpec(
            name=workload,
            model=ModelChoice(
                max_tables_per_group=8,
                max_rows_per_table=8192,
                item_batch=4,
                seed=MODEL_SEED,
            ),
            backend=BackendChoice(
                name="tiered",
                options={
                    "tiers": "dram:0:512KiB,cxl:4MiB:2MiB,nand:1GiB",
                    "promotion": "all",
                    "seed": seeds["backend"],
                },
            ),
            workload=WorkloadChoice(num_queries=200, num_users=2000, seed=seeds["workload"]),
            traffic=TrafficSpec(mode="closed"),
            serving=ServingChoice(concurrency=2, warmup_queries=20),
        )
    raise ValueError(f"unknown serve workload {workload!r}; known: {list(SERVE_WORKLOADS)}")


def campaign_spec(seed: int) -> CampaignSpec:
    """The 16-point campaign-grid: 4 backends (row cache x model seed), each
    shared by 4 traffic points."""
    seeds = derived_seeds(seed)
    base = ScenarioSpec(
        name="campaign-grid",
        model=ModelChoice(max_tables_per_group=4, max_rows_per_table=4096, item_batch=2),
        backend=BackendChoice(name="sdm", options={"seed": seeds["backend"]}),
        workload=WorkloadChoice(num_queries=40, num_users=100, seed=seeds["workload"]),
        traffic=TrafficSpec(mode="open", offered_qps=500.0, seed=seeds["traffic"]),
        serving=ServingChoice(concurrency=2, warmup_queries=10),
    )
    return CampaignSpec.from_grid(
        base,
        {
            "model.seed": [MODEL_SEED, MODEL_SEED + 1],
            "backend.options.row_cache_capacity_bytes": [256 * KIB, 4 * MIB],
            "traffic.offered_qps": [250.0, 500.0, 1000.0, 2000.0],
        },
        name="campaign-grid",
    )
