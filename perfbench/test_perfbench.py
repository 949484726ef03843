"""Tests of the benchmark itself: tracing leaves no trace, seeds matter.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import (  # noqa: E402
    PER_LAYER,
    POINT_TARGET,
    WRAPPED,
    LayerTracer,
    _raw_attribute,
    _resolve,
)
from run import END_TO_END, run_workload  # noqa: E402
from specs import WORKLOADS, campaign_spec, serve_spec  # noqa: E402


def _originals():
    targets = [target for _, target, _, _ in WRAPPED] + [POINT_TARGET]
    return {target: _raw_attribute(*_resolve(target)) for target in targets}


def test_traced_run_restores_every_wrapped_function_and_keeps_the_digest(tmp_path):
    before = _originals()
    measured = run_workload("serve-tiered", seed=3, seconds=0.0, trace=True)
    passes = measured["passes"]
    assert [run.traced for run in passes] == [False, True, False]
    assert {run.digest for run in passes} == {passes[0].digest}
    assert sum(run.failed for run in passes) == 0
    assert measured["values"]["hierarchy.chain.batched_ratio"] < 1.0

    with LayerTracer(dump_dir=tmp_path) as tracer:
        assert all(_raw_attribute(*_resolve(t)) is not f for t, f in before.items())
    assert tracer.spans == {}
    after = _originals()
    assert all(after[target] is original for target, original in before.items())


def test_tracer_restores_originals_when_the_workload_raises():
    before = _originals()
    with pytest.raises(RuntimeError), LayerTracer():
        raise RuntimeError("workload failed")
    after = _originals()
    assert all(after[target] is original for target, original in before.items())


def test_seed_changes_the_inputs():
    from repro import Session

    for workload in ("serve-warm", "serve-cold", "serve-tiered"):
        assert serve_spec(workload, 1) == serve_spec(workload, 1)
        assert serve_spec(workload, 1) != serve_spec(workload, 2)
    assert campaign_spec(1).to_dict() != campaign_spec(2).to_dict()

    def first_query(seed):
        query = Session(serve_spec("serve-warm", seed)).generator.generate_query()
        return query.user_indices, query.dense_features.tolist()

    assert first_query(1) == first_query(1)
    assert first_query(1) != first_query(2)


def test_benchmark_json_matches_the_code():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == list(
        PER_LAYER
    )
    layers = json.loads((HERE / "layers.json").read_text())
    assert sorted(layers["workloads"]) == sorted(WORKLOADS)
    wrapped = {target for _, target, _, _ in WRAPPED} | {POINT_TARGET}
    listed = {f for layer in layers["layers"].values() for f in layer["functions"]}
    assert listed == wrapped
    metrics = {m for layer in layers["layers"].values() for m in layer["metrics"]}
    assert metrics == {name for name, _, _ in PER_LAYER}


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
