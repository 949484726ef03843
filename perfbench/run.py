"""End-to-end benchmark of the SDM simulator, measured through its public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Workloads (``specs.py``; why each exists is in ``layers.json``):
``serve-warm``, ``serve-cold`` and ``serve-tiered`` run one
:class:`~repro.ScenarioSpec` per pass with ``Session.run()``;
``campaign-grid`` runs a 16-point :class:`~repro.CampaignSpec` with
``run_campaign`` on the process-pool runtime.  Every pass builds a fresh
session (or clears resident backends and uses a fresh store), so no
simulated-time state crosses a pass.

``--trace 0`` times passes for ``--seconds`` and reports the end-to-end
metrics, each the median over passes.  Times are in reference seconds (see
``calibration.py``: wall time rescaled by a fixed kernel timed around each
pass, which cancels the host's speed drift); the raw wall-clock medians are
printed as ``wall.*`` on the line before the result:

* ``host_qps`` -- queries in the stream (warmup and shed ones included) per
  wall second of ``Session.run()``; campaign: all points' queries per wall
  second of ``run_campaign``;
* ``points_per_s`` -- scenario points per wall second: one fresh session's
  setup and run, or the campaign's points over its wall time;
* ``setup_s`` -- ``Session.model`` + ``Session.backend`` +
  ``Session.queries()``; campaign: from the ``run_campaign`` call to the
  first completed point;
* ``peak_rss_mib`` -- peak resident memory of the process (campaign: and
  of its pool workers).

``--trace 1`` alternates untraced passes with passes traced by
:class:`layers.LayerTracer` and reports per-layer metrics.

Every pass is checked: served scores equal the ``dram`` backend's scores for
the same stream, served + dropped equals offered, and every pass (traced or
not) gives the same simulated-outcome digest.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it records the simulated outcome (``sim.*``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from calibration import REFERENCE_SECONDS, calibration_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for campaign stores and worker trace dumps; removed after use.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Pool size for campaign-grid: at most two workers, never more than the CPUs.
POOL_WORKERS = max(1, min(2, os.cpu_count() or 1))

#: The end-to-end metrics every untraced run reports: (name, unit, better).
END_TO_END = (
    ("host_qps", "1/s", "higher"),
    ("points_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def digest(payload: Any) -> str:
    """sha256 of a JSON-able simulated outcome, stable across processes."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def peak_rss_mib(children: bool = False) -> float:
    """Peak resident memory (MiB) of this process, or of it and its children."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


@dataclass
class Pass:
    """One measured pass: its wall times, operation counts and outcome."""

    setup_s: float
    run_s: float
    operations: int
    failed: int
    digest: str
    sim: Dict[str, Any]
    queries: int = 0
    traced: bool = False
    #: False when the pass raised: it counts as failed and is not timed.
    completed: bool = True
    #: Mean calibration-kernel time around the pass (``calibration.py``).
    calibration_s: float = 0.0
    errors: List[str] = field(default_factory=list)
    #: Served query id -> scores, held until checked against the reference.
    scores: Dict[int, Any] = field(default_factory=dict)


# ------------------------------------------------------------------ serving
def sim_summary(result: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated outcome of one scenario result dict, exact."""
    stats = result["backend_stats"]
    served = result["num_queries"]
    dropped = result["dropped_queries"]
    return {
        "sim.qps": result["achieved_qps"],
        "sim.p50_ms": result["latency_seconds"]["p50"] * 1e3,
        "sim.p99_ms": result["latency_seconds"]["p99"] * 1e3,
        "sim.drop_rate": dropped / (served + dropped),
        "sim.row_hit_rate": stats.get("row cache hit rate"),
        "sim.pooled_hit_rate": stats.get("pooled cache hit rate"),
        "sim.ios_per_query": stats.get("SM IOs per query"),
    }


def reference_scores(spec: Any) -> Dict[int, Any]:
    """Scores of every query of ``spec``'s stream, served by the ``dram``
    backend closed loop with no warmup (scores do not depend on timing)."""
    from repro import Session
    from repro.api.spec import BackendChoice, TrafficSpec

    reference = (
        spec.replace("backend", BackendChoice(name="dram"))
        .replace("traffic", TrafficSpec())
        .replace("serving.warmup_queries", 0)
    )
    result = Session(reference).run()
    return {query.query_id: query.scores for query in result.host_result.results}


def serve_pass(spec: Any) -> Pass:
    """Build a fresh session, time its setup and its run, check the outcome."""
    from repro import Session

    session = Session(spec)
    started = time.perf_counter()
    session.model
    session.backend
    stream = session.queries()
    built = time.perf_counter()
    result = session.run()
    finished = time.perf_counter()
    outcome = result.to_dict()
    offered = len(stream) - spec.serving.warmup_queries
    errors = []
    engine_offered = getattr(result.host_result, "offered_queries", offered)
    if result.num_queries + result.dropped_queries != offered or engine_offered != offered:
        errors.append(
            f"served {result.num_queries} + dropped {result.dropped_queries} "
            f"!= offered {offered} (engine counted {engine_offered})"
        )
    return Pass(
        setup_s=built - started,
        run_s=finished - built,
        operations=len(stream),
        failed=len(stream) if errors else 0,
        digest=digest(outcome),
        sim=sim_summary(outcome),
        queries=len(stream),
        errors=errors,
        scores={query.query_id: query.scores for query in result.host_result.results},
    )


#: Scores may differ from the reference only by float32 summation order: the
#: pooled embedding cache keys an index *multiset*, so a hit can return the
#: sum of the same rows added in another order (``sim.inexact_scores``
#: counts such queries).  Anything beyond this tolerance is a failure.
SCORE_RTOL = 1e-5
SCORE_ATOL = 1e-6


def check_scores(passes: List[Pass], reference: Dict[int, Any]) -> None:
    """Fail every served query whose scores differ from the reference."""
    import numpy as np

    for run in passes:
        wrong = inexact = 0
        for query_id, values in run.scores.items():
            expected = reference.get(query_id)
            if expected is None or not np.allclose(
                values, expected, rtol=SCORE_RTOL, atol=SCORE_ATOL
            ):
                wrong += 1
            elif not np.array_equal(values, expected):
                inexact += 1
        run.scores = {}
        run.sim["sim.inexact_scores"] = inexact
        if wrong:
            run.failed = max(run.failed, wrong)
            run.errors.append(f"{wrong} served queries differ from the dram scores")


# ----------------------------------------------------------------- campaign
def campaign_pass(campaign: Any, tracer: Any = None) -> Pass:
    """One campaign run on the pool runtime: no resident backends, a fresh
    store, and (traced) worker span dumps in the same scratch directory."""
    from repro import run_campaign
    from repro.runtime.runtimes import clear_backend_cache
    from repro.runtime.store import ExperimentStore

    clear_backend_cache()
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="campaign-", dir=TMP_ROOT))
    completed: List[float] = []

    def progress(outcome: Any, done: int, total: int) -> None:
        completed.append(time.perf_counter())

    def run() -> List[Any]:
        return run_campaign(
            campaign,
            runtime="pool",
            parallel=POOL_WORKERS,
            store=ExperimentStore(workdir / "store"),
            progress=progress,
        )

    try:
        started = time.perf_counter()
        if tracer is None:
            outcomes = run()
        else:
            tracer.dump_dir = workdir
            with tracer:
                outcomes = run()
            tracer.merge_dumps()
        finished = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    errors = []
    failed = 0
    results = []
    for point, outcome in zip(campaign.points(), outcomes):
        if outcome.result is None:
            failed += 1
            errors.append(f"point {point.index}: {outcome.error_type}: {outcome.error}")
            continue
        result = outcome.metrics
        offered = point.spec.workload.num_queries - point.spec.serving.warmup_queries
        if result["num_queries"] + result["dropped_queries"] != offered:
            failed += 1
            errors.append(f"point {point.index}: served + dropped != offered {offered}")
        results.append(result)
    sims = [sim_summary(result) for result in results]
    return Pass(
        setup_s=completed[0] - started,
        run_s=finished - started,
        operations=len(outcomes),
        failed=failed,
        digest=digest(results),
        # The campaign's simulated outcome: each sim.* averaged over points.
        sim={key: statistics.fmean(s[key] for s in sims) for key in sims[0]} if sims else {},
        queries=sum(point.spec.workload.num_queries for point in campaign.points()),
        traced=tracer is not None,
        errors=errors,
    )


def check_campaign(campaign: Any, passes: List[Pass]) -> None:
    """Pool results with backend reuse must equal fresh serial sessions."""
    from repro import Session

    expected = digest([Session(point.spec).run().to_dict() for point in campaign.points()])
    for run in passes:
        if run.digest != expected:
            run.failed = run.operations
            run.errors.append("campaign results differ from fresh serial sessions")


# ------------------------------------------------------------------ driving
def measure(
    one_pass: Callable[[bool], Pass], operations: int, seconds: float, trace: bool
) -> List[Pass]:
    """Run passes until ``seconds`` have elapsed.

    With ``trace`` the passes alternate untraced and traced, starting and
    ending untraced, so both kinds see the same machine state and the ratio
    of their wall times is the tracing overhead.  A pass that raises counts
    its ``operations`` as failed; the benchmark goes on.
    """
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    kernel = calibration_seconds()
    while True:
        # The previous pass's garbage is collected outside the timed region.
        gc.collect()
        traced = trace and len(passes) % 2 == 1
        try:
            passes.append(one_pass(traced))
        except Exception as error:  # noqa: BLE001 - a failed pass is counted, not fatal
            traceback.print_exc()
            passes.append(
                Pass(
                    setup_s=0.0,
                    run_s=0.0,
                    operations=operations,
                    failed=operations,
                    digest="",
                    sim={},
                    traced=traced,
                    completed=False,
                    errors=[f"pass raised {type(error).__name__}: {error}"],
                )
            )
        previous, kernel = kernel, calibration_seconds()
        passes[-1].calibration_s = (previous + kernel) / 2
        done = not trace or (len(passes) >= 3 and len(passes) % 2 == 1)
        if done and time.perf_counter() >= deadline:
            return passes


def check_digests(passes: List[Pass]) -> None:
    """Every pass, traced or not, must reach the first pass's outcome."""
    first = passes[0].digest
    for run in passes[1:]:
        if run.digest != first:
            run.failed = run.operations
            run.errors.append(f"sim.digest {run.digest[:12]} != first pass {first[:12]}")


def end_to_end(passes: List[Pass], serve: bool, rss: float) -> Dict[str, float]:
    """Medians over passes, in wall seconds.  A serve pass is one scenario
    point (setup and run); a campaign pass runs ``operations`` points in
    ``run_s``."""
    if serve:
        points = [1.0 / (run.setup_s + run.run_s) for run in passes]
    else:
        points = [run.operations / run.run_s for run in passes]
    return {
        "host_qps": statistics.median(run.queries / run.run_s for run in passes),
        "points_per_s": statistics.median(points),
        "setup_s": statistics.median(run.setup_s for run in passes),
        "peak_rss_mib": rss,
    }


def in_reference_seconds(passes: List[Pass]) -> List[Pass]:
    """The passes with every wall time rescaled to reference seconds."""
    return [
        dataclasses.replace(
            run,
            setup_s=run.setup_s * REFERENCE_SECONDS / run.calibration_s,
            run_s=run.run_s * REFERENCE_SECONDS / run.calibration_s,
        )
        for run in passes
    ]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload; returns the passes, the metric values and the
    simulated outcome."""
    from layers import LayerTracer, layer_metrics
    from specs import SERVE_WORKLOADS, WORKLOADS, campaign_spec, serve_spec

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    serve = workload in SERVE_WORKLOADS
    tracer = LayerTracer()
    first_point: List[float] = []
    if serve:
        spec = serve_spec(workload, seed)

        def one_pass(traced: bool) -> Pass:
            if not traced:
                return serve_pass(spec)
            with tracer:
                run = tracer.root("pass", lambda: serve_pass(spec))
            run.traced = True
            return run

    else:
        campaign = campaign_spec(seed)

        def one_pass(traced: bool) -> Pass:
            if not traced:
                return campaign_pass(campaign)
            run = campaign_pass(campaign, tracer)
            first_point.append(run.setup_s)
            return run

    operations = spec.workload.num_queries if serve else campaign.num_points()
    passes = measure(one_pass, operations, seconds, trace)
    rss = peak_rss_mib(children=not serve)
    completed = [run for run in passes if run.completed]
    traced = [run for run in completed if run.traced]
    if not completed or (trace and not traced):
        return {"passes": passes, "values": None, "wall": {}, "sim": {}}
    if serve:
        check_scores(completed, reference_scores(spec))
    else:
        check_campaign(campaign, completed)
    check_digests(completed)

    scaled = in_reference_seconds(completed)
    if trace:
        # The first pass of a process runs cold; it is left out of the base.
        untraced = [run for run in scaled if not run.traced][1:] or scaled[:1]
        overhead = (
            statistics.median(run.setup_s + run.run_s for run in scaled if run.traced)
            / statistics.median(run.setup_s + run.run_s for run in untraced)
            - 1.0
        )
        values = layer_metrics(
            tracer.spans,
            runs=len(traced),
            root="pass" if serve else "runtime.point",
            overhead_frac=overhead,
            first_point_s=statistics.median(first_point) if first_point else 0.0,
        )
        wall = {}
    else:
        values = end_to_end(scaled, serve, rss)
        wall = end_to_end(completed, serve, rss)
        wall["calibration_s"] = statistics.median(run.calibration_s for run in completed)
    return {
        "passes": passes,
        "values": values,
        "wall": wall,
        "sim": dict(completed[0].sim),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, help="workload seed (default: layers.json default_seed)"
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from layers import PER_LAYER

    if args.seed is None:
        args.seed = json.loads((HERE / "layers.json").read_text())["default_seed"]

    measured = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    passes: List[Pass] = measured["passes"]
    attempted = sum(run.operations for run in passes)
    failed = sum(run.failed for run in passes)
    for run in passes:
        for error in run.errors:
            print(f"check failed: {error}", file=sys.stderr)
    if measured["values"] is None:
        print("error: no pass completed; nothing to report", file=sys.stderr)
        return 1
    table = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in table}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": sum(run.traced for run in passes),
        "failed_frac": failed / attempted,
        "traced_run_s": statistics.median([run.run_s for run in passes if run.traced] or [0.0]),
        **{f"wall.{name}": value for name, value in measured["wall"].items()},
        **measured["sim"],
        "sim.digest": next(run.digest for run in passes if run.completed),
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": measured["values"][name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
