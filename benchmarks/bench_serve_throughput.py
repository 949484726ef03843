"""Serve-core throughput: wall-clock offered queries/sec of the SDM serve path.

Not a paper table — this times the array-native serve core: whole batches
of embedding-row lookups flow through the tier chain as NumPy arrays (one
cache probe and one grouped device read per tier).  One open-loop query
stream is served on a small model whose wide user table makes every request
a long row batch.  Each timed pass first returns the backend to its
as-constructed state (``restore_pristine``) and replays the stream once,
untimed, to warm the caches; it then times a second replay.  Every pass
therefore simulates the identical outcome, which the bench checks.

Throughput counts *offered* queries: in the cold regime most queries are
shed by the admission queue, yet they still cost wall time.  It is reported
raw and in *reference seconds* — wall time rescaled by the fixed kernel of
``perfbench/calibration.py``, timed around each pass, so runs on a busy and
an idle machine compare.  The simulated outcome (served and dropped queries,
simulated QPS) is reported beside every wall number, so a speed-up cannot
hide a change to the model.

Run standalone to write the measurement as JSON::

    python benchmarks/bench_serve_throughput.py --out runs/serve_throughput.json

``--cold`` switches to a miss-heavy regime: the row cache is shrunk far
below the working set, so nearly every lookup falls through to the
simulated devices and the measurement exercises the batched storage-IO
path (``IOEngine.submit_row_reads_batch`` + grouped device scheduling)
rather than cache hits.

``--snapshot BENCH_serve_throughput.json`` checks the run against the
committed snapshot of its regime: the simulated outcome must equal it
exactly, and the median reference-second QPS must reach
``MIN_QPS_FRACTION`` (0.5) of the snapshot's.  The ``perf-smoke``
CI job runs both regimes this way.

``--trace-overhead`` switches to the tracing-overhead comparison instead:
the serve core timed with a live :class:`ChromeTraceRecorder` attached
(engine + SDM backend) versus untraced.  The ``obs-smoke`` CI job gates the
relative slowdown with ``--max-trace-overhead`` and the simulated outcome
must be identical either way — tracing observes, never perturbs.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from calibration import REFERENCE_SECONDS, calibration_seconds  # noqa: E402

from repro import format_table  # noqa: E402
from repro.core import SDMConfig, SoftwareDefinedMemory  # noqa: E402
from repro.dlrm import (  # noqa: E402
    DLRMModel,
    EmbeddingTable,
    EmbeddingTableSpec,
    MLP,
)
from repro.dlrm.inference import ComputeSpec, InferenceEngine  # noqa: E402
from repro.obs.trace import NULL_RECORDER, ChromeTraceRecorder  # noqa: E402
from repro.serving.engine import ServingEngine  # noqa: E402
from repro.sim.units import KIB, MIB  # noqa: E402
from repro.workload import (  # noqa: E402
    QueryGenerator,
    WorkloadConfig,
    generate_arrival_times,
)

SNAPSHOT = ROOT / "BENCH_serve_throughput.json"
# perf-smoke floor: median reference-second QPS against the snapshot's.
MIN_QPS_FRACTION = 0.5

# One wide user table so each query gathers a long row batch: the regime
# the array-native serve core targets (O(1) array operations per batch).
NUM_ROWS = 16_384
DIM = 64
POOLING = 1536.0
NUM_QUERIES = 200
OFFERED_QPS = 5000.0
ROW_CACHE_BYTES = 64 * MIB
# --cold shrinks the row cache far below the ~1 MiB working set of the
# user table, so the timed passes are dominated by tier-chain misses and
# the batched storage-IO submission path instead of cache hits.
COLD_ROW_CACHE_BYTES = 64 * KIB


def _bench_model() -> DLRMModel:
    specs = [
        EmbeddingTableSpec(
            name="user_0",
            num_rows=NUM_ROWS,
            dim=DIM,
            is_user=True,
            avg_pooling_factor=POOLING,
            zipf_alpha=1.05,
        ),
        EmbeddingTableSpec(
            name="item_0",
            num_rows=NUM_ROWS,
            dim=DIM,
            is_user=False,
            avg_pooling_factor=3.0,
            zipf_alpha=1.2,
        ),
    ]
    tables = {spec.name: EmbeddingTable.random(spec, seed=0) for spec in specs}
    total_dim = sum(spec.dim for spec in specs)
    return DLRMModel(
        name="bench-serve-throughput",
        bottom_mlp=MLP([4, 16, 8], seed=0, name="bench/bottom"),
        top_mlp=MLP([8 + total_dim, 1], seed=0, name="bench/top"),
        tables=tables,
        dense_dim=4,
        item_batch=1,
    )


def _bench_serving(cold: bool = False) -> tuple:
    """A fresh SDM backend, its serving engine and the bench stream."""
    model = _bench_model()
    generator = QueryGenerator(
        model, WorkloadConfig(item_batch=1, num_users=300), seed=0
    )
    queries = generator.generate(NUM_QUERIES)
    arrivals = generate_arrival_times(
        NUM_QUERIES, process="poisson", offered_qps=OFFERED_QPS, seed=1
    )
    sdm = SoftwareDefinedMemory(
        model,
        SDMConfig(
            row_cache_capacity_bytes=COLD_ROW_CACHE_BYTES if cold else ROW_CACHE_BYTES,
            pooled_cache_enabled=False,
            num_devices=2,
            seed=0,
        ),
    )
    serving = ServingEngine(
        InferenceEngine(model, ComputeSpec(), sdm), concurrency=4, store_results=False
    )
    return sdm, serving, queries, arrivals


def _serve_passes(repeats: int, cold: bool = False) -> dict:
    """Time ``repeats`` passes of the serve path over the bench stream.

    Returns the median raw and reference-second offered QPS and the
    simulated outcome, which every pass must repeat exactly.
    """
    sdm, serving, queries, arrivals = _bench_serving(cold)
    wall_qps, reference_qps, outcomes = [], [], []
    kernel = calibration_seconds()
    for _ in range(repeats):
        sdm.restore_pristine()
        serving.run_open_loop(queries, arrivals, serve_batch=8)
        started = time.perf_counter()
        result = serving.run_open_loop(queries, arrivals, serve_batch=8)
        elapsed = time.perf_counter() - started
        previous, kernel = kernel, calibration_seconds()
        calibration = (previous + kernel) / 2
        wall_qps.append(NUM_QUERIES / elapsed)
        reference_qps.append(NUM_QUERIES / (elapsed * REFERENCE_SECONDS / calibration))
        outcomes.append(
            {
                "offered_queries": result.offered_queries,
                "served_queries": result.num_queries,
                "dropped_queries": result.dropped_queries,
                "simulated_qps": result.achieved_qps,
            }
        )
    if any(outcome != outcomes[0] for outcome in outcomes):
        raise AssertionError(f"passes diverged in simulated outcome: {outcomes}")
    return {
        "wall_qps": statistics.median(wall_qps),
        "reference_qps": statistics.median(reference_qps),
        "reference_qps_passes": reference_qps,
        "simulated": outcomes[0],
    }


def run_throughput(repeats: int = 3, cold: bool = False) -> dict:
    """Offered QPS of the serve path, warm or cold (miss-heavy) row cache."""
    measured = _serve_passes(repeats, cold=cold)
    return {
        "benchmark": (
            "bench_serve_throughput --cold" if cold else "bench_serve_throughput"
        ),
        "regime": "cold" if cold else "warm",
        "repeats": repeats,
        **measured,
    }


def run_tracing_overhead(repeats: int = 3) -> dict:
    """Time the serve core traced vs untraced over the same stream.

    Tracing attaches a live :class:`ChromeTraceRecorder` to both the serving
    engine and the SDM backend (the production wiring of
    ``telemetry.trace=True``), so the measured slowdown covers span emission
    at every layer: queue/serve, chain walk, storage IO, fetch/dequantise.
    """
    records = {}
    trace_events = 0
    for mode in ("untraced", "traced"):
        # A fresh SDM (and warm pass) per mode: the row cache warms a little
        # more on every replay, so sharing one backend would compare passes
        # at different cache ages and the simulated outcomes would diverge.
        sdm, serving, queries, arrivals = _bench_serving()
        serving.run_open_loop(queries, arrivals, serve_batch=8)
        best_qps = 0.0
        result = None
        for _ in range(repeats):
            if mode == "traced":
                # Fresh recorder per pass: each timed pass pays the full
                # span-emission cost, none amortises a warm event list.
                recorder = ChromeTraceRecorder()
            else:
                recorder = NULL_RECORDER
            serving.recorder = recorder
            sdm.set_trace_recorder(recorder)
            started = time.perf_counter()
            result = serving.run_open_loop(queries, arrivals, serve_batch=8)
            elapsed = time.perf_counter() - started
            best_qps = max(best_qps, result.num_queries / elapsed)
            if mode == "traced":
                trace_events = len(recorder)
        assert result is not None
        records[mode] = {
            "tracing": mode,
            "wall_qps": best_qps,
            "served_queries": result.num_queries,
            "simulated_qps": result.achieved_qps,
        }
    untraced, traced = records["untraced"], records["traced"]
    # Tracing must observe without perturbing: identical simulated outcome.
    if untraced["simulated_qps"] != traced["simulated_qps"] or (
        untraced["served_queries"] != traced["served_queries"]
    ):
        raise AssertionError(
            "tracing changed the simulated outcome: "
            f"{untraced} vs {traced}"
        )
    return {
        "benchmark": "bench_serve_throughput --trace-overhead",
        "num_queries": NUM_QUERIES,
        "untraced_qps": untraced["wall_qps"],
        "traced_qps": traced["wall_qps"],
        "trace_events": trace_events,
        "overhead": 1.0 - traced["wall_qps"] / untraced["wall_qps"],
        "records": list(records.values()),
    }


def check_snapshot(payload: dict, snapshot: dict) -> list:
    """Problems of ``payload`` against the committed snapshot of its regime."""
    expected = snapshot[payload["regime"]]
    problems = []
    if payload["simulated"] != expected["simulated"]:
        problems.append(
            f"simulated outcome {payload['simulated']} differs from the "
            f"snapshot's {expected['simulated']}"
        )
    floor = MIN_QPS_FRACTION * expected["reference_qps"]
    if payload["reference_qps"] < floor:
        problems.append(
            f"reference QPS {payload['reference_qps']:.1f} below "
            f"{MIN_QPS_FRACTION:g} x snapshot {expected['reference_qps']:.1f}"
        )
    return problems


def _overhead_table(payload: dict) -> str:
    rows = [
        [
            record["tracing"],
            round(record["wall_qps"], 1),
            record["served_queries"],
            round(record["simulated_qps"], 1),
        ]
        for record in payload["records"]
    ]
    rows.append(
        ["overhead", f"{payload['overhead'] * 100:.1f}%", "", ""]
    )
    return format_table(
        ["tracing", "wall-clock QPS", "served", "simulated QPS"],
        rows,
        title=(
            f"tracing overhead: serve core, "
            f"{payload['trace_events']} events per pass"
        ),
    )


def _table(payload: dict) -> str:
    simulated = payload["simulated"]
    rows = [
        [
            payload["regime"],
            round(payload["wall_qps"], 1),
            round(payload["reference_qps"], 1),
            simulated["offered_queries"],
            simulated["served_queries"],
            round(simulated["simulated_qps"], 1),
        ]
    ]
    return format_table(
        ["row cache", "wall QPS", "reference QPS", "offered", "served", "simulated QPS"],
        rows,
        title=f"serve-core throughput (median of {payload['repeats']} passes)",
    )


def bench_serve_throughput(benchmark):
    from _util import emit, run_once

    payload = run_once(benchmark, run_throughput, repeats=1)
    assert payload["simulated"] == json.loads(SNAPSHOT.read_text())["warm"]["simulated"]
    emit("serve-core throughput, warm row cache", _table(payload))


def bench_serve_throughput_cold(benchmark):
    from _util import emit, run_once

    payload = run_once(benchmark, run_throughput, repeats=1, cold=True)
    assert payload["simulated"] == json.loads(SNAPSHOT.read_text())["cold"]["simulated"]
    emit("serve-core throughput, cold row cache (storage-IO batching)", _table(payload))


def bench_tracing_overhead(benchmark):
    from _util import emit, run_once

    payload = run_once(benchmark, run_tracing_overhead, repeats=1)
    # run_tracing_overhead already asserts identical simulated outcomes;
    # the wall-clock gate itself lives in the obs-smoke CI job.
    assert payload["trace_events"] > 0
    emit("tracing overhead (repro.obs on the serve core)", _overhead_table(payload))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="FILE", help="write the measurement as JSON")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed passes (the median is kept)"
    )
    parser.add_argument(
        "--cold",
        action="store_true",
        help=(
            "run the miss-heavy regime (tiny row cache) so the batched "
            "storage-IO path dominates the measurement"
        ),
    )
    parser.add_argument(
        "--snapshot",
        metavar="FILE",
        help=(
            "exit non-zero unless the simulated outcome equals this snapshot's "
            f"and reference QPS reaches {MIN_QPS_FRACTION:g}x its own"
        ),
    )
    parser.add_argument(
        "--trace-overhead",
        action="store_true",
        help="compare traced vs untraced serving instead",
    )
    parser.add_argument(
        "--max-trace-overhead",
        type=float,
        help=(
            "exit non-zero when the tracing slowdown (1 - traced/untraced QPS) "
            "exceeds this fraction (implies --trace-overhead)"
        ),
    )
    args = parser.parse_args()
    if args.trace_overhead or args.max_trace_overhead is not None:
        payload = run_tracing_overhead(repeats=args.repeats)
        print(_overhead_table(payload))
    else:
        payload = run_throughput(repeats=args.repeats, cold=args.cold)
        print(_table(payload))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2))
        print(f"wrote {out}", file=sys.stderr)
    if args.snapshot and "regime" in payload:
        snapshot = json.loads(Path(args.snapshot).read_text())
        problems = check_snapshot(payload, snapshot)
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
    if (
        args.max_trace_overhead is not None
        and payload["overhead"] > args.max_trace_overhead
    ):
        print(
            f"tracing overhead {payload['overhead'] * 100:.1f}% above the "
            f"--max-trace-overhead gate {args.max_trace_overhead * 100:.1f}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
