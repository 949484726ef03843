"""Per-layer tracing from outside the program: wrap public functions, time them.

The benchmark's traced run installs a :class:`LayerTracer`, which replaces
each public function named in :data:`WRAPPED` with a timing wrapper, runs the
workload, and puts every original object back.  Nothing under ``src/`` knows
it is being traced.

Each wrapped call is a span.  A span's *self* time is its wall time minus the
wall time of wrapped calls nested inside it, so self times of different
layers add up without double counting.  The tracer's own bookkeeping (work
counters, stack pushes) is charged to no layer: it shows up only in the
difference between the traced and the untraced run (``trace.overhead_frac``).

The tracer works in forked pool workers too: a worker inherits the installed
wrappers, and the ``runtime.point`` wrapper around ``run_point`` restarts the
tracer's records in each new process and dumps them to a JSON file after
every point, which :meth:`LayerTracer.merge_dumps` adds to the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``counter(span, result, args, kwargs, before)`` adds one call's work counts;
#: ``before`` is what the entry's ``before(args)`` hook returned, or ``None``.
Counter = Callable[["Span", Any, tuple, dict, Any], None]
Before = Callable[[tuple], Any]


class Span:
    """Aggregate of every call to one wrapped function."""

    __slots__ = ("calls", "total", "self_time", "work", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work: Dict[str, float] = {}
        self.durations: List[float] = []

    def add(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0.0) + amount

    def to_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "total": self.total,
            "self_time": self.self_time,
            "work": dict(self.work),
            "durations": list(self.durations),
        }

    def merge(self, data: Dict[str, Any]) -> None:
        self.calls += data["calls"]
        self.total += data["total"]
        self.self_time += data["self_time"]
        for key, amount in data["work"].items():
            self.add(key, amount)
        self.durations.extend(data["durations"])


# --------------------------------------------------------------- work counters
def _lookups(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    span.add("lookups", sum(len(indices) for indices in args[1].values()))


def _rows_arg(position: int) -> Counter:
    def count(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
        span.add("rows", len(args[position]))

    return count


def _generated(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    span.add(
        "lookups",
        sum(q.total_user_lookups() + q.total_item_lookups() for q in result),
    )


def _served_queries(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    span.add("queries", len(args[1]))


def _pooled_probe(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    if result is not None:
        span.add("hits", 1)


def _chain_batch(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    span.add("rows", len(args[3]))
    if result is not None:
        span.add("batched", 1)


def _cache_probe(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    span.add("rows", len(args[2]))
    span.add("hits", int(result[1].shape[0]))


def _cache_counts(args: tuple) -> Tuple[int, int]:
    stats = args[0].stats
    return stats.inserts, stats.evictions


def _cache_fill(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    inserts, evictions = _cache_counts(args)
    span.add("rows", len(args[2]))
    span.add("inserts", inserts - before[0])
    span.add("evictions", evictions - before[1])


def _io_batch(span: Span, result: Any, args: tuple, kwargs: dict, before: Any) -> None:
    span.add("ios", len(result))
    span.add("wait_s", float(np.sum(result.submit_time - args[2])))


#: Public functions the traced run wraps: (span name, "module:Owner.attr" or
#: "module:attr", work counter, hook run before the call).  Properties are
#: wrapped through their getter.
WRAPPED: Tuple[Tuple[str, str, Optional[Counter], Optional[Before]], ...] = (
    ("api.model", "repro.api.session:Session.model", None, None),
    ("api.backend", "repro.api.session:Session.backend", None, None),
    ("workload.generate", "repro.workload.generator:QueryGenerator.generate", _generated, None),
    ("serving.open", "repro.serving.engine:ServingEngine.run_open_loop", _served_queries, None),
    ("serving.closed", "repro.serving.engine:ServingEngine.run_closed_loop", _served_queries, None),
    ("dlrm.query", "repro.dlrm.inference:InferenceEngine.run_query", None, None),
    ("dlrm.item", "repro.dlrm.inference:InMemoryBackend.pooled_embeddings", _lookups, None),
    ("dlrm.score", "repro.dlrm.model:DLRMModel.score", None, None),
    ("core.sdm", "repro.core.sdm:SoftwareDefinedMemory.pooled_embeddings", _lookups, None),
    (
        "core.pooled_probe",
        "repro.core.pooled_cache:PooledEmbeddingCache.probe_batch",
        _pooled_probe,
        None,
    ),
    ("core.pooled_put", "repro.core.pooled_cache:PooledEmbeddingCache.put_batch", None, None),
    ("core.dequant", "repro.core.sdm:dequantize_rows", _rows_arg(0), None),
    ("hierarchy.chain", "repro.hierarchy.chain:TierChain.fetch_batch", _chain_batch, None),
    ("hierarchy.scalar", "repro.hierarchy.chain:TierChain.fetch_rows", None, None),
    ("hierarchy.tier", "repro.hierarchy.tier:DeviceTier.read_rows_batch", _rows_arg(2), None),
    ("cache.probe", "repro.cache.unified:UnifiedRowCache.probe_batch", _cache_probe, None),
    ("cache.fill", "repro.cache.unified:UnifiedRowCache.fill_batch", _cache_fill, _cache_counts),
    ("storage.io", "repro.storage.io_engine:IOEngine.submit_row_reads_batch", _io_batch, None),
    ("storage.schedule", "repro.storage.device:BatchReadScheduler.schedule", None, None),
    (
        "storage.gather",
        "repro.storage.device:SimulatedDevice.read_rows_ndarray",
        _rows_arg(1),
        None,
    ),
    ("runtime.store_put", "repro.runtime.store:ExperimentStore.put", None, None),
    ("runtime.store_register", "repro.runtime.store:ExperimentStore.register", None, None),
)

#: Wrapped only for campaign runs: the per-point entry point pool workers run.
POINT_TARGET = "repro.runtime.runtimes:run_point"


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _raw_attribute(owner: Any, attr: str) -> Any:
    """The attribute as stored on ``owner`` (a property, not its value)."""
    return vars(owner)[attr]


class LayerTracer:
    """Installs timing wrappers on :data:`WRAPPED` and aggregates their spans.

    Use as a context manager: on exit every patched attribute is restored to
    the exact original object, even when the traced workload raised.  With a
    ``dump_dir`` the campaign entry point :data:`POINT_TARGET` is wrapped too,
    so pool workers report their spans through files in that directory.
    """

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        self.spans: Dict[str, Span] = {}
        self.dump_dir = dump_dir
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._owner_pid = os.getpid()
        self._pid = self._owner_pid

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "LayerTracer":
        try:
            for name, target, counter, before in WRAPPED:
                self._patch(name, target, counter, before)
            if self.dump_dir is not None:
                self._patch("runtime.point", POINT_TARGET, None, None, worker_entry=True)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, name: str) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span()
        return span

    def root(self, name: str, function: Callable[[], Any]) -> Any:
        """Run ``function`` as a span of its own (a whole traced pass)."""
        return self._wrap(name, function, None, None)()

    # ------------------------------------------------------------- wrapping
    def _patch(
        self,
        name: str,
        target: str,
        counter: Optional[Counter],
        before: Optional[Before],
        worker_entry: bool = False,
    ) -> None:
        owner, attr = _resolve(target)
        original = _raw_attribute(owner, attr)
        if isinstance(original, property):
            wrapped: Any = property(self._wrap(name, original.fget, counter, before))
        else:
            wrapped = self._wrap(name, original, counter, before, worker_entry)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def _wrap(
        self,
        name: str,
        function: Callable[..., Any],
        counter: Optional[Counter],
        before: Optional[Before],
        worker_entry: bool = False,
    ) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter
        keep_durations = name in ("dlrm.query", "runtime.point")

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entered = clock()
            if worker_entry and os.getpid() != tracer._pid:
                # First point in a forked worker: drop the parent's records.
                tracer._pid = os.getpid()
                tracer.spans = {}
                tracer._stack.clear()
            state = before(args) if before is not None else None
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                span = tracer.span(name)
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[0]
                if keep_durations:
                    span.durations.append(elapsed)
            if counter is not None:
                counter(span, result, args, kwargs, state)
            if worker_entry and tracer._pid != tracer._owner_pid:
                tracer._dump()
            if stack:
                # The parent's self time excludes this call and its
                # bookkeeping: tracing overhead lands in no layer.
                stack[-1][0] += clock() - entered
            return result

        return wrapper

    # ------------------------------------------------------- worker reports
    def _dump(self) -> None:
        assert self.dump_dir is not None
        payload = {name: span.to_dict() for name, span in self.spans.items()}
        path = self.dump_dir / f"trace-{self._pid}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(json.dumps(payload))
        os.replace(temporary, path)

    def merge_dumps(self) -> None:
        """Add every worker's dumped spans to this tracer's."""
        assert self.dump_dir is not None
        for path in sorted(self.dump_dir.glob("trace-*.json")):
            for name, data in json.loads(path.read_text()).items():
                self.span(name).merge(data)


# ------------------------------------------------------------------ metrics
#: Every per-layer metric the traced run reports: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("api.model_build_s", "s", "lower"),
    ("api.backend_build_s", "s", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("workload.generate_ns_per_lookup", "ns", "lower"),
    ("serving.self_s", "s", "lower"),
    ("serving.ns_per_query", "ns", "lower"),
    ("dlrm.query.self_s", "s", "lower"),
    ("dlrm.query.host_us_p50", "us", "lower"),
    ("dlrm.query.host_us_p99", "us", "lower"),
    ("dlrm.query.samples", "count", "higher"),
    ("dlrm.item.self_s", "s", "lower"),
    ("dlrm.item.ns_per_lookup", "ns", "lower"),
    ("dlrm.score.self_s", "s", "lower"),
    ("dlrm.score.ns_per_item", "ns", "lower"),
    ("core.sdm.self_s", "s", "lower"),
    ("core.sdm.ns_per_lookup", "ns", "lower"),
    ("core.pooled_cache.self_s", "s", "lower"),
    ("core.pooled_cache.hit_ratio", "ratio", "higher"),
    ("core.dequant.self_s", "s", "lower"),
    ("core.dequant.ns_per_row", "ns", "lower"),
    ("hierarchy.chain.self_s", "s", "lower"),
    ("hierarchy.chain.ns_per_row", "ns", "lower"),
    ("hierarchy.chain.batched_ratio", "ratio", "higher"),
    ("hierarchy.chain.scalar_self_s", "s", "lower"),
    ("hierarchy.tier.self_s", "s", "lower"),
    ("hierarchy.tier.ns_per_row", "ns", "lower"),
    ("cache.probe.self_s", "s", "lower"),
    ("cache.probe.ns_per_row", "ns", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.fill.self_s", "s", "lower"),
    ("cache.fill.ns_per_row", "ns", "lower"),
    ("cache.fill.evictions_per_insert", "ratio", "lower"),
    ("storage.io.self_s", "s", "lower"),
    ("storage.io.ns_per_io", "ns", "lower"),
    ("storage.io.ios", "count", "lower"),
    ("storage.io.sim_wait_us_mean", "us", "lower"),
    ("storage.device.schedule_self_s", "s", "lower"),
    ("storage.device.schedule_ns_per_io", "ns", "lower"),
    ("storage.device.gather_self_s", "s", "lower"),
    ("storage.device.gather_ns_per_row", "ns", "lower"),
    ("runtime.first_point_s", "s", "lower"),
    ("runtime.point_s_p50", "s", "lower"),
    ("runtime.point_s_max", "s", "lower"),
    ("runtime.store_write_self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)


def _percentile(values: List[float], pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


def layer_metrics(
    spans: Dict[str, Span],
    runs: int,
    root: str,
    overhead_frac: float,
    first_point_s: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics from the spans of ``runs`` traced runs.

    Times and counts are per traced run; ratios and per-unit costs are over
    all of them.  ``root`` names the span that covers a whole run (the serve
    pass, or one campaign point), whose self time no layer accounts for.
    """
    empty = Span()

    def get(name: str) -> Span:
        return spans.get(name, empty)

    def self_s(*names: str) -> float:
        return sum(get(name).self_time for name in names) / runs

    def work(name: str, key: str) -> float:
        return get(name).work.get(key, 0.0)

    def ns_per(names: Tuple[str, ...], count: float) -> float:
        seconds = sum(get(name).self_time for name in names)
        return seconds / count * 1e9 if count else 0.0

    def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
        return numerator / denominator if denominator else default

    query = get("dlrm.query")
    durations = query.durations
    chain = get("hierarchy.chain")
    schedule = get("storage.schedule")
    ios = work("storage.io", "ios")
    serving = ("serving.open", "serving.closed")
    point = get("runtime.point").durations
    return {
        "api.model_build_s": self_s("api.model"),
        "api.backend_build_s": self_s("api.backend"),
        "workload.generate_s": self_s("workload.generate"),
        "workload.generate_ns_per_lookup": ns_per(
            ("workload.generate",), work("workload.generate", "lookups")
        ),
        "serving.self_s": self_s(*serving),
        "serving.ns_per_query": ns_per(
            serving, sum(work(name, "queries") for name in serving)
        ),
        "dlrm.query.self_s": self_s("dlrm.query"),
        "dlrm.query.host_us_p50": _percentile(durations, 50) * 1e6,
        "dlrm.query.host_us_p99": _percentile(durations, 99) * 1e6,
        "dlrm.query.samples": float(len(durations)),
        "dlrm.item.self_s": self_s("dlrm.item"),
        "dlrm.item.ns_per_lookup": ns_per(("dlrm.item",), work("dlrm.item", "lookups")),
        "dlrm.score.self_s": self_s("dlrm.score"),
        "dlrm.score.ns_per_item": ns_per(("dlrm.score",), get("dlrm.score").calls),
        "core.sdm.self_s": self_s("core.sdm"),
        "core.sdm.ns_per_lookup": ns_per(("core.sdm",), work("core.sdm", "lookups")),
        "core.pooled_cache.self_s": self_s("core.pooled_probe", "core.pooled_put"),
        "core.pooled_cache.hit_ratio": ratio(
            work("core.pooled_probe", "hits"), get("core.pooled_probe").calls
        ),
        "core.dequant.self_s": self_s("core.dequant"),
        "core.dequant.ns_per_row": ns_per(("core.dequant",), work("core.dequant", "rows")),
        "hierarchy.chain.self_s": self_s("hierarchy.chain"),
        "hierarchy.chain.ns_per_row": ns_per(
            ("hierarchy.chain",), work("hierarchy.chain", "rows")
        ),
        "hierarchy.chain.batched_ratio": ratio(
            work("hierarchy.chain", "batched"), chain.calls, default=1.0
        ),
        "hierarchy.chain.scalar_self_s": self_s("hierarchy.scalar"),
        "hierarchy.tier.self_s": self_s("hierarchy.tier"),
        "hierarchy.tier.ns_per_row": ns_per(("hierarchy.tier",), work("hierarchy.tier", "rows")),
        "cache.probe.self_s": self_s("cache.probe"),
        "cache.probe.ns_per_row": ns_per(("cache.probe",), work("cache.probe", "rows")),
        "cache.hit_ratio": ratio(work("cache.probe", "hits"), work("cache.probe", "rows")),
        "cache.fill.self_s": self_s("cache.fill"),
        "cache.fill.ns_per_row": ns_per(("cache.fill",), work("cache.fill", "rows")),
        "cache.fill.evictions_per_insert": ratio(
            work("cache.fill", "evictions"), work("cache.fill", "inserts")
        ),
        "storage.io.self_s": self_s("storage.io"),
        "storage.io.ns_per_io": ns_per(("storage.io",), ios),
        "storage.io.ios": ios / runs,
        "storage.io.sim_wait_us_mean": ratio(work("storage.io", "wait_s"), ios) * 1e6,
        "storage.device.schedule_self_s": self_s("storage.schedule"),
        "storage.device.schedule_ns_per_io": ns_per(("storage.schedule",), schedule.calls),
        "storage.device.gather_self_s": self_s("storage.gather"),
        "storage.device.gather_ns_per_row": ns_per(
            ("storage.gather",), work("storage.gather", "rows")
        ),
        "runtime.first_point_s": first_point_s,
        "runtime.point_s_p50": _percentile(point, 50),
        "runtime.point_s_max": max(point, default=0.0),
        "runtime.store_write_self_s": self_s("runtime.store_put", "runtime.store_register"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": ratio(get(root).self_time, get(root).total),
    }
