"""Which public calls the traced run wraps, and how spans become layer metrics.

``install`` wraps the program's public functions at each layer boundary
(trace tier, batch backend, reference core, executor, runner, store,
leases, surrogate, client). Worker processes forked after ``install``
inherit the wrappers. ``layer_metrics`` turns the recorded spans and
counts into the per-layer numbers ``run.py`` reports.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from typing import Dict, List

from spans import Patcher, Recorder, self_times
from specs import GROUPED_PREDICTORS

#: span name -> per-layer metric that sums its self time
SELF_TIME_METRICS = {
    "trace.build": "trace.build_s",
    "trace.compile": "trace.compile_s",
    "trace.load": "trace.load_s",
    "batch.prep": "batch.prep_s",
    "batch.cell": "batch.cell_s",
    "reference.build_pipeline": "reference.build_pipeline_s",
    "reference.cell": "reference.cell_s",
    "runner.run": "runner.self_s",
    "store.contains": "store.contains_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "store.manifest": "store.manifest_s",
    "lease.acquire": "lease.acquire_s",
    "lease.release": "lease.release_s",
}

COUNT_METRICS = (
    "trace.precompiled",
    "trace.rebuilds",
    "batch.fallback_cells",
    "executor.jobs",
    "executor.retries",
    "executor.failures",
    "store.degraded_writes",
    "lease.acquires",
    "lease.takeovers",
)

#: per-call medians of span durations
ROUND_TRIP_METRICS = {
    "http.submit": "http.submit_s",
    "http.status": "http.status_s",
    "surrogate.predict": "surrogate.predict_s",
}

PER_PREDICTOR = tuple(f"batch.cell_s.{name}" for name in GROUPED_PREDICTORS)


def install(recorder: Recorder) -> Patcher:
    """Wrap every layer boundary; returns the patcher that undoes it."""
    import repro.cli  # noqa: F401 — the CLI imports the sweep stack
    from repro.client import SweepClient
    from repro.harness.executor import ProcessCellExecutor
    from repro.harness.leases import LeaseStore
    from repro.harness.store import ResultStore
    from repro.harness.sweep import SweepRunner
    from repro.isa.artifacts import TraceStore
    from repro.sim import simulator
    from repro.sim.backends import batch, engine, reference
    from repro.surrogate.triage import SurrogateTier
    from repro.workloads import generator

    count = recorder.count

    def on_batch(record, args, kwargs, result) -> None:
        backend = args[0]
        specs = list(args[1] if len(args) > 1 else kwargs["specs"])
        if specs:
            record["attrs"] = {"predictor": str(specs[0].predictor)}
        count("batch.fallback_cells", sum(not backend.covers(spec) for spec in specs))

    def on_batch_one(record, args, kwargs, result) -> None:
        backend, spec = args[0], args[1]
        record["attrs"] = {"predictor": str(spec.predictor)}
        count("batch.fallback_cells", 0 if backend.covers(spec) else 1)

    def on_executor(record, args, kwargs, outcomes) -> None:
        # Jobs a worker ran; cells the store already held settle without one.
        count("executor.jobs", sum(not o.cached for o in outcomes))
        count("executor.retries", sum(max(0, o.attempts - 1) for o in outcomes))
        count("executor.failures", sum(1 for o in outcomes if o.failure is not None))

    def on_runner(record, args, kwargs, report) -> None:
        count("trace.precompiled", report.precompiled)
        count("trace.rebuilds", report.trace_rebuilds or 0)
        count("store.degraded_writes", report.degraded_writes)

    def on_get(record, args, kwargs, result) -> None:
        count("store.gets")
        count("store.hits", result is not None)

    def on_acquire(record, args, kwargs, acquired) -> None:
        count("lease.acquires", bool(acquired))

    def on_reclaim(record, args, kwargs, reclaimed) -> None:
        count("lease.takeovers", bool(reclaimed))

    patch = Patcher(recorder)
    patch.function(generator, "build_trace", "trace.build")
    patch.method(TraceStore, "compile", "trace.compile")
    patch.method(TraceStore, "load", "trace.load")
    patch.function(simulator, "get_trace", "trace.get")
    patch.method(engine.TracePrep, "__init__", "batch.prep")
    patch.method(batch.BatchBackend, "run_many", "batch.cell", on_batch)
    patch.method(batch.BatchBackend, "run", "batch.cell", on_batch_one)
    patch.function(reference, "execute_reference", "reference.cell")
    patch.function(simulator, "build_pipeline", "reference.build_pipeline")
    patch.method(ProcessCellExecutor, "run_many", "executor.run_many", on_executor)
    patch.method(SweepRunner, "run", "runner.run", on_runner)
    patch.method(ResultStore, "contains", "store.contains")
    patch.method(ResultStore, "get", "store.get", on_get)
    patch.method(ResultStore, "put", "store.put")
    patch.method(ResultStore, "write_manifest", "store.manifest")
    patch.method(LeaseStore, "acquire", "lease.acquire", on_acquire)
    patch.method(LeaseStore, "_reclaim", "lease.reclaim", on_reclaim)
    patch.method(LeaseStore, "release", "lease.release")
    patch.method(SurrogateTier, "predict_all", "surrogate.predict")
    patch.method(SweepClient, "submit_spec", "http.submit")
    patch.method(SweepClient, "submit_grid", "http.submit")
    patch.method(SweepClient, "status", "http.status")
    return patch


def layer_metrics(spans: List[dict], counts: Counter, operations: int) -> Dict[str, float]:
    """Per-layer numbers from one traced phase.

    ``*_s`` self times are seconds per operation (the phase total over
    every process, divided by ``operations``); counts are per operation
    too; round trips are per-call medians.
    """
    ops = max(1, operations)
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    per_call: Dict[str, List[float]] = defaultdict(list)
    children: Dict[str, set] = defaultdict(set)
    for record in spans:
        if record["parent"] is not None:
            children[record["parent"]].add(record["name"])
    lookups = hits = 0
    for record in spans:
        name = record["name"]
        metric = SELF_TIME_METRICS.get(name)
        if metric is not None:
            totals[metric] += selfs[record["id"]]
        if name == "batch.cell":
            predictor = record.get("attrs", {}).get("predictor")
            totals[f"batch.cell_s.{predictor}"] += selfs[record["id"]]
        if name in ROUND_TRIP_METRICS:
            per_call[ROUND_TRIP_METRICS[name]].append(
                (record["end"] - record["start"]) / 1e9
            )
        if name == "trace.get":
            lookups += 1
            hits += not (children[record["id"]] & {"trace.load", "trace.build"})
    metrics: Dict[str, float] = {
        metric: totals.get(metric, 0.0) / ops for metric in SELF_TIME_METRICS.values()
    }
    metrics.update({name: totals.get(name, 0.0) / ops for name in PER_PREDICTOR})
    metrics.update({name: counts.get(name, 0) / ops for name in COUNT_METRICS})
    metrics.update(
        {
            metric: statistics.median(per_call[metric]) if per_call[metric] else 0.0
            for metric in ROUND_TRIP_METRICS.values()
        }
    )
    metrics["trace.lru_hit_ratio"] = hits / lookups if lookups else 0.0
    gets = counts.get("store.gets", 0)
    metrics["store.hit_ratio"] = counts.get("store.hits", 0) / gets if gets else 0.0
    return metrics
