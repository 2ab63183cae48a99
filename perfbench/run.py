"""End-to-end sweep and serving benchmark for the PHAST reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-grouped --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer breakdown plus the tracing overhead. Both check every result the
program makes durable against the committed reference digests. The last
line of standard output is one JSON object; the lines before it are the
same numbers as a table. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
import workloads  # noqa: E402
from golden import GOLDEN_PATH, load_golden  # noqa: E402
from workloads import (  # noqa: E402
    PROBES_PER_SWEEP,
    SETUP_REPEATS,
    Context,
    ServeWorkload,
    SweepWorkload,
    job_overhead_seconds,
    median,
    merge_phases,
    peak_rss_mb,
)

WORKLOADS = ("sweep-grouped", "sweep-solo", "resweep-cached", "serve-mixed")

#: Every workload reports these, untraced. ``job_s.p50`` is one sweep on
#: the sweep workloads and one new-cell job on serve-mixed.
END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "cells_per_s": "1/s",
    "sim_uops_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_LAYER_SECONDS = (
    "import.repro_s", "cli.startup_s",
    "trace.build_s", "trace.compile_s", "trace.load_s",
    "batch.prep_s", "batch.cell_s",
    *(f"batch.cell_s.{name}" for name in specs.GROUPED_PREDICTORS),
    "reference.build_pipeline_s", "reference.cell_s",
    "executor.job_overhead_s", "runner.self_s",
    "store.contains_s", "store.get_s", "store.put_s", "store.manifest_s",
    "lease.acquire_s", "lease.release_s",
    "http.submit_s", "http.status_s", "job.queue_wait_s", "job.run_s",
    "surrogate.train_s", "surrogate.predict_s",
)
_LAYER_COUNTS = (
    "trace.precompiled", "trace.rebuilds", "batch.fallback_cells",
    "executor.jobs", "executor.retries", "executor.failures",
    "store.degraded_writes", "lease.acquires", "lease.takeovers",
)
_LAYER_RATIOS = ("trace.lru_hit_ratio", "store.hit_ratio", "server.dedupe_ratio")

#: The traced run reports these (0 where a layer does not take part).
PER_LAYER: Dict[str, str] = {
    **{name: "s" for name in _LAYER_SECONDS},
    **{name: "count" for name in _LAYER_COUNTS},
    **{name: "ratio" for name in _LAYER_RATIOS},
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items()},
}

#: Printed for serve-mixed only, not gated: its other request latencies.
SERVE_ONLY = {"job_s.p90": "s", "cached_job_s.p50": "s", "predict_s.p50": "s"}


def make_workload(name: str, ctx: Context):
    if name == "sweep-grouped":
        return SweepWorkload(ctx, lambda op: specs.grouped_plan(ctx.seed, op))
    if name == "sweep-solo":
        return SweepWorkload(ctx, lambda op: specs.solo_plan(ctx.seed, op))
    if name == "resweep-cached":
        plan, missing = specs.resweep_plan(ctx.seed)
        return SweepWorkload(ctx, lambda op: plan, missing)
    return ServeWorkload(ctx)


# ---------------------------------------------------------------- untraced --


def run_untraced(workload, seconds: float) -> Dict[str, float]:
    cold = isinstance(workload, SweepWorkload) and workload.cold
    setups = [] if cold else [workload.setup() for _ in range(SETUP_REPEATS)]
    if isinstance(workload, ServeWorkload):
        phase = workload.phase(seconds)
        metrics = workload.end_to_end(setups, phase)
        samples = {"job_s": len(phase.job_s), "cached_job_s": len(phase.cached_job_s),
                   "predict_s": len(phase.predict_s)}
    else:
        ops = []
        busy = 0.0  # the probes between sweeps do not count against the run
        while not ops or busy < seconds:
            if cold:
                setups += [workload.setup() for _ in range(PROBES_PER_SWEEP)]
            start = time.perf_counter()
            ops.append(workload.operation(len(ops)))
            busy += time.perf_counter() - start
        metrics = workload.end_to_end(setups, ops)
        samples = {"setup_s": len(setups), "sweep_s": len(ops)}
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["samples"] = samples
    return metrics


# ------------------------------------------------------------------ traced --


def _span_dir(ctx: Context, name: str) -> Path:
    return ctx.fresh_dir(f"spans-{name}")


def _import_and_startup(spans: List[dict], starts: Dict[str, int]) -> Dict[str, float]:
    """``import.repro_s`` and ``cli.startup_s`` from traced CLI processes.

    Start-up runs from the benchmark launching the CLI process until the
    CLI enters ``SweepRunner.run``; both ends read the same host clock.
    """
    imports = [(r["end"] - r["start"]) / 1e9 for r in spans if r["name"] == "import.repro"]
    startups = [
        (r["start"] - starts[r["op"]]) / 1e9
        for r in spans
        if r["name"] == "runner.run" and r["parent"] is None and r["op"] in starts
    ]
    return {"import.repro_s": median(imports), "cli.startup_s": median(startups)}


def run_traced_sweep(workload: SweepWorkload, ctx: Context, seconds: float) -> Dict[str, float]:
    import tracing
    from spans import read_spans

    untraced_setup = workload.setup()
    setup_dir = _span_dir(ctx, "setup")
    traced_setup = workload.setup(trace_dir=setup_dir)
    plain, traced, starts = [], [], {}
    all_spans, counts = [], Counter()
    start = time.perf_counter()
    index = 0
    while not plain or not traced or time.perf_counter() - start < seconds:
        if index % 2 == 0:
            plain.append(workload.operation(index))
        else:
            span_dir = _span_dir(ctx, f"op-{index}")
            op = workload.operation(index, trace_dir=span_dir)
            traced.append(op)
            starts[str(index)] = op.start_ns
            spans, op_counts = read_spans(span_dir)
            all_spans += spans
            counts.update(op_counts)
        index += 1
    layers = tracing.layer_metrics(all_spans, counts, len(traced))
    setup_spans, _ = read_spans(setup_dir)
    layers.update(_import_and_startup(all_spans + setup_spans, starts))
    layers["executor.job_overhead_s"] = job_overhead_seconds()
    before = workload.end_to_end([untraced_setup], plain)
    after = workload.end_to_end([traced_setup], traced)
    # As end to end: this process plus its largest child, on each side.
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    before["peak_rss_mb"] = (own_kb + max(op.rss_kb for op in plain)) / 1024.0
    after["peak_rss_mb"] = (own_kb + max(op.rss_kb for op in traced)) / 1024.0
    layers.update(
        {f"overhead.{name}": after[name] - before[name] for name in END_TO_END}
    )
    layers["samples"] = {"traced_sweeps": len(traced), "untraced_sweeps": len(plain)}
    return layers


def run_traced_serve(workload: ServeWorkload, ctx: Context, seconds: float) -> Dict[str, float]:
    """Quarters of the closed loop alternate untraced and traced."""
    import tracing
    from spans import Recorder, read_spans

    untraced_setup = workload.setup()
    setup_dir = _span_dir(ctx, "setup")
    traced_setup = workload.setup(trace_dir=setup_dir)
    train_s = workload.train_s
    serve_dir = _span_dir(ctx, "serve")
    recorder = Recorder(serve_dir)
    plain, traced, rss = [], [], []
    for quarter in range(4):
        if quarter % 2 == 0:
            plain.append(workload.phase(seconds / 4))
        else:
            patch = tracing.install(recorder)
            workload.recorder = recorder
            try:
                traced.append(workload.phase(seconds / 4))
            finally:
                patch.restore()
                workload.recorder = None
        rss.append(peak_rss_mb())
    recorder.flush()
    phase = merge_phases(traced)
    before = workload.end_to_end([untraced_setup], merge_phases(plain))
    after = workload.end_to_end([traced_setup], phase)
    # Peak RSS only grows: compare its growth over the first traced quarter.
    before["peak_rss_mb"], after["peak_rss_mb"] = rss[0], rss[1]
    spans, counts = read_spans(serve_dir)
    layers = tracing.layer_metrics(spans, counts, phase.requests)
    setup_spans, _ = read_spans(setup_dir)
    layers.update(_import_and_startup(setup_spans, {"setup": workload.train_start_ns}))
    layers["executor.job_overhead_s"] = job_overhead_seconds()
    layers["job.queue_wait_s"] = median(phase.queue_wait_s)
    layers["job.run_s"] = median(phase.run_s)
    layers["server.dedupe_ratio"] = (
        phase.cached_cells / phase.submitted_cells if phase.submitted_cells else 0.0
    )
    layers["surrogate.train_s"] = train_s
    layers.update(
        {f"overhead.{name}": after[name] - before[name] for name in END_TO_END}
    )
    layers["samples"] = {"traced_requests": phase.requests,
                         "untraced_requests": sum(p.requests for p in plain)}
    return layers


# -------------------------------------------------------------------- main --


def _watchdog(signum, frame) -> None:
    """Stop every child and give up before the 180 s limit."""
    for group in list(workloads.LIVE_GROUPS):
        try:
            os.killpg(group, signal.SIGKILL)
        except OSError:
            pass
    for child in multiprocessing.active_children():
        child.kill()
        child.join(5)
    print("perfbench: run exceeded its time limit", file=sys.stderr)
    os._exit(3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="PHAST end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if not GOLDEN_PATH.is_file():
        print(f"perfbench: missing {GOLDEN_PATH}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(170)

    work = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(root=root, work=work, golden=load_golden(), seed=args.seed)
    workload = make_workload(args.workload, ctx)
    try:
        if not args.trace:
            measured = run_untraced(workload, args.seconds)
            names = END_TO_END
        elif isinstance(workload, ServeWorkload):
            measured = run_traced_serve(workload, ctx, args.seconds)
            names = PER_LAYER
        else:
            measured = run_traced_sweep(workload, ctx, args.seconds)
            names = PER_LAYER
    finally:
        workload.close()
        if args.trace:
            # Keep the raw spans (one JSON line each) for the operator.
            kept = work.parent / f"trace-{args.workload}-seed{args.seed}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir()
            for span_dir in work.glob("spans-*"):
                shutil.move(str(span_dir), str(kept / span_dir.name))
        shutil.rmtree(work, ignore_errors=True)
    signal.alarm(0)

    tally = workload.tally
    samples = measured.pop("samples")
    serve = isinstance(workload, ServeWorkload)
    rows = {**names, **SERVE_ONLY} if serve and not args.trace else names
    for name, unit in rows.items():
        # On a sweep workload the job is the sweep itself: print it as sweep_s.
        label = name if serve or args.trace or name != "job_s.p50" else "sweep_s"
        print(f"{args.workload:<15} {label:<28} {measured.get(name, 0.0):>14.6g} {unit}")
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{args.workload:<15} {'fail_ratio':<28} {fail_ratio:>14.6g} "
          f"({tally.failed}/{tally.attempted}) samples={samples}")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
