#!/usr/bin/env python3
"""SimPoint-style sampled simulation (the paper's Sec. V methodology).

Splits a workload into intervals, clusters their hashed-PC phase signatures,
simulates only each cluster's representative (restored from a functionally
warmed checkpoint, with a short detailed lead), and compares the weighted
estimate and its 95% sampling CI against the full-trace run.

Usage:
    python examples/simpoint_sampling.py [workload] [total_ops] [interval_ops]
"""

import sys
import time

from repro.analysis.simpoints import choose_simpoints
from repro.api import RunSpec, simulate
from repro.sampling import run_sampled
from repro.sim.simulator import get_trace


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "502.gcc_1"
    total_ops = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    interval_ops = int(sys.argv[3]) if len(sys.argv) > 3 else 5_000
    spec = RunSpec(workload=workload, predictor="phast", num_ops=total_ops)

    trace = get_trace(workload, total_ops)
    points = choose_simpoints(trace, interval_ops, max_clusters=4)
    print(f"{workload}: {total_ops} ops -> {len(points)} simulation points")
    for point in points:
        print(
            f"  interval {point.interval_index:3d} "
            f"(ops {point.interval_index * interval_ops}..."
            f"{(point.interval_index + 1) * interval_ops})  "
            f"weight {point.weight:.2f}"
        )

    started = time.time()
    full = simulate(spec)
    full_seconds = time.time() - started

    started = time.time()
    sampled = run_sampled(
        spec,
        interval_ops=interval_ops,
        warmup_ops=interval_ops // 5,
        max_clusters=4,
    ).sampling
    sampled_seconds = time.time() - started

    error = abs(sampled.ipc - full.ipc) / full.ipc * 100.0
    print(f"\nfull trace IPC      {full.ipc:.4f}  ({full_seconds:.1f}s)")
    print(
        f"sampled estimate    {sampled.ipc:.4f} ±{sampled.ipc_ci95:.4f} "
        f"(95% CI)  ({sampled_seconds:.1f}s)"
    )
    print(
        f"error {error:.1f}%  |  detail fraction {sampled.detail_fraction:.3f} "
        f"({sampled.simulated_ops}/{sampled.total_ops} ops simulated in detail)"
    )


if __name__ == "__main__":
    main()
