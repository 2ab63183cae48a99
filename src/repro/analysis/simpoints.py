"""SimPoint-style interval selection (Perelman et al., cited in Sec. V).

The paper simulates SimPoint-selected 100M-instruction intervals instead of
whole SPEC runs. This module implements the same methodology over our
traces:

1. split a trace into fixed-size intervals;
2. summarise each interval as a normalised *basic-block vector* (here: a
   hashed program-counter execution-frequency vector — our micro-op traces
   have no explicit basic blocks, and PC frequency captures the same phase
   signal);
3. cluster the vectors with k-means (numpy);
4. pick each cluster's most central interval as its simulation point,
   weighted by the cluster's share of the trace.

``simulate_simpoints`` then runs only the representatives (with optional
per-interval warm-up) and returns the weighted IPC — the standard trade of
simulation time for a small, quantified phase-sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.artifacts import TraceStore
from repro.isa.trace import Trace
from repro.sim.simulator import build_pipeline, get_trace
from repro.sim.spec import RunSpec

#: Dimensionality of the hashed PC-frequency vectors.
VECTOR_BUCKETS = 256


def interval_vectors(trace: Trace, interval_ops: int) -> np.ndarray:
    """One L1-normalised hashed-PC frequency vector per full interval."""
    if interval_ops <= 0:
        raise ValueError(f"interval_ops must be positive, got {interval_ops}")
    num_intervals = len(trace) // interval_ops
    if num_intervals == 0:
        raise ValueError(
            f"trace of {len(trace)} ops has no full {interval_ops}-op interval"
        )
    vectors = np.zeros((num_intervals, VECTOR_BUCKETS), dtype=np.float64)
    for interval in range(num_intervals):
        start = interval * interval_ops
        for position in range(start, start + interval_ops):
            pc = trace[position].pc
            bucket = (pc ^ (pc >> 7) ^ (pc >> 15)) % VECTOR_BUCKETS
            vectors[interval, bucket] += 1.0
    row_sums = vectors.sum(axis=1, keepdims=True)
    return vectors / row_sums


def kmeans(
    vectors: np.ndarray, k: int, iterations: int = 25, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain k-means. Returns (assignments, centroids)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    count = vectors.shape[0]
    k = min(k, count)
    rng = np.random.default_rng(seed)
    centroids = vectors[rng.choice(count, size=k, replace=False)].copy()
    assignments = np.zeros(count, dtype=np.int64)
    for _ in range(iterations):
        distances = np.linalg.norm(
            vectors[:, None, :] - centroids[None, :, :], axis=2
        )
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            members = vectors[assignments == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return assignments, centroids


@dataclass(frozen=True)
class SimPoint:
    """One representative interval with its cluster weight."""

    interval_index: int
    weight: float


def choose_simpoints(
    trace: Trace, interval_ops: int, max_clusters: int = 5, seed: int = 0
) -> List[SimPoint]:
    """Select representative intervals; weights sum to 1."""
    vectors = interval_vectors(trace, interval_ops)
    assignments, centroids = kmeans(vectors, max_clusters, seed=seed)
    points: List[SimPoint] = []
    total = len(assignments)
    for cluster in range(centroids.shape[0]):
        members = np.flatnonzero(assignments == cluster)
        if len(members) == 0:
            continue
        distances = np.linalg.norm(vectors[members] - centroids[cluster], axis=1)
        representative = int(members[distances.argmin()])
        points.append(
            SimPoint(interval_index=representative, weight=len(members) / total)
        )
    return sorted(points, key=lambda point: point.interval_index)


@dataclass(frozen=True)
class SimPointResult:
    """Weighted-IPC estimate plus per-point detail."""

    weighted_ipc: float
    points: Sequence[SimPoint]
    point_ipcs: Sequence[float]
    simulated_ops: int
    total_ops: int

    @property
    def speedup_factor(self) -> float:
        """How much simulation the sampling saved."""
        return self.total_ops / max(1, self.simulated_ops)


def _point_spec(spec: RunSpec) -> RunSpec:
    """A copy of ``spec`` whose predictor state is fresh for one point.

    String predictors are instantiated per pipeline by the registry anyway;
    an *instance* predictor would otherwise carry training state from one
    representative into the next, which is not the SimPoint methodology
    (each checkpointed interval starts from its own warmed state).
    """
    if isinstance(spec.predictor, str):
        return spec
    return spec.with_overrides(predictor=type(spec.predictor)())


def simulate_simpoints(
    spec: RunSpec,
    interval_ops: Optional[int] = None,
    max_clusters: int = 5,
    warmup_fraction: float = 0.2,
    seed: int = 0,
) -> SimPointResult:
    """Estimate IPC from SimPoint representatives instead of the full trace.

    Workload, predictor, core, trace length and trace store all come from
    the :class:`~repro.sim.spec.RunSpec`; ``interval_ops`` defaults to
    ``spec.interval_ops``, and ``seed`` seeds the k-means clustering::

        simulate_simpoints(RunSpec("502.gcc", "phast", num_ops=100_000),
                           interval_ops=2_000)

    Each representative interval is simulated with a leading warm-up region
    (the previous ``warmup_fraction`` of an interval, when available) whose
    statistics are discarded — mirroring how SimPoint users warm
    microarchitectural state before each checkpoint. For warming from
    functionally-warmed checkpoints instead of cold leads — plus error
    bars and parallel interval fan-out — see ``repro.sampling.run_sampled``.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(
            "simulate_simpoints() takes a RunSpec: "
            "simulate_simpoints(RunSpec(workload, predictor, num_ops=N), "
            "interval_ops=M)"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction out of range: {warmup_fraction}")
    if interval_ops is None:
        interval_ops = spec.interval_ops
    if interval_ops is None:
        raise TypeError("simulate_simpoints() requires interval_ops")

    store = TraceStore(spec.trace_dir) if spec.trace_dir else None
    trace = get_trace(spec.resolved_profile(), spec.resolved_num_ops(), store=store)
    points = choose_simpoints(trace, interval_ops, max_clusters, seed=seed)

    point_ipcs: List[float] = []
    simulated = 0
    warmup = int(interval_ops * warmup_fraction)
    for point in points:
        start = point.interval_index * interval_ops
        lead = min(warmup, start)
        window = trace.slice(start - lead, start + interval_ops)
        pipeline, _ = build_pipeline(_point_spec(spec))
        stats = pipeline.run(window, warmup_ops=lead)
        point_ipcs.append(stats.ipc)
        simulated += len(window)

    weighted = sum(point.weight * ipc for point, ipc in zip(points, point_ipcs))
    return SimPointResult(
        weighted_ipc=weighted,
        points=tuple(points),
        point_ipcs=tuple(point_ipcs),
        simulated_ops=simulated,
        total_ops=spec.resolved_num_ops(),
    )
