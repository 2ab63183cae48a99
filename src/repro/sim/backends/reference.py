"""The ``reference`` backend: the per-op interpreted pipeline.

This is the pre-existing execution path — :func:`~repro.sim.simulator
.build_pipeline` plus ``Pipeline.run`` — behind the :class:`Backend`
protocol. It covers every spec, needs no optional dependencies, and defines
the semantics every other backend must reproduce bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.sim.backends.base import Backend, OnHeartbeat, OnResult
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec


def execute_reference(
    spec: RunSpec,
    on_window: Optional[Callable] = None,
    heartbeat_ops: Optional[int] = None,
) -> SimResult:
    """Run one spec on the interpreted pipeline (shared with fallbacks).

    ``on_window``, when given, receives each completed
    :class:`~repro.sim.intervals.IntervalWindow` at ``spec.interval_ops``
    (else ``heartbeat_ops``) cadence — the same cadence rule as the fused
    engine. Heartbeat-only windows are streamed, never attached to the
    result.
    """
    # Imported late: repro.sim.simulator imports the backend registry for
    # dispatch, so a top-level import here would cycle.
    from repro.isa.artifacts import TraceStore
    from repro.sim.intervals import IntervalMetricsProbe
    from repro.sim.simulator import build_pipeline, get_trace

    store = TraceStore(spec.trace_dir) if spec.trace_dir else None
    trace = get_trace(spec.resolved_profile(), spec.resolved_num_ops(), store=store)
    cadence = spec.interval_ops or heartbeat_ops
    extra = []
    if on_window is not None and cadence:
        extra.append(IntervalMetricsProbe(cadence, on_window=on_window))
    pipeline, interval_probe = build_pipeline(spec, extra_probes=extra)
    stats = pipeline.run(trace, warmup_ops=spec.resolved_warmup_ops())
    predictor = pipeline.predictor
    paths = getattr(predictor, "paths_tracked", None)
    return SimResult(
        workload=trace.name,
        predictor=predictor.name,
        core=pipeline.config.name,
        pipeline=stats,
        mdp=predictor.stats,
        paths_tracked=paths,
        intervals=tuple(interval_probe.windows) if interval_probe else None,
    )


def window_streamer(
    index: int, on_heartbeat: Optional[OnHeartbeat]
) -> Optional[Callable]:
    """An ``on_window`` callback forwarding cell ``index``'s windows to a
    ``run_many`` heartbeat callback as ``(index, window_dict)``."""
    if on_heartbeat is None:
        return None
    return lambda window: on_heartbeat(index, window.to_dict())


class ReferenceBackend(Backend):
    """Per-op interpreter; always available, covers everything."""

    name = "reference"

    def run(self, spec: RunSpec) -> SimResult:
        return execute_reference(spec)

    def run_many(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[OnResult] = None,
        on_heartbeat: Optional[OnHeartbeat] = None,
        heartbeat_ops: Optional[int] = None,
    ) -> List[SimResult]:
        """Run specs in order, streaming interval windows as heartbeats."""
        results: List[SimResult] = []
        for index, spec in enumerate(specs):
            result = execute_reference(
                spec, window_streamer(index, on_heartbeat), heartbeat_ops
            )
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results

    def describe(self) -> dict:
        row = super().describe()
        row["available"] = True
        row["coverage"] = "all specs (semantic reference)"
        return row
