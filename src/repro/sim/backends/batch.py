"""The ``batch`` backend: shared-decode, kernel-accelerated execution.

One trace decode + one front-end pass (:class:`~repro.sim.backends.engine
.TracePrep`) serves every cell of a group; each cell then runs through the
fused scheduling loop (:func:`~repro.sim.backends.engine.run_fused_cell`)
with a kernel-accelerated predictor where one exists
(:mod:`repro.mdp.kernels`). The result is bit-identical to the reference
interpreter on every covered spec — that is the backend contract, enforced
per predictor by the golden fixture in
``tests/core/test_hot_path_identity.py`` — at a ≥3x group speedup on the
15-predictor hot cell (gated by ``benchmarks/perf_smoke.py --check``).

Coverage: the fused engine hard-codes the default front end (fresh TAGE,
``wrong_path_depth == 0``, no wrong-path modeling), drives predictors
through their standard hook surface, and accumulates statistics in local
integers instead of probe events. A spec escapes that envelope — custom
probes, a branch-predictor override, invariant checking, a shadowed
predictor registration, a non-default wrong-path depth, or a missing
NumPy — and :meth:`BatchBackend.run` silently delegates that cell to the
reference backend. Coverage gaps slow a sweep down; they never change
results and never block.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.backends._numpy import have_numpy, numpy_version
from repro.sim.backends.base import Backend, OnHeartbeat, OnResult
from repro.sim.backends.engine import TracePrep, run_fused_cell
from repro.sim.backends.reference import execute_reference, window_streamer
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec

#: Traces whose prep survives between calls. Preps are a similar size to
#: the decoded trace (one tuple per op), and the trace layer itself caches
#: aggressively, so keep only the most recent few.
_PREP_CACHE_LIMIT = 4


class BatchBackend(Backend):
    """Shared-decode fused execution with per-cell reference fallback."""

    name = "batch"

    def __init__(self) -> None:
        # (profile key, num_ops, trace_dir) -> (trace, prep); insertion-
        # ordered for LRU-ish eviction.
        self._preps: dict = {}

    # ------------------------------------------------------------ coverage --

    def covers(self, spec: RunSpec) -> bool:
        """Whether ``spec`` fits the fused engine's validated envelope."""
        if not have_numpy():
            return False
        if not isinstance(spec.predictor, str):
            return False  # instances carry arbitrary state; not re-runnable
        from repro.sim.simulator import BUILTIN_PREDICTORS, PREDICTOR_FACTORIES

        expected = BUILTIN_PREDICTORS.get(spec.predictor)
        if expected is None or PREDICTOR_FACTORIES.get(spec.predictor) != expected:
            return False  # not built in, or shadowed: engine never validated it
        if spec.probes:
            return False  # probe bus events are not replayed in the fused loop
        if spec.branch_predictor is not None:
            return False  # shared front-end pass hard-codes the default TAGE
        if spec.check_invariants:
            return False  # invariant probes need the event stream
        if spec.check_invariants is None:
            from repro.sim.invariants import invariants_enabled

            if invariants_enabled():
                return False
        if spec.resolved_config().wrong_path_depth != 0:
            return False  # wrong-path fetch modeling needs the interpreter
        return True

    # ----------------------------------------------------------- execution --

    def _prep_for(self, spec: RunSpec) -> TracePrep:
        from repro.isa.artifacts import TraceStore
        from repro.sim.simulator import get_trace

        profile = spec.resolved_profile()
        # The trace artifact digest identifies the concrete byte sequence;
        # two specs with the same digest simulate the identical trace.
        key = (spec.trace_key().digest, spec.trace_dir)
        cached = self._preps.get(key)
        if cached is not None:
            return cached[1]
        store = TraceStore(spec.trace_dir) if spec.trace_dir else None
        trace = get_trace(profile, spec.resolved_num_ops(), store=store)
        prep = TracePrep(trace)
        while len(self._preps) >= _PREP_CACHE_LIMIT:
            self._preps.pop(next(iter(self._preps)))
        self._preps[key] = (trace, prep)
        return prep

    def _run_covered(
        self,
        spec: RunSpec,
        prep: TracePrep,
        on_window=None,
        heartbeat_ops: Optional[int] = None,
    ) -> SimResult:
        from repro.mdp.kernels import make_kernel_predictor
        from repro.sim.simulator import make_predictor

        config = spec.resolved_config()
        name = spec.predictor
        predictor = make_kernel_predictor(name, prep) or make_predictor(name)
        # The probe-based reference only ever has one interval cadence; the
        # fused loop reuses its accumulator for heartbeat streaming when the
        # spec itself asked for no interval metrics.
        cadence = spec.interval_ops or (heartbeat_ops or 0)
        stats, windows = run_fused_cell(
            prep,
            config,
            predictor,
            spec.resolved_warmup_ops(),
            interval_cadence=cadence,
            on_window=on_window,
        )
        return SimResult(
            workload=prep.trace.name,
            predictor=predictor.name,
            core=config.name,
            pipeline=stats,
            mdp=predictor.stats,
            paths_tracked=getattr(predictor, "paths_tracked", None),
            intervals=tuple(windows) if spec.interval_ops is not None else None,
        )

    def run(self, spec: RunSpec) -> SimResult:
        if not self.covers(spec):
            return execute_reference(spec)
        return self._run_covered(spec, self._prep_for(spec))

    def run_many(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[OnResult] = None,
        on_heartbeat: Optional[OnHeartbeat] = None,
        heartbeat_ops: Optional[int] = None,
    ) -> List[SimResult]:
        """Run a group, sharing one :class:`TracePrep` per distinct trace.

        Cells run in spec order (the prep cache makes trace-interleaved
        orders merely suboptimal, not incorrect). ``on_result`` fires per
        completed cell; ``on_heartbeat`` receives interval windows at
        ``spec.interval_ops`` (or ``heartbeat_ops``) cadence — heartbeat-only
        windows are streamed but never attached to the ``SimResult`` — and
        so do the reference fallbacks of uncovered specs.
        """
        results: List[SimResult] = []
        for index, spec in enumerate(specs):
            on_window = window_streamer(index, on_heartbeat)
            if self.covers(spec):
                result = self._run_covered(
                    spec,
                    self._prep_for(spec),
                    on_window=on_window,
                    heartbeat_ops=heartbeat_ops,
                )
            else:
                result = execute_reference(spec, on_window, heartbeat_ops)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results

    # ----------------------------------------------------------- reporting --

    def describe(self) -> dict:
        from repro.mdp.kernels import KERNEL_NAMES

        row = super().describe()
        row["available"] = have_numpy()
        row["numpy"] = numpy_version() or "missing"
        row["coverage"] = (
            "registered predictors, default front end, no probes/invariants"
        )
        row["kernels"] = ", ".join(KERNEL_NAMES)
        return row
