"""Campaign-level sweep orchestration: resume, status, failure manifests.

``SweepRunner`` glues the durable :class:`~repro.harness.store.ResultStore`
to the :class:`~repro.harness.executor.ProcessCellExecutor`: it expands a
(workloads × predictors) grid into :class:`CellSpec` cells, skips cells the
store already holds, runs the rest under process isolation, and finishes
*with whatever succeeded* — failures become a machine-readable manifest
(``<store>/failure_manifest.json``), never an abort. ``repro sweep`` is the
CLI face of this module.

Before fanning out, the runner *precompiles* every distinct input trace the
pending cells need into a :class:`~repro.isa.artifacts.TraceStore` under
``<store>/traces``, so worker processes load a compiled artifact instead of
each regenerating the same trace. The report's ``trace_rebuilds`` counts
workers that fell through to ``build_trace`` anyway — nonzero means the
precompile pass and the workers disagreed about a trace key.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import CoreConfig
from repro.harness.chaos import ChaosEngine, FaultPlan
from repro.harness.executor import (
    BatchGroup,
    CellOutcome,
    CellSpec,
    ProcessCellExecutor,
)
from repro.harness.failures import CellFailure, FailureKind
from repro.harness.leases import LeaseStore
from repro.harness.store import ResultStore, StoreStatus
from repro.isa.artifacts import TraceStore
from repro.sim.metrics import SimResult


def build_cells(
    workloads: Iterable[str],
    predictors: Iterable[str],
    config: Optional[CoreConfig] = None,
    num_ops: int = 0,
    seed: Optional[int] = None,
    trace_dir: Optional[str] = None,
    backend: Optional[str] = None,
) -> List[CellSpec]:
    """Expand a (workload × predictor) grid into sweep cells."""
    core = config or CoreConfig()
    return [
        CellSpec(
            workload=workload,
            predictor=predictor,
            config=core,
            num_ops=num_ops,
            seed=seed,
            trace_dir=trace_dir,
            backend=backend,
        )
        for workload in workloads
        for predictor in predictors
    ]


@dataclass
class SweepReport:
    """Everything a sweep produced, successes and failures alike.

    ``trace_rebuilds`` is the number of lazy trace builds workers performed
    during this run despite the artifact store (None when the sweep ran
    without one); ``precompiled`` is the number of traces the precompile
    pass actually built (loads of already-stored artifacts don't count).
    ``chaos`` is the :class:`~repro.harness.chaos.ChaosEngine` that injected
    faults into this run (None for a fault-free sweep) — its journal backs
    the soak gate's classification check.

    Cells settled by the surrogate triage tier carry an ``estimate``
    instead of a result or failure; they count in ``surrogate``, never in
    ``completed``/``failed``, and their predictions live in ``estimates``,
    never in ``results``.
    """

    outcomes: List[CellOutcome]
    trace_rebuilds: Optional[int] = None
    precompiled: int = 0
    chaos: Optional[ChaosEngine] = None
    degraded_writes: int = 0
    peer_completed: int = 0

    @property
    def results(self) -> Dict[tuple, SimResult]:
        """(workload, predictor) -> result, for the cells that succeeded."""
        return {
            (outcome.spec.workload, outcome.spec.predictor): outcome.result
            for outcome in self.outcomes
            if outcome.ok
        }

    @property
    def estimates(self) -> Dict[tuple, object]:
        """(workload, predictor) -> surrogate estimate, for settled cells."""
        return {
            (outcome.spec.workload, outcome.spec.predictor): outcome.estimate
            for outcome in self.outcomes
            if outcome.estimate is not None
        }

    @property
    def failures(self) -> List[CellFailure]:
        return [
            outcome.failure
            for outcome in self.outcomes
            if outcome.failure is not None
        ]

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def simulated(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok and not outcome.cached)

    @property
    def failed(self) -> int:
        return sum(
            1 for outcome in self.outcomes if outcome.failure is not None
        )

    @property
    def surrogate(self) -> int:
        """Cells settled by the surrogate tier (predicted, not simulated)."""
        return sum(
            1 for outcome in self.outcomes if outcome.estimate is not None
        )

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    def _kind_count(self, kind: FailureKind) -> int:
        return sum(
            1
            for outcome in self.outcomes
            if outcome.failure is not None and outcome.failure.kind is kind
        )

    @property
    def cut(self) -> int:
        """Cells cut by the campaign deadline budget (still pending on resume)."""
        return self._kind_count(FailureKind.DEADLINE)

    @property
    def quarantined(self) -> int:
        """Cells skipped because a prior run already burned their retries."""
        return self._kind_count(FailureKind.QUARANTINED)

    @property
    def skipped(self) -> int:
        """Cells skipped by a tripped per-workload circuit breaker."""
        return self._kind_count(FailureKind.SKIPPED)

    def summary(self) -> str:
        total = len(self.outcomes)
        text = (
            f"sweep: {total} cells — ok={self.completed} "
            f"(cached={self.cached}, simulated={self.simulated}) "
            f"failed={self.failed}"
        )
        if self.surrogate:
            text += f" surrogate={self.surrogate}"
        if self.cut:
            text += f" cut={self.cut}"
        if self.quarantined:
            text += f" quarantined={self.quarantined}"
        if self.skipped:
            text += f" skipped={self.skipped}"
        if self.degraded_writes:
            text += f" degraded-writes={self.degraded_writes}"
        if self.peer_completed:
            text += f" peer={self.peer_completed}"
        if self.trace_rebuilds is not None:
            text += f" trace-rebuilds={self.trace_rebuilds}"
        if self.chaos is not None:
            text += f" chaos-injected={self.chaos.summary()['injected']}"
        return text


class SweepRunner:
    """Resumable fault-tolerant sweep over a cell population.

    ``trace_store`` is the artifact store traces are precompiled into
    (default: ``<result store>/traces``); ``precompile=False`` restores the
    legacy rebuild-in-every-worker behaviour.
    """

    def __init__(
        self,
        store: ResultStore,
        executor: Optional[ProcessCellExecutor] = None,
        trace_store: Optional[TraceStore] = None,
        precompile: bool = True,
    ) -> None:
        self.store = store
        self.executor = executor or ProcessCellExecutor()
        self.trace_store = trace_store or TraceStore(self.store.root / "traces")
        self.precompile = precompile

    def _precompile(self, cells: Sequence[CellSpec]) -> int:
        """Compile every distinct trace ``cells`` need; returns builds.

        Unknown workload names (e.g. synthetic cells in tests) are skipped —
        the worker will report the real error with full context.
        """
        from repro.sim.simulator import default_num_ops, get_trace
        from repro.workloads.spec2017 import workload

        unique: Dict[tuple, CellSpec] = {}
        for cell in cells:
            unique.setdefault((cell.workload, cell.seed, cell.num_ops), cell)
        built = 0
        for (name, seed, num_ops), _ in unique.items():
            try:
                profile = workload(name, seed=seed)
            except KeyError:
                continue
            ops = num_ops or default_num_ops()
            _, was_built = self.trace_store.compile(profile, ops)
            built += was_built
            # Warm the parent's in-process cache too: fork-started workers
            # inherit it and skip even the artifact read.
            get_trace(profile, ops, store=self.trace_store)
        return built

    def _plan_jobs(
        self, cells: Sequence[CellSpec], pending: "set[str]"
    ) -> List[object]:
        """Group pending batch-covered cells by trace into worker jobs.

        Cells whose digest is in ``pending`` (the store did not hold them
        when the run began), whose backend batches (anything but
        ``reference``) and whose spec the backend covers natively are
        grouped by input trace — (backend, workload, seed, num_ops,
        trace_dir) — into :class:`BatchGroup` jobs, so one worker decodes
        the trace once for the whole group. Everything else stays a
        one-item job: reference cells keep their parallelism, and uncovered
        specs, singletons and already-stored cells gain nothing from a
        group. Whether a cell is cached or quarantined is decided by the
        executor alone, per cell, groups included.
        """
        from repro.sim.backends import default_backend_name, get_backend

        jobs: List[object] = []
        groupable: Dict[tuple, List[CellSpec]] = {}
        for cell in cells:
            backend_name = cell.backend or default_backend_name()
            grouped = False
            if backend_name != "reference" and cell.key().digest in pending:
                try:
                    spec = cell.run_spec(
                        check_invariants=self.executor.check_invariants or None
                    )
                    grouped = get_backend(backend_name).covers(spec)
                except Exception:
                    grouped = False  # unknown backend: fail solo, clearly
            if grouped:
                key = (
                    backend_name,
                    cell.workload,
                    cell.seed,
                    cell.num_ops,
                    cell.trace_dir,
                )
                groupable.setdefault(key, []).append(cell)
            else:
                jobs.append(cell)
        for (backend_name, *_), members in groupable.items():
            if len(members) >= 2:
                jobs.append(BatchGroup(cells=tuple(members), backend=backend_name))
            else:
                jobs.extend(members)
        return jobs

    #: Poll interval while waiting on cells leased to a peer process.
    peer_poll_seconds = 0.25

    def _claim_cells(
        self, cells: Sequence[CellSpec], leases: LeaseStore, resume: bool
    ) -> Tuple[List[CellSpec], List[CellSpec], "set[str]"]:
        """Split cells into (runnable, peer-leased, claimed digests).

        The store dedupe boundary is re-checked immediately before each
        claim: a cell a peer already answered is never leased at all — it
        flows through ``run_many``'s resume path as a plain cache hit.
        """
        runnable: List[CellSpec] = []
        foreign: List[CellSpec] = []
        claimed: "set[str]" = set()
        for cell in cells:
            key = cell.key()
            if resume and self.store.contains(key):
                runnable.append(cell)  # settles as cached, no claim needed
                continue
            if key.digest in claimed or leases.acquire(key.digest):
                claimed.add(key.digest)
                runnable.append(cell)
            else:
                foreign.append(cell)
        return runnable, foreign, claimed

    def _renewing_heartbeat(
        self,
        heartbeat: Optional[Callable],
        leases: LeaseStore,
        claimed: "set[str]",
    ) -> Callable:
        """Wrap ``heartbeat`` so streamed windows renew the cell's lease.

        Renewal rides the existing heartbeat stream (every
        ``REPRO_HEARTBEAT_OPS`` committed ops), so any cell still making
        progress holds its lease indefinitely while a crashed owner's
        leases expire after one TTL.
        """
        held = claimed  # the live set: reclaimed digests renew too
        digest_cache: Dict[int, str] = {}

        def digest_of(item) -> str:
            digest = digest_cache.get(id(item))
            if digest is None:
                digest = digest_cache[id(item)] = item.key().digest
            return digest

        def renewing(item, window) -> None:
            digest = digest_of(item)
            if digest in held:
                leases.renew(digest)
            if heartbeat is not None:
                heartbeat(item, window)

        return renewing

    def _await_peers(
        self,
        foreign: Sequence[CellSpec],
        leases: LeaseStore,
        progress: Optional[Callable[[CellOutcome], None]] = None,
        heartbeat: Optional[Callable] = None,
        quarantine: bool = False,
        stop=None,
        cutoff: Optional[float] = None,
        held: Optional["set[str]"] = None,
    ) -> List[CellOutcome]:
        """Resolve cells leased to peer processes.

        Each waiting cell settles one of three ways: its result appears in
        the shared store (the peer finished it — a ``cached`` outcome
        here), its lease lapses or is released without a result (the peer
        crashed or failed the cell — we reclaim and run it ourselves), or
        a stop/deadline cut settles it ephemerally (kind ``deadline``,
        never persisted, pending again on resume).
        """
        outcomes: List[CellOutcome] = []
        waiting: Dict[str, CellSpec] = {
            cell.key().digest: cell for cell in foreign
        }
        while waiting:
            cut = (stop is not None and stop.is_set()) or (
                cutoff is not None and time.monotonic() >= cutoff
            )
            if cut:
                reason = (
                    "cancelled by a stop request"
                    if stop is not None and stop.is_set()
                    else "campaign deadline expired"
                )
                for cell in waiting.values():
                    outcome = CellOutcome(
                        spec=cell,
                        failure=CellFailure(
                            kind=FailureKind.DEADLINE,
                            message=(
                                f"{reason} while a peer held the cell's lease"
                            ),
                            cell=cell.describe(),
                            detail={"cancelled": True, "leased_to_peer": True},
                        ),
                    )
                    outcomes.append(outcome)
                    if progress:
                        progress(outcome)
                break
            reclaimed: List[CellSpec] = []
            for digest, cell in list(waiting.items()):
                result = self.store.get(cell.key())
                if result is not None:
                    outcome = CellOutcome(spec=cell, result=result, cached=True)
                    outcomes.append(outcome)
                    del waiting[digest]
                    if progress:
                        progress(outcome)
                    continue
                if leases.expired(leases.peek(digest)) and leases.acquire(digest):
                    reclaimed.append(cell)
                    if held is not None:
                        held.add(digest)
                    del waiting[digest]
            if reclaimed:
                try:
                    outcomes.extend(
                        self.executor.run_many(
                            reclaimed,
                            store=self.store,
                            resume=True,
                            progress=progress,
                            quarantine=quarantine,
                            heartbeat=heartbeat,
                            stop=stop,
                        )
                    )
                finally:
                    for cell in reclaimed:
                        leases.release(cell.key().digest)
                        if held is not None:
                            held.discard(cell.key().digest)
            elif waiting:
                time.sleep(self.peer_poll_seconds)
        return outcomes

    def run(
        self,
        cells: Sequence[CellSpec],
        resume: bool = True,
        progress: Optional[Callable[[CellOutcome], None]] = None,
        fault_plan: Optional[FaultPlan] = None,
        deadline: Optional[float] = None,
        quarantine: bool = False,
        heartbeat: Optional[Callable] = None,
        stop=None,
        leases: Optional[LeaseStore] = None,
        surrogate=None,
    ) -> SweepReport:
        """Run the sweep; completes with the surviving cells, never aborts.

        Every fresh result and final failure is persisted atomically the
        moment it settles, so a SIGKILL anywhere leaves the store with only
        complete entries and a re-run with ``resume=True`` picks up from
        exactly the finished set. The failure manifest is (re)written at the
        end of every run — empty when everything succeeded.

        ``fault_plan`` activates deterministic chaos injection over the
        whole run — including the precompile pass, so artifact writes face
        the same ENOSPC/corruption weather as everything else. ``deadline``
        is the campaign wall-clock budget and ``quarantine`` skips cells
        with durable failure records; see
        :meth:`~repro.harness.executor.ProcessCellExecutor.run_many` —
        which also documents ``heartbeat`` (live interval-window callback)
        and ``stop`` (a ``threading.Event`` requesting cancellation; the
        server's cancel endpoint sets it).

        ``leases`` activates multi-process sharding over a shared store
        (:class:`~repro.harness.leases.LeaseStore`): pending cells are
        claimed through exclusive markers before dispatch — re-checking the
        store dedupe boundary first — so concurrent runners split the
        population with zero duplicated executions. Cells claimed by a
        *peer* are not executed here; the runner waits for their results
        to appear in the shared store (they settle as ``cached`` outcomes,
        counted in ``SweepReport.peer_completed``) and reclaims any lease
        whose owner crashed (TTL expiry). Heartbeats renew the leases of
        in-flight cells, so a lease outlives any cell still making
        progress.

        ``surrogate`` is an optional
        :class:`~repro.surrogate.triage.SurrogateTier`: pending cells it
        settles (tight confidence interval, inside the training support)
        become ``estimate`` outcomes up front — before traces are
        precompiled or leases claimed — and never reach the executor.
        Cached cells bypass triage entirely: a durable detailed result
        always beats a prediction.
        """
        chaos = ChaosEngine(fault_plan) if fault_plan is not None else None
        scope = chaos.installed() if chaos is not None else contextlib.nullcontext()
        cutoff = None if deadline is None else time.monotonic() + float(deadline)
        all_cells: Sequence[CellSpec] = cells
        # Digests the store does not hold yet: what triage, precompile and
        # grouping work on. Cached cells still flow through the executor,
        # which settles them (and quarantined ones) as it does every cell.
        pending = {
            cell.key().digest
            for cell in cells
            if not (resume and self.store.contains(cell.key()))
        }
        settled: List[CellOutcome] = []
        if surrogate is not None and surrogate.mode != "off":
            estimates = surrogate.triage(
                [cell for cell in cells if cell.key().digest in pending]
            )
            for cell in cells:
                estimate = estimates.get(cell.key().digest)
                if estimate is not None:
                    outcome = CellOutcome(spec=cell, estimate=estimate)
                    settled.append(outcome)
                    if progress:
                        progress(outcome)
            if estimates:
                pending -= set(estimates)
                cells = [cell for cell in cells if cell.key().digest not in estimates]
        with scope:
            precompiled = 0
            rebuilds = None
            if self.precompile:
                precompiled = self._precompile(
                    [cell for cell in cells if cell.key().digest in pending]
                )
                trace_dir = str(self.trace_store.root)
                cells = [
                    cell if cell.trace_dir else replace(cell, trace_dir=trace_dir)
                    for cell in cells
                ]
                rebuilds_before = self.trace_store.rebuild_count()
            foreign: List[CellSpec] = []
            claimed: "set[str]" = set()
            run_cells: Sequence[CellSpec] = cells
            if leases is not None:
                run_cells, foreign, claimed = self._claim_cells(
                    cells, leases, resume=resume
                )
                heartbeat = self._renewing_heartbeat(heartbeat, leases, claimed)
            jobs = self._plan_jobs(run_cells, pending)
            peer_completed = 0
            try:
                settled += self.executor.run_many(
                    jobs,
                    store=self.store,
                    resume=resume,
                    progress=progress,
                    chaos=chaos,
                    deadline=deadline,
                    quarantine=quarantine,
                    heartbeat=heartbeat,
                    stop=stop,
                )
            finally:
                if leases is not None:
                    # Settled either way: results (and durable failures) are
                    # in the shared store, so peers re-checking the dedupe
                    # boundary — or re-claiming a failed cell — move on.
                    for digest in claimed:
                        leases.release(digest)
            if foreign:
                peer_outcomes = self._await_peers(
                    foreign,
                    leases,
                    progress=progress,
                    heartbeat=heartbeat,
                    quarantine=quarantine,
                    stop=stop,
                    cutoff=cutoff,
                    held=claimed,
                )
                peer_completed = sum(
                    1 for outcome in peer_outcomes if outcome.ok and outcome.cached
                )
                settled += peer_outcomes
            if self.precompile:
                rebuilds = self.trace_store.rebuild_count() - rebuilds_before
        # Back to input cell order: every cell has exactly one outcome.
        by_digest: Dict[str, List[CellOutcome]] = {}
        for outcome in settled:
            by_digest.setdefault(outcome.spec.key().digest, []).append(outcome)
        outcomes = [by_digest[cell.key().digest].pop(0) for cell in all_cells]
        report = SweepReport(
            outcomes=outcomes,
            trace_rebuilds=rebuilds,
            precompiled=precompiled,
            chaos=chaos,
            degraded_writes=self.store.degraded_writes,
            peer_completed=peer_completed,
        )
        extra = {
            "cells": len(all_cells),
            "completed": report.completed,
            "cached": report.cached,
            "simulated": report.simulated,
            "precompiled_traces": precompiled,
            "trace_rebuilds": rebuilds,
            "cut": report.cut,
            "quarantined": report.quarantined,
            "skipped": report.skipped,
            "degraded_writes": self.store.degraded_writes,
            "peer_completed": report.peer_completed,
        }
        if surrogate is not None:
            extra["surrogate"] = {
                "mode": surrogate.mode,
                "settled": report.surrogate,
                "model_sha256": surrogate.model.content_sha256,
            }
        if deadline is not None:
            extra["deadline_seconds"] = float(deadline)
        if chaos is not None:
            extra["chaos"] = chaos.summary()
        self.store.write_manifest(report.failures, extra=extra)
        return report

    def status(self, cells: Sequence[CellSpec]) -> StoreStatus:
        """Completed/failed/pending counts for a sweep, without running it."""
        return self.store.status(cell.key() for cell in cells)
