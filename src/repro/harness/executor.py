"""Process-isolated execution of sweep cells with timeouts and retries.

Each job runs in its own worker subprocess, so a pathological cell — an
infinite loop, a segfaulting native extension, a memory blow-up, the kernel
OOM killer — takes down only that job, never the campaign. The parent
classifies what happened (:class:`~repro.harness.failures.FailureKind`),
retries transient failures with capped exponential backoff, and records a
structured :class:`~repro.harness.failures.CellFailure` for anything that
still fails, while completed cells land in the crash-safe
:class:`~repro.harness.store.ResultStore`.

``ProcessCellExecutor.run_many`` is a small deadline-driven scheduler: up to
``workers`` subprocesses in flight, per-job timeouts enforced with
``proc.kill()``, and retry backoff expressed as "not before" timestamps so
waiting cells never block a worker slot.

**The worker protocol.** A job has one or more *items*: a
:class:`BatchGroup` has its cells, any other job is its own single item. A
worker sends exactly one *verdict* per item, in item order —
``("ok", SimResult.to_record())`` or an in-band failure tag (``"invariant"``,
``"oom"``, ``"error"``) — and may send ``("heartbeat", window_dict)``
messages between verdicts. The parent assigns each heartbeat to the item in
flight, which is the number of verdicts received so far, and stashes the
latest window, so when an item hangs and is killed (or crashes) its failure
manifest records the last interval it completed — "died at op ~14000 with
IPC collapsing" instead of just "timeout". ``run_many`` returns exactly one
outcome per item, in input order.

The executor is job-generic: the default worker simulates
:class:`~repro.sim.spec.RunSpec` items, but any picklable job works with a
custom ``worker=`` callable of the same ``(conn, job, check_invariants)``
shape that speaks the protocol above. A job only needs ``describe()`` (for
failure manifests); ``key()`` is required only when a ``store`` is passed
to ``run_many``. ``repro.sampling`` uses this to fan checkpoint-restored
interval runs out across workers without a parallel scheduler of its own.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, replace
from multiprocessing import connection, get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.env import env_float, env_int
from repro.harness.chaos import ChaosEngine, ChaosJob, _chaos_worker
from repro.harness.failures import (
    EPHEMERAL_KINDS,
    CellFailure,
    FailureKind,
    backoff_delay,
    classify_exitcode,
    jitter_fraction,
)
from repro.harness.store import ResultStore
from repro.sim.metrics import SimResult
from repro.sim.spec import RunSpec

#: Environment defaults for the sweep knobs (CLI flags override).
ENV_TIMEOUT = "REPRO_SWEEP_TIMEOUT"
ENV_RETRIES = "REPRO_SWEEP_RETRIES"
ENV_WORKERS = "REPRO_SWEEP_WORKERS"
#: Multiprocessing start method ("fork", "spawn", "forkserver"). The default
#: is fork where available; spawn-started workers begin with a cold
#: in-process trace cache, so they exercise the on-disk artifact path — the
#: CI zero-rebuild guard sets this deliberately.
ENV_MP = "REPRO_SWEEP_MP"


def default_timeout() -> float:
    return env_float(ENV_TIMEOUT, 300.0, min_value=0.0)


def default_retries() -> int:
    return env_int(ENV_RETRIES, 2, min_value=0)


def default_workers() -> int:
    return env_int(ENV_WORKERS, 1, min_value=1)


@dataclass(frozen=True)
class BatchGroup:
    """Several cells of one trace, scheduled as a single worker job.

    The sweep planner groups pending cells that share an input trace and a
    batch-capable backend; one worker then runs every cell against the
    backend's shared :class:`~repro.sim.backends.engine.TracePrep`, so the
    trace is decoded once. The group occupies one worker slot and one
    timeout budget (``timeout × len(cells)``), but verdicts stay per-cell:
    each cell settles into its own outcome the moment its verdict arrives,
    so a crash mid-group keeps everything already finished and re-runs only
    the rest — as one-item jobs, never as a group.
    """

    cells: Tuple[RunSpec, ...]
    backend: str = "batch"

    @property
    def workload(self) -> str:
        """Shared workload name (groups never span workloads); lets the
        per-workload circuit breaker treat groups like their cells."""
        return self.cells[0].workload

    def describe(self) -> Dict[str, object]:
        return {
            "batch_group": {
                "backend": self.backend,
                "cells": [cell.describe() for cell in self.cells],
            }
        }


def _items(job) -> tuple:
    """The items one job settles, in order: a group's cells, else the job."""
    return getattr(job, "cells", None) or (job,)


def _narrow(job, items: tuple):
    """``job`` cut down to ``items`` (an ordered subset of its own)."""
    if len(items) == 1:
        return items[0]
    if len(items) == len(_items(job)):
        return job
    return replace(job, cells=items)


@dataclass
class CellOutcome:
    """What one item produced: a result (fresh or cached) or a failure.

    A cell settled by the surrogate triage tier carries an ``estimate``
    (a :class:`~repro.surrogate.triage.SurrogateEstimate`) and neither a
    result nor a failure: it was predicted, not simulated, and never
    reaches the detailed-result namespace.
    """

    spec: RunSpec
    result: Optional[SimResult] = None
    failure: Optional[CellFailure] = None
    attempts: int = 0
    elapsed_seconds: float = 0.0
    cached: bool = False
    estimate: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def _cell_worker(conn, job, check_invariants: bool) -> None:
    """Subprocess entry point: one verdict per item of ``job``, then exit.

    Every item runs through its backend's ``run_many`` — the ``batch``
    backend keeps its trace prep cached between calls, so the cells of a
    group share one decode — with completed interval windows streamed as
    ``("heartbeat", window_dict)`` messages ahead of the item's verdict. A
    failing item reports its in-band failure tag and the next item runs.
    """
    from repro.sim.backends import get_backend
    from repro.sim.intervals import heartbeat_interval_ops
    from repro.sim.invariants import SimInvariantError

    def heartbeat(_index, window) -> None:
        conn.send(("heartbeat", window))

    try:
        for item in _items(job):
            try:
                spec = (
                    item.with_overrides(check_invariants=True)
                    if check_invariants
                    else item
                )
                (result,) = get_backend(spec.resolved_backend()).run_many(
                    [spec],
                    on_heartbeat=heartbeat,
                    heartbeat_ops=heartbeat_interval_ops() or None,
                )
                conn.send(("ok", result.to_record()))
            except SimInvariantError as exc:
                conn.send(
                    ("invariant", {"message": str(exc), "detail": exc.to_dict()})
                )
            except MemoryError:
                conn.send(("oom", {"message": "MemoryError in worker"}))
            except BaseException as exc:  # noqa: BLE001 — report, parent classifies
                conn.send(
                    (
                        "error",
                        {
                            "message": f"{type(exc).__name__}: {exc}",
                            "detail": {"traceback": traceback.format_exc()},
                        },
                    )
                )
    finally:
        conn.close()


#: Message tag -> failure kind for in-band worker reports.
_TAG_KINDS = {
    "invariant": FailureKind.INVARIANT,
    "oom": FailureKind.OOM,
    "error": FailureKind.ERROR,
}


class _Running:
    """Bookkeeping for one in-flight worker process."""

    __slots__ = ("slots", "job", "items", "attempt", "proc", "conn",
                 "deadline", "started", "done", "last_interval")

    def __init__(self, slots, job, attempt, proc, conn, deadline, started):
        self.slots = slots  # outcome position of each item
        self.job = job
        self.items = _items(job)
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.deadline = deadline
        self.started = started
        # Verdicts received so far — also the position of the item in flight.
        self.done = 0
        # The in-flight item's most recent heartbeat window; lands in its
        # failure manifest if the worker times out or dies.
        self.last_interval = None


class ProcessCellExecutor:
    """Runs jobs in worker subprocesses with timeout/retry/backoff.

    ``worker`` is the subprocess entry point — injectable so the tests can
    substitute deliberately hanging/crashing cells without touching the
    simulator. ``mp_context`` defaults to fork where available (cheap on
    Linux; workers inherit nothing mutable they can corrupt — results flow
    back only through the pipe).

    ``jitter_seed``, when set, applies seeded equal-jitter to retry backoff
    (:func:`~repro.harness.failures.jitter_fraction` — deterministic per
    (cell, attempt), so colliding retries de-collide reproducibly).
    ``breaker_threshold`` arms the per-workload circuit breaker: once a
    workload has that many *final* failures and zero successes, its
    remaining cells are skipped (kind ``skipped``, never persisted) instead
    of burning worker slots and retries on a systematically broken row.
    """

    def __init__(
        self,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        workers: Optional[int] = None,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        check_invariants: bool = False,
        worker: Callable = _cell_worker,
        mp_context=None,
        jitter_seed: Optional[int] = None,
        breaker_threshold: Optional[int] = None,
    ) -> None:
        self.timeout = default_timeout() if timeout is None else float(timeout)
        self.retries = default_retries() if retries is None else int(retries)
        self.workers = max(1, default_workers() if workers is None else int(workers))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.check_invariants = check_invariants
        self.worker = worker
        self.jitter_seed = jitter_seed
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self.breaker_threshold = breaker_threshold
        if mp_context is None:
            method = os.environ.get(ENV_MP)
            if method:
                mp_context = get_context(method)
            else:
                try:
                    mp_context = get_context("fork")
                except ValueError:  # platforms without fork
                    mp_context = get_context()
        self.mp = mp_context

    # --------------------------------------------------------- lifecycle --

    def _spawn(
        self,
        slots: Tuple[int, ...],
        job,
        attempt: int,
        now: float,
        chaos: Optional[ChaosEngine] = None,
    ) -> _Running:
        target: Callable = self.worker
        payload: object = job
        if chaos is not None:
            directive = chaos.worker_directive(job, attempt)
            if directive is not None:
                payload = ChaosJob(job=job, directive=directive, worker=target)
                target = _chaos_worker
        parent_conn, child_conn = self.mp.Pipe(duplex=False)
        proc = self.mp.Process(
            target=target,
            args=(child_conn, payload, self.check_invariants),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent's copy; lets EOF surface on worker death
        # One process doing len(items) items of work gets that many budgets.
        budget = self.timeout * len(_items(job))
        return _Running(
            slots, job, attempt, proc, parent_conn, now + budget, now
        )

    @staticmethod
    def _messages(entry: _Running):
        """Yield the worker's pending pipe messages, stopping at EOF."""
        try:
            while entry.conn.poll(0):
                yield entry.conn.recv()
        except (EOFError, OSError):
            return

    def _verdict(
        self, entry: _Running, tag: str, payload
    ) -> Tuple[Optional[SimResult], Optional[CellFailure]]:
        """Decode the in-flight item's verdict message."""
        detail = None
        if tag == "ok":
            try:
                return SimResult.from_record(payload), None
            except (KeyError, TypeError, ValueError) as exc:
                kind = FailureKind.ERROR
                message = f"worker sent an undecodable result: {exc}"
        else:
            kind = _TAG_KINDS.get(tag, FailureKind.ERROR)
            message = str(payload.get("message", tag))
            detail = payload.get("detail")
        elapsed = time.monotonic() - entry.started
        return None, self._failure(
            entry, entry.done, kind, message, elapsed, detail
        )

    def _failure(
        self,
        entry: _Running,
        pos: int,
        kind: FailureKind,
        message: str,
        elapsed: float,
        detail=None,
    ) -> CellFailure:
        """A failure of item ``pos`` of a spawned job."""
        if pos == entry.done and entry.last_interval is not None:
            detail = dict(detail or {})
            detail["last_interval"] = entry.last_interval
        return CellFailure(
            kind=kind,
            message=message,
            cell=entry.items[pos].describe(),
            attempts=entry.attempt + 1,
            elapsed_seconds=round(elapsed, 3),
            detail=detail,
        )

    # -------------------------------------------------------------- runs --

    def run_one(self, spec: RunSpec) -> CellOutcome:
        return self.run_many([spec])[0]

    def _stored(
        self, item, store: ResultStore, quarantine: bool
    ) -> Optional[CellOutcome]:
        """The item's outcome if the store already settles it, else None."""
        cached = store.get(item.key())
        if cached is not None:
            return CellOutcome(spec=item, result=cached, cached=True)
        if not quarantine:
            return None
        prior = store.get_failure(item.key())
        if prior is None:
            return None
        failure = CellFailure(
            kind=FailureKind.QUARANTINED,
            message=(
                f"quarantined: failed {prior.attempts} attempt(s) "
                f"in a previous run ({prior.kind.value}: {prior.message})"
            ),
            cell=item.describe(),
            attempts=prior.attempts,
            detail={"original": prior.to_dict()},
        )
        return CellOutcome(spec=item, failure=failure)

    def run_many(
        self,
        specs: Sequence[RunSpec],
        store: Optional[ResultStore] = None,
        resume: bool = True,
        progress: Optional[Callable[[CellOutcome], None]] = None,
        chaos: Optional[ChaosEngine] = None,
        deadline: Optional[float] = None,
        quarantine: bool = False,
        heartbeat: Optional[Callable] = None,
        stop=None,
    ) -> List[CellOutcome]:
        """Run every job; never raises for a failing item.

        Returns exactly one outcome per item, in input order: a
        :class:`BatchGroup` contributes one outcome per cell, any other job
        one outcome of its own.

        With a ``store`` and ``resume=True``, items whose results are
        already durable are returned as cache hits without spawning a
        worker; fresh results and final failures are persisted as they
        complete, so a killed sweep resumes from its last finished cell.
        This is the one place resume and quarantine are decided: a group
        whose cells are partly settled runs only the rest.

        ``specs`` may be any picklable jobs (not just :class:`RunSpec`)
        when a matching custom ``worker=`` was given at construction;
        without a ``store`` only ``describe()`` is required of them.

        Items of a multi-item job that do not come back ``ok`` — an in-band
        failure, or a worker that crashed or timed out before their verdict
        — re-run as one-item jobs at the next attempt, where the normal
        retry/backoff and failure taxonomy apply: one bad cell, or one
        injected fault, never decides its groupmates' verdicts.

        Campaign-level policies:

        * ``deadline`` — a wall-clock budget (seconds) for this whole call.
          When it expires, in-flight workers are killed and everything not
          yet finished settles with kind ``deadline``. Cut cells are *not*
          persisted as failures: everything completed is in the store, and
          a resumed run picks the cut cells up as pending.
        * ``quarantine`` — cells with a durable failure record in the store
          settle immediately with kind ``quarantined`` (carrying the
          original failure in ``detail``) instead of re-burning their
          retries; clear the failure entry (or run without ``quarantine``)
          to re-judge them.
        * ``chaos`` — a :class:`~repro.harness.chaos.ChaosEngine` whose
          fault plan is injected into worker spawns; every failure is also
          reported back to the engine's journal so injected faults can be
          checked against their observed classification.

        Live progress:

        * ``heartbeat`` — called as ``heartbeat(item, window_dict)`` for
          every streamed interval window, from the scheduler loop (so it
          must be fast and must not raise). The server's SSE feed rides on
          this.
        * ``stop`` — a ``threading.Event``; once set, in-flight workers are
          killed and everything unfinished settles with kind ``deadline``
          ("cancelled" in the message, ``{"cancelled": True}`` in the
          detail). Like a deadline cut, cancelled cells are never persisted
          as failures, so a resumed run picks them up as pending. Checked
          within ~0.5s.
        """
        outcomes: Dict[int, CellOutcome] = {}
        # Each pending entry is (slots, job, attempt, not-before timestamp);
        # ``slots`` holds the outcome position of each of the job's items.
        pending: List[Tuple[Tuple[int, ...], object, int, float]] = []
        cutoff = None if deadline is None else time.monotonic() + float(deadline)
        # Circuit-breaker ledger: final failures / successes per workload.
        final_failures: Dict[object, int] = {}
        successes: Dict[object, int] = {}

        def workload_of(job) -> object:
            return getattr(job, "workload", None)

        def breaker_tripped(job) -> bool:
            if self.breaker_threshold is None:
                return False
            key = workload_of(job)
            if key is None:
                return False
            return (
                successes.get(key, 0) == 0
                and final_failures.get(key, 0) >= self.breaker_threshold
            )

        def record(slot: int, outcome: CellOutcome) -> None:
            outcomes[slot] = outcome
            if outcome.ok:
                key = workload_of(outcome.spec)
                successes[key] = successes.get(key, 0) + 1
            if progress:
                progress(outcome)

        total = 0
        for job in specs:
            live = []
            for item in _items(job):
                stored = None
                if store is not None and resume:
                    stored = self._stored(item, store, quarantine)
                if stored is None:
                    live.append((total, item))
                else:
                    record(total, stored)
                total += 1
            if live:
                slots, items = zip(*live)
                pending.append((slots, _narrow(job, items), 0, 0.0))

        def settle(slot: int, item, attempt: int, result, failure) -> None:
            """Final verdict for one item's attempt — or a retry of it."""
            if result is not None:
                if store is not None:
                    store.put(item.key(), result)
                record(slot, CellOutcome(
                    spec=item, result=result, attempts=attempt + 1
                ))
                return
            if failure.transient and attempt < self.retries:
                jitter = None
                if self.jitter_seed is not None:
                    jitter = jitter_fraction(
                        self.jitter_seed,
                        json.dumps(item.describe(), sort_keys=True, default=str),
                        attempt,
                    )
                delay = backoff_delay(
                    attempt, self.backoff_base, self.backoff_cap, jitter
                )
                pending.append(((slot,), item, attempt + 1, time.monotonic() + delay))
                return
            if failure.kind not in EPHEMERAL_KINDS:
                key = workload_of(item)
                final_failures[key] = final_failures.get(key, 0) + 1
                if store is not None:
                    store.put_failure(item.key(), failure)
            record(slot, CellOutcome(
                spec=item, failure=failure, attempts=attempt + 1
            ))

        def conclude(entry: _Running, pos: int, result, failure) -> None:
            """Settle item ``pos`` of a spawned job with its attempt's verdict."""
            if failure is not None and chaos is not None:
                chaos.observe(entry.job, entry.attempt, failure.kind)
            slot, item = entry.slots[pos], entry.items[pos]
            if (
                failure is None
                or len(entry.items) == 1
                or failure.kind is FailureKind.DEADLINE
            ):
                settle(slot, item, entry.attempt, result, failure)
            else:
                pending.append(((slot,), item, entry.attempt + 1, time.monotonic()))

        def drain(entry: _Running) -> None:
            """Consume pending messages: heartbeats go to the item in
            flight, each verdict settles it and moves on to the next."""
            for tag, payload in self._messages(entry):
                if entry.done == len(entry.items):
                    break
                if tag == "heartbeat":
                    entry.last_interval = payload
                    if heartbeat is not None:
                        heartbeat(entry.items[entry.done], payload)
                    continue
                result, failure = self._verdict(entry, tag, payload)
                entry.done += 1
                entry.last_interval = None
                conclude(entry, entry.done - 1, result, failure)

        def finish(
            entry: _Running,
            kill: bool = False,
            kind: Optional[FailureKind] = None,
            message: str = "",
            detail=None,
        ) -> None:
            """Reap a worker; items still owed a verdict fail with ``kind``
            (or the exit-code classification when ``kind`` is None)."""
            drain(entry)  # salvage verdicts and heartbeats that raced the end
            if kill:
                entry.proc.kill()
            entry.proc.join(5)
            entry.conn.close()
            if entry.done == len(entry.items):
                return
            if kind is None:
                kind, message = classify_exitcode(entry.proc.exitcode)
            elapsed = time.monotonic() - entry.started
            for pos in range(entry.done, len(entry.items)):
                conclude(entry, pos, None, self._failure(
                    entry, pos, kind, message, elapsed,
                    detail=None if detail is None else dict(detail),
                ))

        def settle_skipped(slots, job, attempt: int) -> None:
            key = workload_of(job)
            for slot, item in zip(slots, _items(job)):
                settle(slot, item, attempt, None, CellFailure(
                    kind=FailureKind.SKIPPED,
                    message=(
                        f"circuit breaker open for workload {key!r}: "
                        f"{final_failures.get(key, 0)} failures, 0 successes"
                    ),
                    cell=item.describe(),
                    attempts=attempt,
                    detail={"breaker_threshold": self.breaker_threshold},
                ))

        running: List[_Running] = []
        stopped = False
        while pending or running:
            now = time.monotonic()
            if cutoff is not None and now >= cutoff:
                break
            if stop is not None and stop.is_set():
                stopped = True
                break

            # Launch every eligible pending job into a free worker slot —
            # unless its workload's circuit breaker is open, in which case
            # its items settle as skipped without costing a slot.
            launched = []
            for position, (slots, job, attempt, not_before) in enumerate(pending):
                if breaker_tripped(job):
                    settle_skipped(slots, job, attempt)
                    launched.append(position)
                    continue
                if len(running) >= self.workers:
                    break
                if not_before <= now:
                    running.append(self._spawn(slots, job, attempt, now, chaos))
                    launched.append(position)
            for position in reversed(launched):
                pending.pop(position)

            if not running:
                if not pending:
                    break
                # Only backoff waits remain; sleep until the nearest one
                # (or the campaign deadline, whichever comes first).
                wakeup = min(entry[3] for entry in pending)
                if cutoff is not None:
                    wakeup = min(wakeup, cutoff)
                sleep_for = max(0.0, wakeup - time.monotonic())
                if stop is not None:
                    # Stay responsive to cancellation during backoff waits.
                    sleep_for = min(sleep_for, 0.5)
                time.sleep(sleep_for)
                continue

            # Sleep until a worker speaks/dies, a deadline passes, or a
            # backoff expires — whichever is first.
            horizon = min(entry.deadline for entry in running)
            future_backoffs = [nb for (_, _, _, nb) in pending if nb > now]
            if future_backoffs:
                horizon = min(horizon, min(future_backoffs))
            if cutoff is not None:
                horizon = min(horizon, cutoff)
            wait_for = max(0.0, min(horizon - time.monotonic(), 0.5))
            ready = connection.wait([entry.conn for entry in running], wait_for)

            now = time.monotonic()
            still_running: List[_Running] = []
            for entry in running:
                # A readable pipe may carry only heartbeats; a worker is
                # reaped once it owes no verdicts or is dead.
                if entry.conn in ready:
                    drain(entry)
                if entry.done == len(entry.items) or not entry.proc.is_alive():
                    finish(entry)
                elif now >= entry.deadline:
                    budget = entry.deadline - entry.started
                    finish(
                        entry,
                        kill=True,
                        kind=FailureKind.TIMEOUT,
                        message=f"cell exceeded the {budget:.1f}s timeout",
                    )
                else:
                    still_running.append(entry)
            running = still_running

        # Anything left means a stop request or the campaign deadline ended
        # the loop early: a clean partial-result shutdown. In-flight workers
        # are killed (their finished items are already settled and durable)
        # and everything unfinished settles with kind ``deadline`` —
        # ephemeral, never persisted, so a resumed run picks it up again.
        if pending or running:
            if stopped:
                detail = {"cancelled": True}
                killed = "cancelled: killed by a stop request"
                unstarted = "never started: cancelled by a stop request"
            else:
                seconds = float(deadline)
                detail = {"deadline_seconds": seconds}
                killed = f"killed at the {seconds:.1f}s campaign deadline"
                unstarted = f"never started: campaign hit its {seconds:.1f}s deadline"
            for entry in running:
                finish(
                    entry,
                    kill=True,
                    kind=FailureKind.DEADLINE,
                    message=killed,
                    detail={**detail, "phase": "running"},
                )
            for slots, job, attempt, _ in pending:
                for slot, item in zip(slots, _items(job)):
                    settle(slot, item, attempt, None, CellFailure(
                        kind=FailureKind.DEADLINE,
                        message=unstarted,
                        cell=item.describe(),
                        attempts=attempt,
                        detail={**detail, "phase": "pending"},
                    ))

        return [outcomes[slot] for slot in range(total)]
