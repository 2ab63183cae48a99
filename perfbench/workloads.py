"""The four workloads: set-up, one operation, and what each reports.

``sweep-grouped``, ``sweep-solo`` and ``resweep-cached`` run ``repro
sweep`` as a separate CLI process, the way a user does; an operation is
one sweep, timed from process start until it exits with every result
durable. ``serve-mixed`` runs a ``SweepServer`` in this process and drives
it with two closed-loop ``SweepClient`` callers; an operation is one
request. After every operation the cells it made durable are checked
against the reference digests (``golden.py``), outside the timed region.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import specs
from golden import check_entries, check_store, read_json, store_entries
from specs import Cell, SweepPlan

HERE = Path(__file__).resolve().parent
#: Set-ups per untraced run; ``setup_s`` is their median. A cold sweep's
#: set-up is a stateless ~0.5 s import probe instead: PROBES_PER_SWEEP of
#: them run before every sweep, so their samples span the run as the
#: sweeps do.
SETUP_REPEATS = 3
PROBES_PER_SWEEP = 3

#: Child process groups still running; the watchdog in run.py kills them.
LIVE_GROUPS: set = set()


@dataclass
class Context:
    """Where a run reads the program and writes its stores."""

    root: Path
    work: Path
    golden: Dict[str, str]
    seed: int

    @property
    def src(self) -> Path:
        return self.root / "src"

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.src), env.get("PYTHONPATH")])
        )
        return env

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class ChildRun:
    ok: bool
    seconds: float
    rss_kb: int
    start_ns: int


def run_child(ctx: Context, cmd: List[str]) -> ChildRun:
    """Run a child to completion; its wall time and peak RSS (with its children)."""
    with open(ctx.work / "children.log", "ab") as log:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=log,
            env=ctx.env(),
            cwd=ctx.work,
            start_new_session=True,
        )
        LIVE_GROUPS.add(proc.pid)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            LIVE_GROUPS.discard(proc.pid)
        end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode == 0, (end - start) / 1e9, usage.ru_maxrss, start)


def run_cli(
    ctx: Context,
    args,
    store: Path,
    trace_dir: Optional[Path] = None,
    op: str = "0",
) -> ChildRun:
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", *args, "--store", str(store)]
    else:
        cmd = [
            sys.executable, str(HERE / "traced_cli.py"), str(trace_dir), op, "--",
            *args, "--store", str(store),
        ]
    return run_child(ctx, cmd)


def import_probe(ctx: Context) -> ChildRun:
    """A fresh interpreter importing the CLI: the start-up every sweep pays."""
    return run_child(ctx, [sys.executable, "-c", "import repro.cli"])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


@dataclass
class Tally:
    """Cells and requests attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def add(self, attempted: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        self.reasons.extend(problems[: max(0, 5 - len(self.reasons))])


@dataclass(frozen=True)
class _InstantJob:
    """An executor job whose worker answers at once with a canned record."""

    index: int
    record: dict

    def describe(self) -> dict:
        return {"instant": self.index}


def _instant_worker(conn, job: _InstantJob, check_invariants: bool) -> None:
    conn.send(("ok", job.record))
    conn.close()


def job_overhead_seconds(jobs: int = 16) -> float:
    """Spawn, pipe and reap cost of one executor job, through its worker hook."""
    from repro.core.pipeline import PipelineStats
    from repro.harness.executor import ProcessCellExecutor
    from repro.mdp.base import MDPStats
    from repro.sim.metrics import SimResult

    record = SimResult(
        workload="instant", predictor="instant", core="instant",
        pipeline=PipelineStats(committed_uops=1, cycles=1), mdp=MDPStats(),
    ).to_record()
    executor = ProcessCellExecutor(worker=_instant_worker, workers=1, retries=0)
    start = time.perf_counter()
    outcomes = executor.run_many([_InstantJob(index, record) for index in range(jobs)])
    elapsed = time.perf_counter() - start
    if not all(outcome.ok for outcome in outcomes):
        raise RuntimeError("an instant executor job failed")
    return elapsed / jobs


# ------------------------------------------------------------------ sweeps --


@dataclass
class SweepOp:
    seconds: float
    cells: int
    sim_uops: int
    rss_kb: int
    start_ns: int


class SweepWorkload:
    """A ``repro sweep`` CLI invocation per operation.

    ``plans(op)`` gives the sweep of operation ``op``. ``missing`` is None
    for a cold sweep (an empty store every time); otherwise setup prefills
    a master store with the plan and then deletes ``missing``, and every
    operation starts from a copy of it.
    """

    def __init__(self, ctx: Context, plans: Callable[[int], SweepPlan], missing=None) -> None:
        self.ctx = ctx
        self.plans = plans
        self.missing = None if missing is None else tuple(missing)
        self.master: Optional[Path] = None
        self.tally = Tally()

    @property
    def cold(self) -> bool:
        return self.missing is None

    def setup(self, trace_dir: Optional[Path] = None) -> float:
        start = time.perf_counter()
        if trace_dir is None:
            probe = import_probe(self.ctx)
        else:
            probe = run_child(
                self.ctx,
                [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir), "setup", "--"],
            )
        problems = [] if probe.ok else ["import probe failed"]
        if self.missing is not None:
            self.master = self.ctx.fresh_dir("master")
            run = run_cli(self.ctx, self.plans(0).args, self.master, trace_dir, "setup")
            if not run.ok:
                problems.append("prefill sweep failed")
            entries = store_entries(self.master / "results")
            for cell in self.missing:
                if cell.key in entries:
                    entries[cell.key][0].unlink()
        elapsed = time.perf_counter() - start
        self.tally.add(1, problems)
        return elapsed

    def operation(self, index: int, trace_dir: Optional[Path] = None) -> SweepOp:
        store = self.ctx.work / f"op-{index}"
        shutil.rmtree(store, ignore_errors=True)
        if self.master is not None:
            shutil.copytree(self.master, store)
        plan = self.plans(index)
        run = run_cli(self.ctx, plan.args, store, trace_dir, str(index))
        verdict = check_store(store, plan.cells, self.ctx.golden)
        problems = list(verdict.problems)
        if not run.ok:
            problems.append(f"sweep {index} exited non-zero")
        manifest = read_json(store / "failure_manifest.json") or {}
        if manifest.get("failure_count", 1) != 0:
            problems.append(f"sweep {index} reported failures")
        if manifest.get("trace_rebuilds") not in (0, None):
            problems.append(f"sweep {index} rebuilt traces in workers")
        self.tally.add(len(plan.cells) + 1, problems)
        simulated = plan.cells if self.missing is None else self.missing
        sim_uops = sum(verdict.uops.get(cell.key, 0) for cell in simulated)
        shutil.rmtree(store, ignore_errors=True)
        return SweepOp(run.seconds, len(plan.cells), sim_uops, run.rss_kb, run.start_ns)

    @staticmethod
    def end_to_end(setups: List[float], ops: List[SweepOp]) -> Dict[str, float]:
        window = sum(op.seconds for op in ops)
        return {
            "setup_s": median(setups),
            "job_s.p50": median(op.seconds for op in ops),
            "cells_per_s": median(op.cells / op.seconds for op in ops),
            "sim_uops_per_s": median(op.sim_uops / op.seconds for op in ops),
            "requests_per_s": len(ops) / window if window else 0.0,
        }

    def close(self) -> None:
        pass


# ------------------------------------------------------------------- serve --


class _ServerThread:
    """A live ``SweepServer`` on an ephemeral loopback port."""

    def __init__(self, manager) -> None:
        import asyncio

        from repro.server.http import SweepServer

        self.manager = manager
        self.server = SweepServer(manager, port=0)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, name="perfbench-server")
        self.thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server did not start")
        self.url = f"http://127.0.0.1:{self.server.port}"

    def _run(self) -> None:
        import asyncio

        asyncio.set_event_loop(self.loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            await self.server.serve_forever()

        try:
            self.loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass
        finally:
            self.loop.close()

    def close(self) -> None:
        import asyncio

        async def stop() -> None:
            await self.server.close()
            # Connection handlers cancelled mid-close are expected here.
            self.loop.set_exception_handler(lambda loop, context: None)
            for task in asyncio.all_tasks(self.loop):
                if task is not asyncio.current_task():
                    task.cancel()

        asyncio.run_coroutine_threadsafe(stop(), self.loop).result(timeout=60)
        self.thread.join(timeout=60)


@dataclass
class Phase:
    """Everything one closed-loop phase of serve-mixed measured."""

    seconds: float = 0.0
    requests: int = 0
    job_s: List[float] = field(default_factory=list)
    cached_job_s: List[float] = field(default_factory=list)
    predict_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    cells: int = 0
    sim_uops: int = 0
    submitted_cells: int = 0
    cached_cells: int = 0


def merge_phases(phases: List[Phase]) -> Phase:
    """One phase holding the samples and totals of several."""
    total = Phase()
    for phase in phases:
        for name, value in vars(phase).items():
            setattr(total, name, getattr(total, name) + value)
    return total


class ServeWorkload:
    """Two closed-loop callers against an in-process sharded server."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.tally = Tally()
        self.train = specs.serve_train_plan()
        self.pool = iter(specs.serve_new_jobs(ctx.seed))
        self.schedules = [
            iter(specs.serve_requests(ctx.seed, caller, 20_000))
            for caller in range(specs.SERVE_CALLERS)
        ]
        self.jobs_submitted = 0
        self.server: Optional[_ServerThread] = None
        self.train_s = 0.0
        self.train_start_ns = 0
        self.recorder = None
        self._lock = threading.Lock()
        self._setups = 0

    def setup(self, trace_dir: Optional[Path] = None) -> float:
        from repro.harness.store import ResultStore
        from repro.server.jobs import JobManager
        from repro.surrogate.dataset import build_store_dataset
        from repro.surrogate.model import train_model
        from repro.surrogate.triage import SurrogateStore, SurrogateTier

        self.close()
        self._setups += 1
        store_root = self.ctx.fresh_dir(f"serve-store-{self._setups}")
        start = time.perf_counter()
        problems = []
        if not import_probe(self.ctx).ok:
            problems.append("import probe failed")
        run = run_cli(self.ctx, self.train.args, store_root, trace_dir, "setup")
        if not run.ok:
            problems.append("training sweep failed")
        self.train_start_ns = run.start_ns
        train_start = time.perf_counter()
        model = train_model(build_store_dataset(store_root))
        self.train_s = time.perf_counter() - train_start
        tier = SurrogateTier(model, mode="off", store=SurrogateStore(store_root))
        manager = JobManager(
            ResultStore(store_root), workers=1, dispatchers=2, surrogate=tier
        )
        self.server = _ServerThread(manager)
        elapsed = time.perf_counter() - start
        problems += check_store(store_root, self.train.cells, self.ctx.golden).problems
        self.tally.add(len(self.train.cells) + 1, problems)
        self.jobs_submitted = 0
        return elapsed

    # -- one request of each kind; each returns the problems it found --

    def _entry(self, cell: Cell) -> Optional[dict]:
        from repro.core.config import CoreConfig
        from repro.harness.store import cell_key

        key = cell_key(cell.workload, cell.predictor, CoreConfig(), cell.num_ops, cell.seed)
        return read_json(self.server.manager.store.result_path(key))

    def _check_cells(self, cells) -> "tuple":
        verdict = check_entries(
            {cell.key: self._entry(cell) for cell in cells}, cells, self.ctx.golden
        )
        return verdict.problems, sum(verdict.uops.values())

    def _new_job(self, client, cells, phase: Phase) -> List[str]:
        start = time.perf_counter()
        receipt = client.submit_grid(
            [cells[0].workload],
            [cell.predictor for cell in cells],
            num_ops=cells[0].num_ops,
            seed=cells[0].seed,
        )
        for _event in client.stream(receipt["id"]):
            pass
        status = client.status(receipt["id"])
        seconds = time.perf_counter() - start
        problems, uops = self._check_cells(cells)
        if receipt["scheduled"] != len(cells):
            problems.append(f"new job scheduled {receipt['scheduled']} of {len(cells)}")
        states = {cell["state"] for cell in status["cells"]}
        if status["state"] != "completed" or states != {"ok"}:
            problems.append(f"new job ended {status['state']} with cells {sorted(states)}")
        with self._lock:
            phase.job_s.append(seconds)
            if status.get("started_at") and status.get("finished_at"):
                phase.queue_wait_s.append(status["started_at"] - status["submitted_at"])
                phase.run_s.append(status["finished_at"] - status["started_at"])
            phase.cells += len(cells)
            phase.sim_uops += uops
            phase.submitted_cells += receipt["cells"]
            phase.cached_cells += receipt["cached"]
        return problems

    def _resubmit(self, client, cells, phase: Phase) -> List[str]:
        workloads = sorted({cell.workload for cell in cells})
        predictors = [cell.predictor for cell in cells]
        start = time.perf_counter()
        receipt = client.submit_grid(workloads, predictors, num_ops=cells[0].num_ops)
        seconds = time.perf_counter() - start
        problems, _ = self._check_cells(cells)
        if receipt["scheduled"] != 0 or receipt["cached"] != len(cells):
            problems.append(f"resubmission scheduled {receipt['scheduled']} cells")
        if receipt["state"] != "completed":
            problems.append(f"resubmission left {receipt['state']}")
        with self._lock:
            phase.cached_job_s.append(seconds)
            phase.cells += len(cells)
            phase.submitted_cells += receipt["cells"]
            phase.cached_cells += receipt["cached"]
        return problems

    def _predict(self, client, cells, phase: Phase) -> List[str]:
        workloads = sorted({cell.workload for cell in cells})
        predictors = sorted({cell.predictor for cell in cells})
        start = time.perf_counter()
        payload = client.predict(workloads, predictors, num_ops=cells[0].num_ops)
        seconds = time.perf_counter() - start
        problems = []
        predictions = payload.get("predictions", [])
        if len(predictions) != len(cells) or "id" in payload:
            problems.append("predict answered the wrong grid or made a job")
        if not all(p.get("surrogate") is True for p in predictions):
            problems.append("predict returned an untagged estimate")
        with self._lock:
            phase.predict_s.append(seconds)
        return problems

    def _caller(self, caller: int, deadline: float, phase: Phase) -> None:
        from repro.client import SweepClient

        client = SweepClient(self.server.url, timeout=120)
        schedule = self.schedules[caller]
        while time.perf_counter() < deadline:
            request = next(schedule)
            if request.kind == "new":
                with self._lock:
                    cells = next(self.pool, None)
                if cells is None:
                    return  # the run's never-repeating jobs are used up
            if self.recorder is not None:
                self.recorder.set_op(f"{caller}-{phase.requests}-{time.perf_counter_ns()}")
            try:
                if request.kind == "new":
                    problems = self._new_job(client, cells, phase)
                elif request.kind == "cached":
                    problems = self._resubmit(client, request.cells, phase)
                else:
                    problems = self._predict(client, request.cells, phase)
            except Exception as exc:  # noqa: BLE001 — counted; the loop goes on
                problems = [f"{request.kind} request failed: {type(exc).__name__}: {exc}"]
            with self._lock:
                if request.kind != "predict":
                    self.jobs_submitted += 1
                phase.requests += 1
                self.tally.add(1, problems)

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        callers = [
            threading.Thread(target=self._caller, args=(index, start + seconds, phase))
            for index in range(specs.SERVE_CALLERS)
        ]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=170)
        phase.seconds = time.perf_counter() - start
        made = len(self.server.manager.jobs())
        if made != self.jobs_submitted:
            self.tally.add(1, [f"{made} jobs exist for {self.jobs_submitted} submissions"])
        return phase

    @staticmethod
    def end_to_end(setups: List[float], phase: Phase) -> Dict[str, float]:
        elapsed = phase.seconds or 1.0
        return {
            "setup_s": median(setups),
            "job_s.p50": median(phase.job_s),
            "job_s.p90": percentile(phase.job_s, 0.9),
            "cached_job_s.p50": median(phase.cached_job_s),
            "predict_s.p50": median(phase.predict_s),
            "cells_per_s": phase.cells / elapsed,
            "sim_uops_per_s": phase.sim_uops / elapsed,
            "requests_per_s": phase.requests / elapsed,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
