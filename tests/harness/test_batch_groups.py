"""Batch-group scheduling: one worker job, one verdict per cell.

The contract under test: a :class:`~repro.harness.executor.BatchGroup` is
*scheduling* aggregation only. A group is a multi-item job under the one
worker protocol — one ``("ok", record)`` or in-band failure verdict per
cell, in cell order — and ``run_many`` returns one outcome per cell, in
input order. Results, failures, retries, store entries and chaos
classification all stay per-cell: a worker crash mid-group keeps every
settled verdict and re-runs only the unfinished cells, as one-item jobs,
so one bad cell (or one injected fault) can never poison the verdict of
its groupmates.

Fake workers are module-level (picklable) and misbehave on purpose,
mirroring ``tests/harness/test_executor.py``. Each one serves both shapes:
it walks the job's cells, or the job itself when it is a lone cell.
"""

import os
import signal

import pytest

from repro.core.pipeline import PipelineStats
from repro.harness.chaos import FaultPlan
from repro.harness.executor import (
    BatchGroup,
    CellSpec,
    ProcessCellExecutor,
    _cell_worker,
)
from repro.harness.failures import FailureKind
from repro.harness.store import ResultStore
from repro.harness.sweep import SweepRunner, build_cells
from repro.mdp.base import MDPStats
from repro.sim.metrics import SimResult


def _result_for(cell):
    return SimResult(
        workload=cell.workload,
        predictor=cell.predictor,
        core=cell.config.name,
        pipeline=PipelineStats(committed_uops=100, cycles=50),
        mdp=MDPStats(),
    )


def _cells_of(job):
    return job.cells if isinstance(job, BatchGroup) else (job,)


def _ok_worker(conn, job, check_invariants):
    for cell in _cells_of(job):
        conn.send(("ok", _result_for(cell).to_record()))
    conn.close()


def _die_after_two_worker(conn, job, check_invariants):
    """Sends two verdicts, then dies hard: the salvage scenario. A lone
    (retried) cell succeeds."""
    for index, cell in enumerate(_cells_of(job)):
        if index == 2:
            os.kill(os.getpid(), signal.SIGSEGV)
        conn.send(("ok", _result_for(cell).to_record()))
    conn.close()


def _one_bad_cell_worker(conn, job, check_invariants):
    """Cell p1 fails in-band inside a group; the rest of the group still
    completes. A lone (retried) cell succeeds."""
    cells = _cells_of(job)
    for cell in cells:
        if cell.predictor == "p1" and len(cells) > 1:
            conn.send(("error", {"message": "ValueError: seeded"}))
        else:
            conn.send(("ok", _result_for(cell).to_record()))
    conn.close()


def _one_bad_cell_then_crash_worker(conn, job, check_invariants):
    """As :func:`_one_bad_cell_worker`, but a lone cell crashes."""
    cells = _cells_of(job)
    if len(cells) == 1:
        os._exit(13)
    _one_bad_cell_worker(conn, job, check_invariants)


def _group(n=4, workload="wl"):
    cells = tuple(
        CellSpec(workload=workload, predictor=f"p{i}", num_ops=100)
        for i in range(n)
    )
    return BatchGroup(cells=cells, backend="batch")


def executor(worker, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("retries", 1)
    return ProcessCellExecutor(worker=worker, **kwargs)


class TestGroupScheduling:
    def test_full_group_success_settles_every_cell(self):
        group = _group(4)
        outcomes = executor(_ok_worker).run_many([group])
        assert len(outcomes) == 4
        for outcome, cell in zip(outcomes, group.cells):
            assert outcome.spec == cell
            assert outcome.ok
            assert outcome.attempts == 1
            assert outcome.result.predictor == cell.predictor

    def test_results_persisted_per_cell(self, tmp_path):
        group = _group(3)
        store = ResultStore(tmp_path / "store")
        executor(_ok_worker).run_many([group], store=store)
        for cell in group.cells:
            assert store.get(cell.key()) is not None

    def test_group_timeout_budget_scales_with_cells(self):
        group = _group(5)
        ex = executor(_ok_worker, timeout=2.0)
        entry = ex._spawn(tuple(range(5)), group, 0, now=100.0)
        try:
            assert entry.deadline == pytest.approx(100.0 + 2.0 * 5)
        finally:
            entry.proc.kill()
            entry.proc.join(5)
            entry.conn.close()

    def test_progress_fires_per_cell_not_per_group(self):
        seen = []
        group = _group(3)
        executor(_ok_worker).run_many([group], progress=seen.append)
        assert [o.spec.predictor for o in seen] == ["p0", "p1", "p2"]


class TestPerCellSalvage:
    def test_crash_mid_group_salvages_finished_cells(self, tmp_path):
        """A dead group worker keeps its settled verdicts; the unfinished
        cells re-run as one-item jobs and settle into their own slots."""
        group = _group(4)
        store = ResultStore(tmp_path / "store")
        outcomes = executor(_die_after_two_worker).run_many(
            [group], store=store
        )
        assert [o.spec.predictor for o in outcomes] == ["p0", "p1", "p2", "p3"]
        assert all(o.ok for o in outcomes)
        # cells 0 and 1 settled before the SIGSEGV, on the group's attempt
        assert [o.attempts for o in outcomes[:2]] == [1, 1]
        # cells 2 and 3 were re-run alone, one attempt later
        assert [o.attempts for o in outcomes[2:]] == [2, 2]
        # every cell of the group has a durable store entry either way
        for cell in group.cells:
            assert store.get(cell.key()) is not None

    def test_in_band_cell_failure_retries_only_that_cell(self):
        group = _group(3)
        outcomes = executor(_one_bad_cell_worker).run_many([group])
        assert [o.spec.predictor for o in outcomes] == ["p0", "p1", "p2"]
        assert all(o.ok for o in outcomes)
        assert [o.attempts for o in outcomes] == [1, 2, 1]

    def test_no_whole_group_poison_on_persistent_solo_failure(self, tmp_path):
        """Even when the solo retry also fails, only that cell fails."""
        group = _group(3)
        store = ResultStore(tmp_path / "store")
        outcomes = executor(
            _one_bad_cell_then_crash_worker, retries=0
        ).run_many([group], store=store)
        assert [o.ok for o in outcomes] == [True, False, True]
        solo = outcomes[1]
        assert solo.spec.predictor == "p1"
        assert solo.failure.kind is FailureKind.CRASH
        # the failure record names the cell, not the group
        assert solo.failure.cell.get("predictor") == "p1"
        assert store.get(group.cells[0].key()) is not None
        assert store.get_failure(group.cells[1].key()) is not None
        assert store.get(group.cells[2].key()) is not None

    def test_mixed_jobs_keep_input_order(self, tmp_path):
        """A dying group, lone cells and a cached cell: one outcome per
        item, in input order, whatever order they settled in."""
        store = ResultStore(tmp_path / "store")
        cached = CellSpec(workload="wl", predictor="cached", num_ops=100)
        store.put(cached.key(), _result_for(cached))
        lone_a = CellSpec(workload="wl", predictor="lone-a", num_ops=100)
        lone_b = CellSpec(workload="wl", predictor="lone-b", num_ops=100)
        group = _group(4)
        jobs = [lone_a, group, cached, lone_b]
        outcomes = executor(_die_after_two_worker, workers=2).run_many(
            jobs, store=store
        )
        assert [o.spec.predictor for o in outcomes] == [
            "lone-a", "p0", "p1", "p2", "p3", "cached", "lone-b",
        ]
        assert all(o.ok for o in outcomes)
        assert [o.cached for o in outcomes] == [
            False, False, False, False, False, True, False,
        ]


class TestGroupDeadline:
    def test_pending_group_cut_settles_every_cell_as_deadline(self):
        """A group the campaign deadline caught still pending settles with
        one deadline verdict per cell — nothing persisted, nothing lost."""
        group = _group(3)
        # timeout=10 with a deadline of 0: the scheduler cuts immediately
        outcomes = executor(_ok_worker).run_many([group], deadline=0.0)
        assert len(outcomes) == 3
        for outcome, cell in zip(outcomes, group.cells):
            assert outcome.spec == cell
            assert outcome.failure is not None
            assert outcome.failure.kind is FailureKind.DEADLINE
            assert outcome.failure.detail["phase"] == "pending"


class TestChaosSemantics:
    def test_injected_group_crash_classifies_per_cell(self, tmp_path):
        """The chaos gate for batch groups: an injected worker crash on a
        group settles as per-cell verdicts (salvage + solo retries), and
        the journal's observed kind matches the injected fault."""
        preds = ["phast", "store-sets", "cht"]
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(
            store, ProcessCellExecutor(timeout=120, retries=0, workers=1)
        )
        cells = build_cells(
            ["511.povray"], preds, num_ops=2000, backend="batch"
        )
        report = runner.run(
            cells, fault_plan=FaultPlan(seed=7, crash_rate=1.0)
        )
        # one outcome per input cell, each its own crash verdict
        assert len(report.outcomes) == len(cells)
        for outcome in report.outcomes:
            assert outcome.failure is not None
            assert outcome.failure.kind is FailureKind.CRASH
            assert (
                outcome.failure.cell.get("predictor")
                == outcome.spec.predictor
            )
        # every injected fault observed as the kind it simulates
        for event in report.chaos.events:
            if event.site.startswith("worker."):
                assert event.observed == FailureKind.CRASH.value


def _digests(cells):
    return {cell.key().digest for cell in cells}


class TestSweepPlanning:
    def test_reference_cells_never_grouped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(["511.povray"], ["phast", "nosq"], num_ops=100)
        jobs = runner._plan_jobs(cells, _digests(cells))
        assert all(isinstance(job, CellSpec) for job in jobs)

    def test_batch_cells_grouped_by_trace(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(
            ["511.povray", "541.leela"],
            ["phast", "nosq", "cht"],
            num_ops=100,
            backend="batch",
        )
        jobs = runner._plan_jobs(cells, _digests(cells))
        groups = [job for job in jobs if isinstance(job, BatchGroup)]
        assert len(groups) == 2  # one per trace
        assert sorted(g.workload for g in groups) == ["511.povray", "541.leela"]
        assert all(len(g.cells) == 3 for g in groups)

    def test_cached_cells_stay_solo(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(
            ["511.povray"], ["phast", "nosq", "cht"], num_ops=100,
            backend="batch",
        )
        # the store already held cells[0] when the run began
        jobs = runner._plan_jobs(cells, _digests(cells[1:]))
        groups = [job for job in jobs if isinstance(job, BatchGroup)]
        solos = [job for job in jobs if isinstance(job, CellSpec)]
        assert len(groups) == 1 and len(groups[0].cells) == 2
        assert [s.predictor for s in solos] == ["phast"]

    def test_singleton_groups_stay_solo(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(
            ["511.povray"], ["phast"], num_ops=100, backend="batch"
        )
        jobs = runner._plan_jobs(cells, _digests(cells))
        assert all(isinstance(job, CellSpec) for job in jobs)

    def test_uncovered_cells_stay_solo(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(
            store,
            ProcessCellExecutor(check_invariants=True),
            precompile=False,
        )
        cells = build_cells(
            ["511.povray"], ["phast", "nosq"], num_ops=100, backend="batch"
        )
        jobs = runner._plan_jobs(cells, _digests(cells))
        assert all(isinstance(job, CellSpec) for job in jobs)

    def test_unknown_backend_cells_fail_solo_with_clear_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        runner = SweepRunner(store, ProcessCellExecutor(), precompile=False)
        cells = build_cells(
            ["511.povray"], ["phast", "nosq"], num_ops=100, backend="bogus"
        )
        jobs = runner._plan_jobs(cells, _digests(cells))
        assert all(isinstance(job, CellSpec) for job in jobs)


class TestGroupWorkerBody:
    def test_real_group_worker_streams_per_cell(self):
        """The default worker against the real simulator: every cell of a
        small group sends one ok verdict, in cell order."""
        import multiprocessing

        cells = tuple(
            CellSpec(workload="511.povray", predictor=p, num_ops=1500)
            for p in ("ideal", "always-wait")
        )
        group = BatchGroup(cells=cells, backend="batch")
        parent, child = multiprocessing.Pipe(duplex=False)
        _cell_worker(child, group, False)
        messages = []
        try:
            while parent.poll(0):
                messages.append(parent.recv())
        except EOFError:
            pass  # worker closed its end after the last verdict
        parent.close()
        verdicts = [m for m in messages if m[0] != "heartbeat"]
        assert [m[0] for m in verdicts] == ["ok", "ok"]
        for (_, record), cell in zip(verdicts, cells):
            result = SimResult.from_record(record)
            assert result.predictor == cell.predictor
            assert result.pipeline.committed_uops > 0


class TestLoneBatchCell:
    """A batch cell that forms no group is a one-item job on the same
    worker path as a group's cells, so it runs the fused engine."""

    def test_lone_covered_cell_runs_the_fused_engine(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing

        from repro.sim import backends
        from repro.sim.backends import batch
        from repro.sim.simulator import run_spec

        monkeypatch.delenv("REPRO_HEARTBEAT_OPS", raising=False)
        cell = CellSpec(
            workload="511.povray", predictor="phast", num_ops=3000,
            backend="batch",
        )
        expected = run_spec(cell.run_spec().with_overrides(backend="reference"))

        def no_fallback(*args, **kwargs):
            raise AssertionError("a covered cell fell back to reference")

        # Forked workers inherit the patch (and a fresh backend instance).
        monkeypatch.setattr(batch, "execute_reference", no_fallback)
        monkeypatch.setattr(backends, "_INSTANCES", {})
        runner = SweepRunner(
            ResultStore(tmp_path / "store"),
            ProcessCellExecutor(
                timeout=120.0,
                retries=0,
                mp_context=multiprocessing.get_context("fork"),
            ),
        )
        report = runner.run([cell])
        (outcome,) = report.outcomes
        assert outcome.ok, outcome.failure
        assert outcome.result.to_record() == expected.to_record()

    def test_uncovered_cell_streams_heartbeats(self, monkeypatch):
        """Invariant checking takes a batch cell outside the fused engine's
        envelope; its reference fallback still streams heartbeat windows."""
        monkeypatch.setenv("REPRO_HEARTBEAT_OPS", "1000")
        cell = CellSpec(
            workload="511.povray", predictor="phast", num_ops=3000,
            backend="batch",
        )
        windows = []
        outcome = ProcessCellExecutor(
            timeout=120.0, retries=0, check_invariants=True
        ).run_many(
            [cell], heartbeat=lambda item, window: windows.append((item, window))
        )[0]
        assert outcome.ok, outcome.failure
        assert len(windows) >= 2
        assert all(item == cell for item, _ in windows)
        assert [w["index"] for _, w in windows] == list(range(len(windows)))
