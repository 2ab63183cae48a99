"""Cell identity is pinned: every way of building a grid keys it the same.

The digests below are literal: they were produced by the harness's
original cell type, before ``RunSpec`` became the only one. A cell's
``key()`` names its file in every existing result store and its
``describe()`` lands in failure manifests and chaos tokens, so any drift
here orphans stored results.
"""

import time

from repro.api.wire import WireGrid, grid_from_wire, grid_to_wire
from repro.core.config import GENERATIONS
from repro.harness.store import ResultStore
from repro.harness.sweep import build_cells
from repro.server.jobs import JobManager

from tests.server.stubs import FabricatingExecutor

WORKLOADS = ("511.povray", "541.leela")
PREDICTORS = ("phast", "store-sets")
CORE = GENERATIONS["skylake"]
NUM_OPS = 5000
SEED = 7

SKYLAKE_SHA = "4a4ef66d75c170e8d4076ea965eae180ccba9dbc3ad878d2005b7aed70ccd95c"
PINNED = [
    ("511.povray", "phast",
     "18bbf69e89bd0f23a719f0787f34778da7b359f8a3b45e541fa522d346658abd"),
    ("511.povray", "store-sets",
     "3408264b3a9392373e6bcc6ab8548870b2ba93e2f230600190f282527204b36c"),
    ("541.leela", "phast",
     "853c17b5e5362a02020b1ae7bf6f75695cc4b19ca97fe4299bda07056c37384f"),
    ("541.leela", "store-sets",
     "5ca088103d26485c3806fdc60f3b6dbf04e398d6700747c63571a9ebd56bfc28"),
]


def _describe(workload, predictor):
    return {
        "code_version": "1",
        "config_sha256": SKYLAKE_SHA,
        "core": "skylake",
        "num_ops": NUM_OPS,
        "predictor": predictor,
        "schema": 2,
        "seed": SEED,
        "workload": workload,
    }


def _assert_pinned(cells):
    assert [(cell.key().digest, cell.describe()) for cell in cells] == [
        (digest, _describe(workload, predictor))
        for workload, predictor, digest in PINNED
    ]


def test_build_cells_keys_are_pinned():
    _assert_pinned(
        build_cells(WORKLOADS, PREDICTORS, config=CORE, num_ops=NUM_OPS, seed=SEED)
    )


def test_wire_grid_round_trip_keys_are_pinned():
    grid = WireGrid(
        workloads=WORKLOADS,
        predictors=PREDICTORS,
        config=CORE,
        num_ops=NUM_OPS,
        seed=SEED,
    )
    _assert_pinned(grid_from_wire(grid_to_wire(grid)).specs())


def test_job_submission_keys_are_pinned(tmp_path):
    """The cells a server job hands its executor carry the pinned keys."""
    executor = FabricatingExecutor()
    manager = JobManager(
        ResultStore(tmp_path / "store"),
        executor_factory=lambda check_invariants: executor,
        sharding=False,
    )
    seen = []
    run_cell = executor._run_cell

    def recording(cell, *args):
        seen.append(cell)
        return run_cell(cell, *args)

    executor._run_cell = recording
    try:
        grid = grid_to_wire(
            WireGrid(
                workloads=WORKLOADS,
                predictors=PREDICTORS,
                config=CORE,
                num_ops=NUM_OPS,
                seed=SEED,
            )
        )
        job, receipt = manager.submit(grid_from_wire(grid).specs())
        deadline = time.monotonic() + 30
        while not job.done:
            assert time.monotonic() < deadline, f"job stuck in {job.state!r}"
            time.sleep(0.02)
        assert job.state == "completed"
        assert receipt["scheduled"] == len(PINNED)
        assert [cell.digest for cell in job.cells] == [d for _, _, d in PINNED]
        _assert_pinned(
            sorted(seen, key=lambda cell: (cell.workload, cell.predictor))
        )
    finally:
        manager.close()
