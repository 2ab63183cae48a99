"""Seeded inputs for the four benchmark workloads.

Everything the program receives is generated here from the benchmark's
``--seed``: the ``repro sweep`` argument lists, the prefilled-store gaps,
and the serve-mixed request mix. The same seed always yields the same
inputs. Each generator draws from a bounded *universe* of cells whose
reference results are committed as digests in ``golden.json``
(see ``golden.py`` and ``make_golden.py``), so every cell a run makes
durable can be checked against the reference interpreter's bytes.

A seed changes only *which* traces a run simulates (trace seeds, which
profiles and predictors the prefilled store lacks, which cells a request
names), never how much work an operation does, so runs with different
seeds measure the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The 31 SPEC CPU2017 profiles, in ``spec_suite()`` order (``--subset N``
#: takes the first N). Copied so the benchmark can enumerate its universe
#: without importing the program.
PROFILES: Tuple[str, ...] = (
    "500.perlbench_1", "500.perlbench_2", "500.perlbench_3", "502.gcc_1",
    "502.gcc_2", "502.gcc_3", "502.gcc_4", "502.gcc_5", "503.bwaves",
    "505.mcf", "507.cactuBSSN", "508.namd", "510.parest", "511.povray",
    "519.lbm", "520.omnetpp", "521.wrf", "523.xalancbmk", "525.x264_1",
    "525.x264_2", "525.x264_3", "526.blender", "527.cam4", "531.deepsjeng",
    "538.imagick", "541.leela", "544.nab", "548.exchange2", "549.fotonik3d",
    "554.roms", "557.xz",
)

#: Predictors one grouped trace feeds (all batch-covered, kernels included).
GROUPED_PREDICTORS: Tuple[str, ...] = (
    "phast", "nosq", "store-sets", "mdp-tage", "mdp-tage-s", "cht",
    "store-vector", "perceptron-mdp",
)
RESWEEP_PREDICTORS: Tuple[str, ...] = GROUPED_PREDICTORS + ("ideal", "omnipredictor")
#: The surrogate's training grid predictors; new serve cells cycle them too.
SERVE_PREDICTORS: Tuple[str, ...] = ("store-sets", "nosq", "mdp-tage", "phast")

GROUPED_SUBSET = 3
GROUPED_OPS = 10000
SOLO_SUBSET = 31
SOLO_PREDICTOR = "phast"
SOLO_OPS = 2500
RESWEEP_SUBSET = 20
RESWEEP_OPS = 1500
#: How many predictors of each profile the prefilled store lacks: 20 of
#: the 200 cells, on 13 profiles. How missing cells cluster sets how many
#: traces, batch groups and lone cells (which run on ``reference``) a
#: re-sweep simulates, so the shape is fixed and a seed picks only which
#: profiles and predictors fill it. It is the typical shape of 20 cells
#: drawn at random from the grid.
RESWEEP_MISSING_SHAPE: Tuple[int, ...] = (4, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)
SERVE_TRAIN_PROFILES = 16
SERVE_OPS = 1500
#: serve-mixed new-cell jobs: seeds fall into SERVE_SLOTS disjoint slots of
#: SERVE_SLOT_JOBS never-repeating jobs; each job is one fresh trace run
#: under every SERVE_PREDICTORS entry.
SERVE_SLOTS = 8
SERVE_SLOT_JOBS = 192
SERVE_NEW_SEED_BASE = 100_000
#: Trace-seed pool the cold sweeps draw from.
TRACE_SEED_POOL: Tuple[int, ...] = tuple(7001 + 131 * i for i in range(16))

#: serve-mixed request pattern: every block of this many requests per caller
#: holds exactly these kinds, in a seeded order, so the mix is stationary.
#: No record of real traffic exists, so the weights and grid sizes below are
#: an assumption, chosen so each kind gets enough samples for a steady p50
#: in one run (README.md, "The serve-mixed mix is an assumption").
SERVE_BLOCK: Tuple[str, ...] = ("new",) * 4 + ("cached",) * 4 + ("predict",) * 2
SERVE_RESUBMIT_CELLS = 2
SERVE_PREDICT_PROFILES = 4
SERVE_CALLERS = 2


def _rng(workload: str, seed: int, *extra: object) -> random.Random:
    return random.Random(":".join(["perfbench", workload, str(seed), *map(str, extra)]))


@dataclass(frozen=True)
class Cell:
    """One result cell: the key the golden digests are filed under."""

    workload: str
    predictor: str
    num_ops: int
    seed: Optional[int]

    @property
    def key(self) -> str:
        seed = "-" if self.seed is None else str(self.seed)
        return f"{self.workload}|{self.predictor}|{self.num_ops}|{seed}"


@dataclass(frozen=True)
class SweepPlan:
    """One ``repro sweep`` invocation and the cells it must make durable."""

    args: Tuple[str, ...]
    cells: Tuple[Cell, ...]


def _sweep_args(
    subset: int, predictors, num_ops: int, seed: Optional[int], backend: Optional[str]
) -> Tuple[str, ...]:
    args = [
        "sweep",
        "--subset", str(subset),
        "--predictors", ",".join(predictors),
        "--num-ops", str(num_ops),
        "--workers", "2",
    ]
    if seed is not None:
        args += ["--seed", str(seed)]
    if backend is not None:
        args += ["--backend", backend]
    return tuple(args)


def _grid(subset: int, predictors, num_ops: int, seed: Optional[int]) -> Tuple[Cell, ...]:
    return tuple(
        Cell(workload, predictor, num_ops, seed)
        for workload in PROFILES[:subset]
        for predictor in predictors
    )


def trace_seed(workload: str, seed: int, op: int) -> int:
    """The trace seed of a cold sweep's ``op``-th operation.

    Operations walk the pool from a seeded start, so every run mixes the
    same traces and the work per run does not depend on the seed.
    """
    start = _rng(workload, seed).randrange(len(TRACE_SEED_POOL))
    return TRACE_SEED_POOL[(start + op) % len(TRACE_SEED_POOL)]


def grouped_plan(seed: int, op: int = 0) -> SweepPlan:
    tseed = trace_seed("sweep-grouped", seed, op)
    return SweepPlan(
        _sweep_args(GROUPED_SUBSET, GROUPED_PREDICTORS, GROUPED_OPS, tseed, "batch"),
        _grid(GROUPED_SUBSET, GROUPED_PREDICTORS, GROUPED_OPS, tseed),
    )


def solo_plan(seed: int, op: int = 0) -> SweepPlan:
    tseed = trace_seed("sweep-solo", seed, op)
    return SweepPlan(
        _sweep_args(SOLO_SUBSET, (SOLO_PREDICTOR,), SOLO_OPS, tseed, None),
        _grid(SOLO_SUBSET, (SOLO_PREDICTOR,), SOLO_OPS, tseed),
    )


def resweep_plan(seed: int) -> Tuple[SweepPlan, Tuple[Cell, ...]]:
    """The batch re-sweep and the cells its prefilled store lacks."""
    plan = SweepPlan(
        _sweep_args(RESWEEP_SUBSET, RESWEEP_PREDICTORS, RESWEEP_OPS, None, "batch"),
        _grid(RESWEEP_SUBSET, RESWEEP_PREDICTORS, RESWEEP_OPS, None),
    )
    rng = _rng("resweep-cached", seed)
    profiles = rng.sample(PROFILES[:RESWEEP_SUBSET], len(RESWEEP_MISSING_SHAPE))
    missing = {
        Cell(workload, predictor, RESWEEP_OPS, None)
        for workload, count in zip(profiles, RESWEEP_MISSING_SHAPE)
        for predictor in rng.sample(RESWEEP_PREDICTORS, count)
    }
    return plan, tuple(cell for cell in plan.cells if cell in missing)


def serve_train_plan() -> SweepPlan:
    """The grid serve-mixed sweeps in setup to train its surrogate."""
    return SweepPlan(
        _sweep_args(SERVE_TRAIN_PROFILES, SERVE_PREDICTORS, SERVE_OPS, None, "batch"),
        _grid(SERVE_TRAIN_PROFILES, SERVE_PREDICTORS, SERVE_OPS, None),
    )


def serve_slot(seed: int) -> int:
    return seed % SERVE_SLOTS


def serve_new_jobs(seed: int) -> Tuple[Tuple[Cell, ...], ...]:
    """The never-repeating cell grids one run's new-cell jobs take, in order.

    Job ``j`` runs profile ``j % 31`` on a fresh trace seed under every
    serve predictor. Every seed gets the same profile cycle; the trace
    seeds come from the seed's slot, so two seeds in different slots
    share no cell.
    """
    base = SERVE_NEW_SEED_BASE + serve_slot(seed) * SERVE_SLOT_JOBS
    return tuple(
        tuple(
            Cell(PROFILES[index % len(PROFILES)], predictor, SERVE_OPS, base + index)
            for predictor in SERVE_PREDICTORS
        )
        for index in range(SERVE_SLOT_JOBS)
    )


@dataclass(frozen=True)
class Request:
    """One serve-mixed request: a kind and the cells it names.

    ``new`` requests carry no cells here: they take the next job of the
    run's shared never-repeating pool when they are sent.
    """

    kind: str
    cells: Tuple[Cell, ...] = ()


def serve_requests(seed: int, caller: int, count: int) -> List[Request]:
    """The first ``count`` requests of one closed-loop caller."""
    rng = _rng("serve-mixed", seed, "caller", caller)
    requests: List[Request] = []
    while len(requests) < count:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "cached":
                workload = rng.choice(PROFILES[:SERVE_TRAIN_PROFILES])
                predictors = rng.sample(SERVE_PREDICTORS, SERVE_RESUBMIT_CELLS)
                cells = tuple(
                    Cell(workload, predictor, SERVE_OPS, None) for predictor in predictors
                )
            elif kind == "predict":
                profiles = rng.sample(PROFILES, SERVE_PREDICT_PROFILES)
                cells = tuple(
                    Cell(workload, predictor, SERVE_OPS, None)
                    for workload in profiles
                    for predictor in SERVE_PREDICTORS
                )
            else:
                cells = ()
            requests.append(Request(kind, cells))
    return requests[:count]


def universe() -> Dict[str, Cell]:
    """Every cell any seed of any workload can make durable."""
    cells: List[Cell] = []
    for tseed in TRACE_SEED_POOL:
        cells += _grid(GROUPED_SUBSET, GROUPED_PREDICTORS, GROUPED_OPS, tseed)
        cells += _grid(SOLO_SUBSET, (SOLO_PREDICTOR,), SOLO_OPS, tseed)
    cells += resweep_plan(0)[0].cells
    cells += serve_train_plan().cells
    for slot in range(SERVE_SLOTS):
        for job in serve_new_jobs(slot):
            cells += job
    return {cell.key: cell for cell in cells}
