"""Seeded inputs: determinism, disjoint serve cells, golden coverage."""

import json
from collections import Counter
from pathlib import Path

import pytest

import run
import specs
from golden import load_golden

SEEDS = range(0, 40)


def _serve_inputs(seed):
    return (
        specs.serve_new_jobs(seed),
        [specs.serve_requests(seed, caller, 200) for caller in range(specs.SERVE_CALLERS)],
    )


@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_same_seed_same_specs_and_request_mix(seed):
    for op in range(3):
        assert specs.grouped_plan(seed, op) == specs.grouped_plan(seed, op)
        assert specs.solo_plan(seed, op) == specs.solo_plan(seed, op)
    assert specs.resweep_plan(seed) == specs.resweep_plan(seed)
    assert _serve_inputs(seed) == _serve_inputs(seed)


@pytest.mark.parametrize("first, second", [(0, 1), (1, 2), (3, 44)])
def test_different_seeds_give_disjoint_serve_new_cells(first, second):
    assert specs.serve_slot(first) != specs.serve_slot(second)
    assert not _new_cells(first) & _new_cells(second)


def _new_cells(seed):
    return {cell for job in specs.serve_new_jobs(seed) for cell in job}


def test_new_cells_never_repeat_within_a_run():
    jobs = specs.serve_new_jobs(5)
    assert len(jobs) == specs.SERVE_SLOT_JOBS
    assert len(_new_cells(5)) == specs.SERVE_SLOT_JOBS * len(specs.SERVE_PREDICTORS)


def test_request_mix_is_stationary():
    requests = specs.serve_requests(11, 0, 10 * len(specs.SERVE_BLOCK))
    block = len(specs.SERVE_BLOCK)
    for start in range(0, len(requests), block):
        kinds = sorted(request.kind for request in requests[start:start + block])
        assert kinds == sorted(specs.SERVE_BLOCK)


def test_resweep_leaves_one_cell_in_ten_missing():
    for seed in SEEDS:
        plan, missing = specs.resweep_plan(seed)
        assert len(missing) == len(plan.cells) // 10
        assert set(missing) <= set(plan.cells)
        per_profile = Counter(cell.workload for cell in missing)
        assert sorted(per_profile.values(), reverse=True) == list(specs.RESWEEP_MISSING_SHAPE)


def test_golden_digests_cover_every_cell_a_seed_can_make_durable():
    golden = load_golden()
    assert set(golden) == set(specs.universe())
    for seed in SEEDS:
        durable = set()
        for op in range(len(specs.TRACE_SEED_POOL) + 1):
            durable |= set(specs.grouped_plan(seed, op).cells)
            durable |= set(specs.solo_plan(seed, op).cells)
        durable |= set(specs.resweep_plan(seed)[0].cells)
        durable |= set(specs.serve_train_plan().cells) | _new_cells(seed)
        for caller in range(specs.SERVE_CALLERS):
            for request in specs.serve_requests(seed, caller, 50):
                if request.kind == "cached":
                    durable |= set(request.cells)
        assert all(cell.key in golden for cell in durable)


def test_benchmark_json_matches_the_metrics_run_py_reports():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
