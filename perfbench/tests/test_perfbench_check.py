"""The correctness check fires on a corrupted stored record."""

import json

import pytest

import specs
from golden import check_store, load_golden, record_digest


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One real resweep cell, simulated and stored the way a sweep stores it."""
    from repro.core.config import CoreConfig
    from repro.harness.store import ResultStore, cell_key
    from repro.sim.simulator import run_spec
    from repro.sim.spec import RunSpec

    cell = specs.resweep_plan(0)[0].cells[0]
    store = ResultStore(tmp_path_factory.mktemp("check") / "store")
    result = run_spec(RunSpec(cell.workload, cell.predictor, num_ops=cell.num_ops))
    key = cell_key(cell.workload, cell.predictor, CoreConfig(), cell.num_ops, cell.seed)
    store.put(key, result)
    return cell, store, store.result_path(key)


def test_reference_record_passes(stored):
    cell, store, _path = stored
    verdict = check_store(store.root, [cell], load_golden())
    assert verdict.problems == []
    assert verdict.uops[cell.key] == cell.num_ops


def test_corrupted_record_fails(stored, tmp_path):
    from repro.harness.store import ResultStore, _record_crc

    cell, store, path = stored
    entry = json.loads(path.read_text())
    entry["result"]["pipeline"]["cycles"] += 1
    # A valid CRC: the store itself would serve this wrong record.
    entry["crc32"] = _record_crc(entry["result"])
    corrupt = ResultStore(tmp_path / "store")
    corrupt.results_dir.mkdir(parents=True)
    (corrupt.results_dir / path.name).write_text(json.dumps(entry))
    verdict = check_store(corrupt.root, [cell], load_golden())
    assert verdict.failed == 1
    assert "digest" in verdict.problems[0]
    assert record_digest(entry["result"]) != load_golden()[cell.key]


def test_truncated_record_reads_as_missing(stored, tmp_path):
    cell, _store, path = stored
    results = tmp_path / "store" / "results"
    results.mkdir(parents=True)
    (results / path.name).write_text(path.read_text()[:100])
    verdict = check_store(tmp_path / "store", [cell], load_golden())
    assert verdict.failed == 1
    assert "missing" in verdict.problems[0]
