"""Span recording, self time, and worker flushes."""

import multiprocessing

from spans import Recorder, read_spans, self_times


def test_self_time_subtracts_children(tmp_path):
    spans = [
        {"id": "a", "name": "outer", "parent": None, "start": 0, "end": 10_000_000_000},
        {"id": "b", "name": "inner", "parent": "a", "start": 1, "end": 3_000_000_001},
        {"id": "c", "name": "inner", "parent": "a", "start": 4, "end": 5_000_000_004},
    ]
    selfs = self_times(spans)
    assert selfs["a"] == 2.0
    assert selfs["b"] == 3.0
    assert selfs["c"] == 5.0


def test_nested_spans_record_parent_and_operation(tmp_path):
    recorder = Recorder(tmp_path, op="op-1")
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
    recorder.count("calls", 2)
    recorder.flush()
    spans, counts = read_spans(tmp_path)
    assert inner["parent"] == outer["id"]
    assert {record["op"] for record in spans} == {"op-1"}
    assert counts["calls"] == 2


def _child(recorder):
    with recorder.span("in-worker"):
        pass


def test_forked_worker_writes_only_its_own_spans(tmp_path):
    recorder = Recorder(tmp_path)
    with recorder.span("parent"):
        pass
    process = multiprocessing.get_context("fork").Process(target=_child, args=(recorder,))
    process.start()
    process.join(timeout=30)
    assert process.exitcode == 0
    spans, _ = read_spans(tmp_path)
    assert [record["name"] for record in spans] == ["in-worker"]
    recorder.flush()
    spans, _ = read_spans(tmp_path)
    assert sorted(record["name"] for record in spans) == ["in-worker", "parent"]
