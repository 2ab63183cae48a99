"""In-memory span recorder for the traced run.

A span is one call into a public function of the program, wrapped from the
benchmark's own code: name, start and end (``perf_counter_ns``, one clock
for every process on the host), the span that caused it, the operation it
belongs to, and its process. Spans stay in memory and are written out when
the process ends; forked simulation workers write theirs to
``<out_dir>/<pid>.jsonl`` as they exit.

A layer's self time is its span's duration minus the time its child spans
cover. Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional


class Recorder:
    """Collects spans and counts for one process (and resets in fork children)."""

    def __init__(self, out_dir: Path, op: Optional[str] = None) -> None:
        self.out_dir = Path(out_dir)
        self.op = op
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _touch(self) -> None:
        if os.getpid() != self.pid:
            # A forked worker inherited the parent's spans: start clean and
            # write this process's spans when multiprocessing tears it down.
            self._reset()
            multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[str]) -> None:
        """Tag spans this thread opens from now on with operation ``op``."""
        self._local.op = op

    def count(self, name: str, amount: float = 1) -> None:
        self._touch()
        self.counts[name] += amount

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def flush(self) -> None:
        """Append this process's spans and counts to its own file."""
        if not self.spans and not self.counts:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
            if self.counts:
                handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = Counter()


class _Span:
    __slots__ = ("recorder", "name", "record")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> dict:
        recorder = self.recorder
        recorder._touch()
        stack = recorder._stack()
        op = getattr(recorder._local, "op", None)
        if op is None:
            op = recorder.op
        self.record = {
            "id": f"{recorder.pid}-{next(recorder._ids)}",
            "name": self.name,
            "parent": stack[-1]["id"] if stack else None,
            "op": op,
            "pid": recorder.pid,
            "start": time.perf_counter_ns(),
        }
        stack.append(self.record)
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter_ns()
        self.recorder._stack().pop()
        self.recorder.spans.append(self.record)


# --------------------------------------------------------------- wrapping --


def _wrap_callable(recorder: Recorder, name: str, original: Callable, observe=None):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name) as record:
            result = original(*args, **kwargs)
            if observe is not None:
                observe(record, args, kwargs, result)
            return result

    return traced


class Patcher:
    """Replaces functions and methods with span-recording wrappers."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[tuple] = []

    def function(self, module, attr: str, name: str, observe=None) -> None:
        """Wrap ``module.attr`` and every ``from module import attr`` copy."""
        original = getattr(module, attr)
        traced = _wrap_callable(self.recorder, name, original, observe)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                loaded.__dict__.get(attr) is original
            ):
                self._undo.append((loaded, attr, original))
                setattr(loaded, attr, traced)

    def method(self, cls, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, _wrap_callable(self.recorder, name, original, observe))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# --------------------------------------------------------------- analysis --


def read_spans(out_dir: Path) -> tuple:
    """All spans and summed counts written under ``out_dir``."""
    spans: List[dict] = []
    counts: Counter = Counter()
    for path in sorted(Path(out_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if "counts" in record:
                counts.update(record["counts"])
            else:
                spans.append(record)
    return spans, counts


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Seconds per span id: duration minus the time its children cover.

    Children run on their parent's thread, so they are nested and disjoint
    and their durations simply add up.
    """
    spans = list(spans)
    child_ns: Counter = Counter()
    for record in spans:
        if record["parent"] is not None:
            child_ns[record["parent"]] += record["end"] - record["start"]
    return {
        record["id"]: (record["end"] - record["start"] - child_ns[record["id"]]) / 1e9
        for record in spans
    }
