"""Building a core allocates O(tables) objects, not O(table entries).

Every cell a forked worker runs builds a fresh pipeline, so construction is
a fixed per-cell cost. Predictor and TAGE tables hold flat per-field lists
(or materialise sets on first write), which keeps the number of
garbage-collector-tracked objects a built pipeline holds in the low
hundreds; one object per table entry would put it above 20,000. Counting
objects rather than timing keeps the guard deterministic on any host.
"""

from __future__ import annotations

import gc

import pytest

from repro.sim.simulator import BUILTIN_PREDICTORS, build_pipeline
from repro.sim.spec import RunSpec

#: Upper bound on gc-tracked objects one built pipeline keeps alive.
OBJECT_BOUND = 2_000


def _objects_left_alive(spec: RunSpec) -> int:
    build_pipeline(spec)  # first build pays one-off import and registry work
    gc.collect()
    before = len(gc.get_objects())
    pipeline = build_pipeline(spec)
    gc.collect()
    alive = len(gc.get_objects()) - before
    del pipeline
    return alive


@pytest.mark.parametrize("predictor", sorted(BUILTIN_PREDICTORS))
def test_build_pipeline_object_count_bounded(predictor):
    spec = RunSpec(workload="511.povray", predictor=predictor, num_ops=1500)
    assert _objects_left_alive(spec) < OBJECT_BOUND
