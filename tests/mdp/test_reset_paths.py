"""Pinned prediction sequences through the periodic usefulness resets.

The golden fixture (``tests/core/test_hot_path_identity.py``) runs 4,000
ops, so three reset paths never fire in it: TAGE's useful-bit reset (every
256K branches), MDP-TAGE's table sweep and the Omnipredictor's sweep (every
524K accesses). Each test here shrinks ``reset_period`` so the reset fires
dozens of times on a seeded synthetic stream, and pins a SHA-256 of the
full prediction/update sequence. A table-layout change that alters what a
reset clears (or which entries exist to be cleared) changes the digest.

Each test also checks that the reset is observable on its stream: the same
stream with the reset effectively disabled yields a different digest.
"""

from __future__ import annotations

import hashlib
import random

from repro.frontend.tage import TAGEPredictor
from repro.isa.microop import BranchKind
from repro.mdp.mdp_tage import MDPTagePredictor
from repro.mdp.omnipredictor import OmniPredictor
from tests.mdp.helpers import PredictorHarness

NEVER = 1 << 40  # a reset period no test stream reaches

# Computed with one Python object per table entry, before the tables became
# flat lists; every table layout must reproduce them.
TAGE_DIGEST = "c41685a28917902416c53614820bb08e8659810907315c7170d46264a33d7bc2"
MDP_TAGE_DIGEST = "35ca7665c4c44ebf3f0ffd3875db3e5f1e7dd1bdb11a750b5071c8039cbc9a50"
OMNI_DIGEST = "7bd4ea00f23c965a9b80959a013153fe219d83bdb53825be38d4671c87a276d4"


def _branch_stream(seed: int, count: int):
    """(pc, taken) pairs: biased, history-correlated and noisy branches."""
    rng = random.Random(seed)
    recent = [False] * 8
    for _ in range(count):
        pc = 0x4000 + 4 * rng.randrange(64)
        slot = (pc >> 2) % 4
        if slot == 0:
            taken = rng.random() < 0.9
        elif slot == 1:
            taken = recent[-1] ^ recent[-3]
        elif slot == 2:
            taken = recent[-2] and not recent[-5]
        else:
            taken = rng.random() < 0.5
        recent = recent[1:] + [taken]
        yield pc, taken


def _tage_digest(reset_period: int) -> str:
    predictor = TAGEPredictor(num_tables=6, max_history=96, reset_period=reset_period)
    sha = hashlib.sha256()
    for step, (pc, taken) in enumerate(_branch_stream(11, 6000)):
        if step % 3 == 0:
            # The explicit predict/update pair (three table searches) ...
            predicted = predictor.predict(pc)
            predictor.update(pc, taken)
            sha.update(b"%d%d" % (predicted, taken))
        else:
            # ... and the fused single-search observe.
            mispredicted = predictor.observe(pc, BranchKind.CONDITIONAL, taken, pc + 8)
            sha.update(b"m%d" % mispredicted)
    return sha.hexdigest()


def _drive_mdp(h: PredictorHarness, rng: random.Random, sha) -> None:
    """One random store/branch/load episode with violation and commit feedback."""
    stores = [
        h.store(pc=0x500 + 4 * rng.randrange(12)) for _ in range(rng.randrange(1, 5))
    ]
    for _ in range(rng.randrange(3)):
        h.branch(pc=0x800 + 4 * rng.randrange(16), taken=rng.random() < 0.6)
    load = h.load(pc=0x600 + 4 * rng.randrange(24))
    prediction = load.prediction
    sha.update(repr((prediction.distances, prediction.wait_all_older)).encode())
    conflict = stores[rng.randrange(len(stores))] if rng.random() < 0.7 else None
    if conflict is not None and not prediction.is_dependence:
        h.violate(load, conflict)
        h.commit(load, violated=True, actual=conflict)
    elif prediction.is_dependence:
        h.commit(
            load,
            waited_correct=conflict is not None,
            false_positive=conflict is None,
            actual=conflict,
        )
    else:
        h.commit(load)


def _mdp_tage_digest(reset_period: int) -> str:
    predictor = MDPTagePredictor(
        total_entries=512, reset_period=reset_period, false_dep_reset_one_in=4
    )
    h = PredictorHarness(predictor)
    rng = random.Random(23)
    sha = hashlib.sha256()
    for _ in range(3000):
        _drive_mdp(h, rng, sha)
    stats = predictor.stats
    sha.update(repr((stats.dependences_predicted, stats.table_writes)).encode())
    return sha.hexdigest()


def _omni_digest(reset_period: int) -> str:
    predictor = OmniPredictor(
        total_entries=1024, reset_period=reset_period, false_dep_reset_one_in=4
    )
    h = PredictorHarness(predictor)
    rng = random.Random(37)
    branches = _branch_stream(41, 6000)
    sha = hashlib.sha256()
    for _ in range(3000):
        for _ in range(2):
            pc, taken = next(branches)
            mispredicted = predictor.branch_view.observe(
                pc, BranchKind.CONDITIONAL, taken, pc + 8
            )
            sha.update(b"m%d" % mispredicted)
        _drive_mdp(h, rng, sha)
    evictions = (predictor.branch_evicted_by_mdp, predictor.mdp_evicted_by_branch)
    sha.update(repr(evictions).encode())
    return sha.hexdigest()


def test_tage_useful_reset_sequence_pinned():
    assert _tage_digest(reset_period=256) == TAGE_DIGEST
    assert _tage_digest(reset_period=NEVER) != TAGE_DIGEST


def test_mdp_tage_useful_reset_sequence_pinned():
    assert _mdp_tage_digest(reset_period=97) == MDP_TAGE_DIGEST
    assert _mdp_tage_digest(reset_period=NEVER) != MDP_TAGE_DIGEST


def test_omnipredictor_useful_reset_sequence_pinned():
    assert _omni_digest(reset_period=211) == OMNI_DIGEST
    assert _omni_digest(reset_period=NEVER) != OMNI_DIGEST

