"""The Omnipredictor: one TAGE storage for branches AND memory dependences.

Perais & Seznec's original proposal (PACT 2018) predicts branch directions
and store distances out of the same TAGE tables: entries carry a type, the
3-bit counter field holds either a direction counter or a store distance,
and both consumers compete for capacity.

The paper argues this sharing cannot be tuned for both uses: "the optimal
history lengths for MDP differ from the ones for branch prediction, which
implies that an Omnipredictor cannot be tuned for both types of prediction"
(Sec. IV-B). This implementation exists to make that claim testable: the
ablation bench compares the Omnipredictor against a standalone TAGE plus a
standalone MDP-TAGE of the same total budget, and against PHAST.

Usage::

    omni = OmniPredictor()
    result = simulate(RunSpec(workload=workload, predictor=omni,
                              branch_predictor=omni.branch_view))
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.bitops import ceil_log2, mask, pc_hash_index, pc_hash_tag
from repro.common.rng import DeterministicRNG
from repro.frontend.branch_predictors import BranchPredictor
from repro.frontend.tage import geometric_history_lengths
from repro.isa.microop import BranchKind
from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadCommitInfo,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    ViolationInfo,
)
from repro.mdp.mdp_tage import ALL_OLDER, HISTORY_CHUNK_BITS, TARGET_BITS
from repro.mdp.tables import ChunkedFoldedHistory


class _OmniBranchView(BranchPredictor):
    """BranchPredictor adapter over the shared storage."""

    name = "omni-branch"
    year = 2018

    def __init__(self, owner: "OmniPredictor") -> None:
        super().__init__()
        self._owner = owner

    def predict(self, pc: int) -> bool:
        return self._owner.predict_branch(pc)

    def update(self, pc: int, taken: bool) -> None:
        self._owner.update_branch(pc, taken)

    def observe(self, pc: int, kind: BranchKind, taken: bool, target: int) -> bool:
        mispredicted = super().observe(pc, kind, taken, target)
        # Every divergent branch enters the shared folded history, mirroring
        # the pipeline's GlobalHistory recording order.
        if kind.is_divergent:
            self._owner.push_history(kind, taken, target)
        return mispredicted

    def storage_bits(self) -> int:
        return 0  # accounted on the owner


class OmniPredictor(MDPredictor):
    """Shared-table TAGE serving branch direction and store distance.

    Each table is four parallel per-field lists indexed by entry: ``kinds``
    (``"branch"`` or ``"mdp"``; ``""`` marks an entry never written),
    ``tags``, ``counters`` (branch: signed 3-bit direction counter; mdp:
    store distance) and ``useful``. The bimodal base is a list of 2-bit
    signed ints in ``[-2, 1]``.
    """

    name = "omnipredictor"
    trains_at_commit = False  # MDP side follows MDP-TAGE's policy

    def __init__(
        self,
        history_lengths: Optional[Sequence[int]] = None,
        total_entries: int = 16384,
        tag_bits: int = 12,
        reset_period: int = 524_288,
        false_dep_reset_one_in: int = 256,
        seed: int = 0x0311,
    ) -> None:
        super().__init__()
        self._lengths = (
            list(history_lengths)
            if history_lengths is not None
            else geometric_history_lengths(6, 2000, 12)
        )
        entries_per_table = max(1, total_entries // len(self._lengths))
        self._entries_per_table = entries_per_table
        self._index_bits = ceil_log2(entries_per_table)
        self._tag_bits = tag_bits
        size = entries_per_table
        self._kinds: List[List[str]] = [[""] * size for _ in self._lengths]
        self._tags: List[List[int]] = [[0] * size for _ in self._lengths]
        self._counters: List[List[int]] = [[0] * size for _ in self._lengths]
        self._useful: List[List[int]] = [[0] * size for _ in self._lengths]
        self._bimodal: List[int] = [0] * (1 << 12)
        self._folds: List[Tuple[ChunkedFoldedHistory, ChunkedFoldedHistory]] = [
            (
                ChunkedFoldedHistory(length, HISTORY_CHUNK_BITS, self._index_bits),
                ChunkedFoldedHistory(length, HISTORY_CHUNK_BITS, tag_bits),
            )
            for length in self._lengths
        ]
        self._rng = DeterministicRNG(seed)
        self._reset_period = reset_period
        self._fp_one_in = false_dep_reset_one_in
        self._accesses = 0
        self._pending: Dict[int, Optional[int]] = {}
        self.branch_view = _OmniBranchView(self)
        #: Capacity-interference telemetry: cross-type entry replacements.
        self.branch_evicted_by_mdp = 0
        self.mdp_evicted_by_branch = 0

    # -- shared plumbing -------------------------------------------------------

    def push_history(self, kind: BranchKind, taken: bool, target: int) -> None:
        chunk = target & mask(TARGET_BITS)
        chunk |= int(taken) << TARGET_BITS
        chunk |= int(kind is BranchKind.INDIRECT) << (TARGET_BITS + 1)
        for index_fold, tag_fold in self._folds:
            index_fold.push(chunk)
            tag_fold.push(chunk)

    def _keys(self, pc: int, position: int) -> Tuple[int, int]:
        index_fold, tag_fold = self._folds[position]
        index = (pc_hash_index(pc, self._index_bits) ^ index_fold.value) & mask(
            self._index_bits
        )
        # Table sizes need not be powers of two (16K entries / 12 tables).
        index %= self._entries_per_table
        tag = (pc_hash_tag(pc, self._tag_bits) ^ tag_fold.value) & mask(self._tag_bits)
        return index, tag

    def _lookup(self, pc: int, kind: str) -> Tuple[Optional[int], int]:
        """(table position, entry index) of the longest-history ``kind`` hit.

        The position is ``None`` on a miss. An MDP entry only provides while
        its useful bit is set.
        """
        for position in range(len(self._lengths) - 1, -1, -1):
            index, tag = self._keys(pc, position)
            if (
                self._kinds[position][index] == kind
                and self._tags[position][index] == tag
            ):
                if kind == "branch" or self._useful[position][index]:
                    return position, index
        return None, 0

    def _allocate(self, pc: int, position: int, kind: str) -> int:
        """Claim the ``kind`` entry of ``pc`` in ``position``; return its index."""
        index, tag = self._keys(pc, position)
        current = self._kinds[position][index]
        if current and current != kind:
            if kind == "mdp":
                self.branch_evicted_by_mdp += 1
            else:
                self.mdp_evicted_by_branch += 1
        self._kinds[position][index] = kind
        self._tags[position][index] = tag
        self._useful[position][index] = 1
        self._counters[position][index] = 0
        return index

    def _tick(self) -> None:
        self._accesses += 1
        if self._accesses % self._reset_period == 0:
            for useful in self._useful:
                useful[:] = [0] * len(useful)

    # -- branch side -------------------------------------------------------------

    def predict_branch(self, pc: int) -> bool:
        position, index = self._lookup(pc, "branch")
        if position is None:
            return self._bimodal[pc & mask(12)] >= 0
        return self._counters[position][index] >= 0

    def update_branch(self, pc: int, taken: bool) -> None:
        self._tick()
        position, index = self._lookup(pc, "branch")
        predicted = self.predict_branch(pc)
        if position is not None:
            counters = self._counters[position]
            counters[index] = max(-4, min(3, counters[index] + (1 if taken else -1)))
        else:
            bimodal = self._bimodal
            slot = pc & mask(12)
            bimodal[slot] = (
                min(1, bimodal[slot] + 1) if taken else max(-2, bimodal[slot] - 1)
            )
        if predicted != taken:
            start = (position + 1) if position is not None else 0
            if start < len(self._lengths):
                target = min(
                    start + (1 if self._rng.one_in(2) else 0),
                    len(self._lengths) - 1,
                )
                new_index = self._allocate(pc, target, "branch")
                self._counters[target][new_index] = 0 if taken else -1

    # -- MDP side ------------------------------------------------------------------

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.table_reads += len(self._lengths)
        self._tick()
        position, index = self._lookup(load.pc, "mdp")
        self._pending[load.seq] = position
        if position is None:
            return NO_DEPENDENCE
        self.stats.dependences_predicted += 1
        distance = self._counters[position][index]
        if distance >= ALL_OLDER:
            return Prediction(wait_all_older=True)
        return Prediction(distances=(distance,))

    def on_violation(self, violation: ViolationInfo) -> None:
        self.stats.trainings += 1
        self.stats.table_writes += 1
        provider = self._pending.get(violation.load_seq)
        target = 0 if provider is None else min(provider + 1, len(self._lengths) - 1)
        index = self._allocate(violation.load_pc, target, "mdp")
        self._counters[target][index] = min(violation.store_distance, ALL_OLDER)

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        provider = self._pending.pop(commit.seq, None)
        if provider is None or not commit.false_positive:
            return
        if self._rng.one_in(self._fp_one_in):
            index, tag = self._keys(commit.pc, provider)
            if (
                self._kinds[provider][index] == "mdp"
                and self._tags[provider][index] == tag
            ):
                self._useful[provider][index] = 0
                self.stats.table_writes += 1

    def storage_bits(self) -> int:
        # tag + type bit + 7-bit counter/distance + u bit, plus the bimodal.
        per_entry = self._tag_bits + 1 + 7 + 1
        return (
            len(self._lengths) * self._entries_per_table * per_entry
            + len(self._bimodal) * 2
        )
