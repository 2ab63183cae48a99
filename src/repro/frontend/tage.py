"""TAGE branch predictor (Seznec), used as the pipeline front end.

The paper's core uses TAGE-SC-L; this is a faithful plain TAGE — a bimodal
base predictor plus tagged components indexed with geometrically increasing
folded global history. The statistical corrector and loop predictor of
TAGE-SC-L buy a few percent of accuracy that does not change any MDP
conclusion, so they are omitted (documented fidelity note in DESIGN.md).

The implementation also doubles as the structural template the paper reuses
for prediction tables searched in parallel at several history lengths
(Sec. IV-B: "Tables are searched in parallel on each prediction, similar to
the structure of a TAGE branch prediction").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.bitops import mask
from repro.common.counters import SignedSaturatingCounter
from repro.common.rng import DeterministicRNG
from repro.frontend.branch_predictors import BranchPredictor
from repro.isa.microop import BranchKind

#: Index width of the bimodal base table (4K 2-bit counters).
_BIMODAL_BITS = 12
_BIMODAL_MASK = mask(_BIMODAL_BITS)


def geometric_history_lengths(minimum: int, maximum: int, count: int) -> List[int]:
    """The classic TAGE geometric series of history lengths.

    ``L(i) = round(minimum * (maximum/minimum)^(i/(count-1)))``, deduplicated
    and strictly increasing.
    """
    if count < 2:
        raise ValueError("need at least two components")
    if minimum <= 0 or maximum <= minimum:
        raise ValueError("require 0 < minimum < maximum")
    lengths: List[int] = []
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    value = float(minimum)
    for _ in range(count):
        length = int(round(value))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
        value *= ratio
    return lengths


class FoldedHistory:
    """Circularly folded global history, as in hardware TAGE.

    Maintains ``fold(history[0:length], width)`` incrementally as outcomes are
    shifted in, in O(1) per update.
    """

    __slots__ = ("length", "width", "value", "_out_pos", "_mask")

    def __init__(self, length: int, width: int) -> None:
        if length <= 0 or width <= 0:
            raise ValueError("length and width must be positive")
        self.length = length
        self.width = width
        self.value = 0
        self._out_pos = length % width
        self._mask = mask(width)

    def update(self, new_bit: int, outgoing_bit: int) -> None:
        """Shift ``new_bit`` in and ``outgoing_bit`` (history[length-1]) out.

        The shifted-in value is masked to ``width`` bits *before* the outgoing
        bit is XORed back at ``length % width`` — the XOR cannot leave the
        masked range, so a single mask suffices.
        """
        self.value = (((self.value << 1) | (new_bit & 1)) & self._mask) ^ (
            (outgoing_bit & 1) << self._out_pos
        )


class TAGEPredictor(BranchPredictor):
    """Plain TAGE with ``num_tables`` tagged components.

    Storage is flat: each tagged component is four parallel per-field lists
    (``tags``, ``ctrs``, ``useful``, ``valid``) and the bimodal base is one
    list of ints, so building a predictor costs a handful of list
    allocations rather than one object per entry. Counters saturate inline:
    bimodal 2-bit in ``[-2, 1]``, tagged 3-bit in ``[-4, 3]``, useful in
    ``[0, 2**useful_bits - 1]``; a counter predicts taken when ``>= 0``.
    """

    name = "tage"
    year = 2006

    def __init__(
        self,
        num_tables: int = 8,
        min_history: int = 4,
        max_history: int = 640,
        table_index_bits: int = 10,
        tag_bits: int = 11,
        useful_bits: int = 2,
        reset_period: int = 256 * 1024,
        seed: int = 0x7A6E,
    ) -> None:
        super().__init__()
        self._lengths = geometric_history_lengths(min_history, max_history, num_tables)
        self._index_bits = table_index_bits
        self._tag_bits = tag_bits
        self._index_mask = mask(table_index_bits)
        self._tag_mask = mask(tag_bits)
        self._useful_max = (1 << useful_bits) - 1
        self._useful_bits = useful_bits
        self._reset_period = reset_period
        self._rng = DeterministicRNG(seed)

        self._bimodal: List[int] = [0] * (1 << _BIMODAL_BITS)
        size = 1 << table_index_bits
        self._tags: List[List[int]] = [[0] * size for _ in self._lengths]
        self._ctrs: List[List[int]] = [[0] * size for _ in self._lengths]
        self._useful: List[List[int]] = [[0] * size for _ in self._lengths]
        self._valid: List[List[bool]] = [[False] * size for _ in self._lengths]
        # Global history as a fixed circular buffer: ``_history[(head + i) %
        # len]`` is history bit ``i`` (0 = youngest). A plain list with
        # ``insert(0)`` costs O(max_history) per branch; the cursor is O(1).
        self._hist_size = max(self._lengths) + 1
        self._history: List[int] = [0] * self._hist_size
        self._hist_head = 0
        self._folded_index = [
            FoldedHistory(length, table_index_bits) for length in self._lengths
        ]
        self._folded_tag0 = [FoldedHistory(length, tag_bits) for length in self._lengths]
        self._folded_tag1 = [
            FoldedHistory(length, tag_bits - 1) for length in self._lengths
        ]
        self._branch_count = 0
        # Alternate-prediction preference counter (USE_ALT_ON_NA).
        self._use_alt = SignedSaturatingCounter(bits=4)

    # -- indexing -----------------------------------------------------------

    def _indices(self, pc: int) -> List[int]:
        """Per-component table index of ``pc`` under the current history.

        Indices only move when history shifts (the end of :meth:`_train`),
        so one list serves a branch's lookup, prediction, update and
        allocation.
        """
        index_bits = self._index_bits
        index_mask = self._index_mask
        return [
            (pc ^ (pc >> (index_bits - table)) ^ folded.value) & index_mask
            for table, folded in enumerate(self._folded_index)
        ]

    def _table_tag(self, pc: int, table: int) -> int:
        return (
            pc ^ self._folded_tag0[table].value ^ (self._folded_tag1[table].value << 1)
        ) & self._tag_mask

    def _lookup(
        self, pc: int, indices: List[int]
    ) -> Tuple[Optional[int], Optional[int]]:
        """Return (provider_table, alternate_table), longest-history match first."""
        provider = alternate = None
        valid = self._valid
        tags = self._tags
        for table in range(len(indices) - 1, -1, -1):
            index = indices[table]
            if valid[table][index] and tags[table][index] == self._table_tag(pc, table):
                if provider is None:
                    provider = table
                else:
                    alternate = table
                    break
        return provider, alternate

    # -- BranchPredictor interface -------------------------------------------

    def _final_prediction(
        self,
        pc: int,
        indices: List[int],
        provider: Optional[int],
        alternate: Optional[int],
    ) -> bool:
        """The TAGE prediction given an already-computed :meth:`_lookup`."""
        if provider is None:
            return self._bimodal[pc & _BIMODAL_MASK] >= 0
        index = indices[provider]
        ctr = self._ctrs[provider][index]
        newly_allocated = (ctr == 0 or ctr == -1) and self._useful[provider][index] == 0
        if newly_allocated and self._use_alt.is_positive:
            if alternate is not None:
                return self._ctrs[alternate][indices[alternate]] >= 0
            return self._bimodal[pc & _BIMODAL_MASK] >= 0
        return ctr >= 0

    def predict(self, pc: int) -> bool:
        indices = self._indices(pc)
        provider, alternate = self._lookup(pc, indices)
        return self._final_prediction(pc, indices, provider, alternate)

    def _train(
        self,
        pc: int,
        taken: bool,
        indices: List[int],
        provider: Optional[int],
        alternate: Optional[int],
        final_prediction: bool,
    ) -> None:
        """The update sequence given an already-computed lookup + prediction."""
        if provider is not None:
            index = indices[provider]
            ctrs = self._ctrs[provider]
            useful = self._useful[provider]
            ctr = ctrs[index]
            provider_prediction = ctr >= 0
            if alternate is not None:
                alt_prediction = self._ctrs[alternate][indices[alternate]] >= 0
            else:
                alt_prediction = self._bimodal[pc & _BIMODAL_MASK] >= 0
            # Track whether alternate would have been better for weak entries.
            newly_allocated = (ctr == 0 or ctr == -1) and useful[index] == 0
            if newly_allocated and provider_prediction != alt_prediction:
                self._use_alt.update_towards(alt_prediction == taken)
            # Usefulness: provider correct where the alternate was wrong.
            if provider_prediction != alt_prediction:
                if provider_prediction == taken:
                    useful[index] = min(self._useful_max, useful[index] + 1)
                else:
                    useful[index] = max(0, useful[index] - 1)
            ctrs[index] = min(3, ctr + 1) if taken else max(-4, ctr - 1)
        else:
            bimodal = self._bimodal
            slot = pc & _BIMODAL_MASK
            bimodal[slot] = (
                min(1, bimodal[slot] + 1) if taken else max(-2, bimodal[slot] - 1)
            )

        # Allocate on misprediction in a longer-history table.
        if final_prediction != taken:
            start = (provider + 1) if provider is not None else 0
            self._allocate(pc, taken, indices, start)

        self._shift_history(pc, taken)
        self._branch_count += 1
        if self._branch_count % self._reset_period == 0:
            self._reset_useful()

    def update(self, pc: int, taken: bool) -> None:
        indices = self._indices(pc)
        provider, alternate = self._lookup(pc, indices)
        final_prediction = self._final_prediction(pc, indices, provider, alternate)
        self._train(pc, taken, indices, provider, alternate, final_prediction)

    def observe(self, pc: int, kind, taken: bool, target: int) -> bool:
        """Predict-then-train with the table search shared between the two.

        The base-class ``observe`` calls ``predict`` then ``update``, which
        re-runs the tagged-table search (and ``update`` historically re-ran it
        a third time for its own ``predict``). Nothing mutates between the
        two phases, so one :meth:`_lookup` serves both — bit-identical, one
        search per conditional branch instead of three.
        """
        if kind is BranchKind.CONDITIONAL:
            indices = self._indices(pc)
            provider, alternate = self._lookup(pc, indices)
            final_prediction = self._final_prediction(pc, indices, provider, alternate)
            self._train(pc, taken, indices, provider, alternate, final_prediction)
            return final_prediction != taken
        return super().observe(pc, kind, taken, target)

    # -- internals -----------------------------------------------------------

    def _allocate(
        self, pc: int, taken: bool, indices: List[int], start_table: int
    ) -> None:
        useful = self._useful
        candidates = [
            table
            for table in range(start_table, len(indices))
            if useful[table][indices[table]] == 0
        ]
        if not candidates:
            # Decay usefulness so future allocations can succeed.
            for table in range(start_table, len(indices)):
                index = indices[table]
                useful[table][index] = max(0, useful[table][index] - 1)
            return
        # Prefer the shortest candidate, with a 1/2 chance of skipping to the
        # next (Seznec's anti-ping-pong allocation randomisation).
        chosen = candidates[0]
        if len(candidates) > 1 and self._rng.one_in(2):
            chosen = candidates[1]
        index = indices[chosen]
        self._valid[chosen][index] = True
        self._tags[chosen][index] = self._table_tag(pc, chosen)
        self._ctrs[chosen][index] = 0 if taken else -1
        useful[chosen][index] = 0

    def _shift_history(self, pc: int, taken: bool) -> None:
        new_bit = int(taken) ^ (pc & 1)
        history = self._history
        head = self._hist_head
        size = self._hist_size
        folded_index = self._folded_index
        folded_tag0 = self._folded_tag0
        folded_tag1 = self._folded_tag1
        for table, length in enumerate(self._lengths):
            outgoing = history[(head + length - 1) % size]
            folded_index[table].update(new_bit, outgoing)
            folded_tag0[table].update(new_bit, outgoing)
            folded_tag1[table].update(new_bit, outgoing)
        head = (head - 1) % size
        history[head] = new_bit
        self._hist_head = head

    def _reset_useful(self) -> None:
        for useful in self._useful:
            useful[:] = [0] * len(useful)

    def storage_bits(self) -> int:
        tagged = len(self._lengths) * (1 << self._index_bits) * (
            self._tag_bits + 3 + self._useful_bits
        )
        return tagged + len(self._bimodal) * 2 + max(self._lengths)
