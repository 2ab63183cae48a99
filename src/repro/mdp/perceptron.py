"""Perceptron-based memory dependence predictor (related work, Sec. VII).

Hasan's energy-oriented scheme applies Jiménez-style perceptrons to MDP: a
global vector records, for the last ``history_loads`` retired loads, whether
each caused a violation; a per-PC perceptron over that vector predicts
"dependent / not dependent". The store *distance* still has to come from
somewhere, so a small PC-indexed last-distance table supplies it — the
perceptron only gates the wait. The paper cites it as reaching roughly Store
Sets-level speedups; it is included here as the related-work extension and
for the ablation benches.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mdp.base import (
    NO_DEPENDENCE,
    LoadCommitInfo,
    LoadDispatchInfo,
    MDPredictor,
    Prediction,
    ViolationInfo,
)


class PerceptronMDPredictor(MDPredictor):
    """Perceptron-gated store-distance prediction."""

    name = "perceptron-mdp"
    trains_at_commit = False

    def __init__(
        self,
        table_entries: int = 512,
        history_loads: int = 16,
        weight_bits: int = 8,
        distance_entries: int = 1024,
        distance_bits: int = 7,
    ) -> None:
        super().__init__()
        self._entries = table_entries
        self._history_loads = history_loads
        self._weight_bits = weight_bits
        self._distance_entries = distance_entries
        self._distance_bits = distance_bits
        self._max_distance = (1 << distance_bits) - 1
        self._threshold = int(1.93 * history_loads + 14)
        if weight_bits <= 1:
            raise ValueError(f"weight_bits must be > 1, got {weight_bits}")
        # Signed saturating weights in [-2**(bits-1), 2**(bits-1) - 1]; one
        # int row per perceptron, the bias weight first.
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        self._weights: List[List[int]] = [
            [0] * (history_loads + 1) for _ in range(table_entries)
        ]
        self._history: List[int] = [-1] * history_loads  # +1 violated / -1 clean
        self._distances: Dict[int, int] = {}
        self._pending_output: Dict[int, int] = {}

    def _index(self, pc: int) -> int:
        return pc % self._entries

    def _output(self, pc: int) -> int:
        weights = self._weights[self._index(pc)]
        output = weights[0]
        for weight, direction in zip(weights[1:], self._history):
            output += weight * direction
        return output

    def on_load_dispatch(self, load: LoadDispatchInfo) -> Prediction:
        self.stats.load_predictions += 1
        self.stats.table_reads += 1
        output = self._output(load.pc)
        self._pending_output[load.seq] = output
        distance = self._distances.get(self._index(load.pc) % self._distance_entries)
        if output < 0 or distance is None:
            return NO_DEPENDENCE
        self.stats.dependences_predicted += 1
        return Prediction(distances=(distance,))

    def _train(self, pc: int, dependent: bool, output: int) -> None:
        predicted_dependent = output >= 0
        if predicted_dependent != dependent or abs(output) <= self._threshold:
            direction = 1 if dependent else -1
            weights = self._weights[self._index(pc)]
            high = self._weight_max
            low = self._weight_min
            # The bias weight's input is a constant +1.
            for slot, hist_dir in enumerate([1] + self._history):
                if hist_dir == direction:
                    weights[slot] = min(high, weights[slot] + 1)
                else:
                    weights[slot] = max(low, weights[slot] - 1)
            self.stats.table_writes += 1

    def on_violation(self, violation: ViolationInfo) -> None:
        self.stats.trainings += 1
        index = self._index(violation.load_pc) % self._distance_entries
        self._distances[index] = min(violation.store_distance, self._max_distance)
        self.stats.table_writes += 1

    def on_load_commit(self, commit: LoadCommitInfo) -> None:
        output = self._pending_output.pop(commit.seq, 0)
        dependent = commit.actual_store_number is not None or commit.violated
        self._train(commit.pc, dependent, output)
        self._history.pop(0)
        self._history.append(1 if commit.violated else -1)

    def storage_bits(self) -> int:
        perceptrons = self._entries * (self._history_loads + 1) * self._weight_bits
        distances = self._distance_entries * self._distance_bits
        return perceptrons + distances + self._history_loads
