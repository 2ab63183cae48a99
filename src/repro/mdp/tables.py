"""Shared structures for tagged prediction tables.

* :class:`SetAssocTable` — an n-way set-associative table with LRU
  replacement and zero-confidence-first victim selection, the organisation
  shared by PHAST, the NoSQ predictor, and MDP-TAGE-S (Table II).
* :class:`ChunkedFoldedHistory` — incrementally maintained circular fold of
  the last L fixed-width history entries into a w-bit word, the hardware
  history-folding of TAGE-style predictors generalised to multi-bit history
  symbols (PHAST entries carry type + outcome + 5 target bits = 7 bits).
  The fold is content-determined: two occurrences of the same window value
  fold to the same word, which is what makes incremental maintenance
  equivalent to refolding from scratch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.common.bitops import mask
from repro.common.lru import LRUState


@dataclass
class PredictionEntry:
    """A generic tagged prediction entry (distance + confidence + u bit)."""

    tag: int = 0
    distance: int = 0
    confidence: int = 0
    useful: int = 0
    valid: bool = False


class SetAssocTable:
    """N-way set-associative table of :class:`PredictionEntry`.

    Sets are materialised on their first :meth:`allocate`; until then a set
    holds no objects at all. An absent set behaves exactly like a fresh one
    — every way invalid, way 0 least recent — so a :meth:`lookup` on it
    misses and its first allocation takes way 0. Building a table therefore
    costs two lists, not an entry and an LRU state per way and set.
    :meth:`entries` and :meth:`clear` cover the materialised sets only: an
    absent set's entries would all be fresh, which no reset or clear alters.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self._entries: List[Optional[List[PredictionEntry]]] = [None] * num_sets
        self._lru: List[Optional[LRUState]] = [None] * num_sets

    @property
    def total_entries(self) -> int:
        return self.num_sets * self.ways

    def lookup(self, index: int, tag: int, touch: bool = True) -> Optional[PredictionEntry]:
        """Find a valid entry with ``tag`` in set ``index``; promote on hit."""
        set_index = index % self.num_sets
        ways = self._entries[set_index]
        if ways is None:
            return None
        for way, entry in enumerate(ways):
            if entry.valid and entry.tag == tag:
                if touch:
                    self._lru[set_index].touch(way)
                return entry
        return None

    def allocate(self, index: int, tag: int) -> PredictionEntry:
        """Return the entry to (re)write for ``tag``.

        Order of preference: an existing same-tag entry, an invalid way, a
        zero-confidence way (aliased dead entries first, per PHAST's
        confidence-gated replacement), else the LRU victim.
        """
        set_index = index % self.num_sets
        ways = self._entries[set_index]
        if ways is None:
            ways = [PredictionEntry() for _ in range(self.ways)]
            self._entries[set_index] = ways
            self._lru[set_index] = LRUState(self.ways)
        lru = self._lru[set_index]
        for way, entry in enumerate(ways):
            if entry.valid and entry.tag == tag:
                lru.touch(way)
                return entry
        for way, entry in enumerate(ways):
            if not entry.valid:
                lru.touch(way)
                return entry
        for way in lru.recency_order()[::-1]:  # least recent first
            if ways[way].confidence == 0:
                lru.touch(way)
                return ways[way]
        victim = lru.victim()
        lru.touch(victim)
        return ways[victim]

    def entries(self) -> List[PredictionEntry]:
        """Flat view over the materialised sets' entries, in set order."""
        return [entry for ways in self._entries if ways is not None for entry in ways]

    def clear(self) -> None:
        for entry in self.entries():
            entry.valid = False
            entry.confidence = 0
            entry.useful = 0


def _rotate(value: int, amount: int, width: int) -> int:
    """Circular left rotation of a ``width``-bit word."""
    amount %= width
    if amount == 0:
        return value & mask(width)
    value &= mask(width)
    return ((value << amount) | (value >> (width - amount))) & mask(width)


def fold_window(chunks: Sequence[int], chunk_bits: int, width: int) -> int:
    """Reference (non-incremental) circular fold, oldest chunk first.

    ``fold = XOR_i rotate(chunk_i, chunk_bits * (L - 1 - i))`` — each chunk is
    rotated by its distance from the youngest end, so position matters and
    any window content change changes the fold.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    folded = 0
    length = len(chunks)
    for position, chunk in enumerate(chunks):
        folded ^= _rotate(chunk & mask(chunk_bits), chunk_bits * (length - 1 - position), width)
    return folded


class ChunkedFoldedHistory:
    """Incrementally maintained :func:`fold_window` over a sliding window.

    ``push`` is on the per-branch hot path of every folded-history predictor,
    so the two circular rotations are inlined with their amounts (and the
    complementary shifts and masks) precomputed at construction.
    """

    __slots__ = (
        "length",
        "chunk_bits",
        "width",
        "value",
        "_window",
        "_chunk_mask",
        "_width_mask",
        "_rot_in",
        "_rot_in_c",
        "_rot_out",
        "_rot_out_c",
    )

    def __init__(self, length: int, chunk_bits: int, width: int) -> None:
        if length <= 0 or chunk_bits <= 0 or width <= 0:
            raise ValueError("length, chunk_bits and width must be positive")
        self.length = length
        self.chunk_bits = chunk_bits
        self.width = width
        self.value = 0
        self._window: Deque[int] = deque([0] * length, maxlen=length)
        self._chunk_mask = mask(chunk_bits)
        self._width_mask = mask(width)
        self._rot_in = chunk_bits % width  # rotation of the running fold
        self._rot_in_c = width - self._rot_in
        self._rot_out = (chunk_bits * length) % width  # rotation of the evictee
        self._rot_out_c = width - self._rot_out

    def push(self, chunk: int) -> None:
        """Slide the window by one entry."""
        chunk &= self._chunk_mask
        window = self._window
        outgoing = window[0]
        window.append(chunk)
        width_mask = self._width_mask
        value = self.value
        rot_in = self._rot_in
        if rot_in:
            value = ((value << rot_in) | (value >> self._rot_in_c)) & width_mask
        value ^= chunk
        rot_out = self._rot_out
        outgoing &= width_mask
        if rot_out:
            outgoing = ((outgoing << rot_out) | (outgoing >> self._rot_out_c)) & width_mask
        self.value = (value ^ outgoing) & width_mask

    def window(self) -> Tuple[int, ...]:
        return tuple(self._window)
