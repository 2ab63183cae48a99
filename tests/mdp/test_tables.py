"""Tests for shared prediction-table structures and history folding."""

import random
from typing import List, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.lru import LRUState
from repro.mdp.tables import (
    ChunkedFoldedHistory,
    PredictionEntry,
    SetAssocTable,
    fold_window,
)


class TestSetAssocTable:
    def test_lookup_miss(self):
        table = SetAssocTable(num_sets=4, ways=2)
        assert table.lookup(0, tag=5) is None

    def test_allocate_then_lookup(self):
        table = SetAssocTable(num_sets=4, ways=2)
        entry = table.allocate(1, tag=7)
        entry.valid = True
        entry.tag = 7
        entry.distance = 3
        found = table.lookup(1, tag=7)
        assert found is entry
        assert found.distance == 3

    def test_same_tag_reuses_entry(self):
        table = SetAssocTable(num_sets=2, ways=2)
        first = table.allocate(0, tag=9)
        first.valid = True
        first.tag = 9
        assert table.allocate(0, tag=9) is first

    def test_prefers_invalid_ways(self):
        table = SetAssocTable(num_sets=1, ways=2)
        a = table.allocate(0, tag=1)
        a.valid = True
        a.tag = 1
        b = table.allocate(0, tag=2)
        assert b is not a

    def test_prefers_zero_confidence_victim(self):
        table = SetAssocTable(num_sets=1, ways=2)
        a = table.allocate(0, tag=1)
        a.valid, a.tag, a.confidence = True, 1, 5
        b = table.allocate(0, tag=2)
        b.valid, b.tag, b.confidence = True, 2, 0
        victim = table.allocate(0, tag=3)
        assert victim is b  # the dead (zero-confidence) entry goes first

    def test_lru_victim_when_all_confident(self):
        table = SetAssocTable(num_sets=1, ways=2)
        a = table.allocate(0, tag=1)
        a.valid, a.tag, a.confidence = True, 1, 5
        b = table.allocate(0, tag=2)
        b.valid, b.tag, b.confidence = True, 2, 5
        table.lookup(0, tag=1)  # A becomes MRU
        victim = table.allocate(0, tag=3)
        assert victim is b

    def test_index_wraps_modulo_sets(self):
        table = SetAssocTable(num_sets=4, ways=1)
        entry = table.allocate(9, tag=1)  # set 1
        entry.valid, entry.tag = True, 1
        assert table.lookup(5, tag=1) is entry

    def test_clear(self):
        table = SetAssocTable(num_sets=2, ways=2)
        entry = table.allocate(0, tag=1)
        entry.valid = True
        table.clear()
        assert all(not e.valid for e in table.entries())

    def test_total_entries(self):
        assert SetAssocTable(num_sets=128, ways=4).total_entries == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            SetAssocTable(num_sets=0, ways=4)


class _EagerTable:
    """Oracle: the same replacement policy with every set built up front."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.sets = [[PredictionEntry() for _ in range(ways)] for _ in range(num_sets)]
        self.lru = [LRUState(ways) for _ in range(num_sets)]

    def lookup(self, index: int, tag: int) -> Optional[int]:
        set_index = index % self.num_sets
        for way, entry in enumerate(self.sets[set_index]):
            if entry.valid and entry.tag == tag:
                self.lru[set_index].touch(way)
                return way
        return None

    def allocate(self, index: int, tag: int) -> int:
        set_index = index % self.num_sets
        ways, lru = self.sets[set_index], self.lru[set_index]
        for way, entry in enumerate(ways):
            if entry.valid and entry.tag == tag:
                break
        else:
            for way, entry in enumerate(ways):
                if not entry.valid:
                    break
            else:
                zero = [w for w in lru.recency_order()[::-1] if ways[w].confidence == 0]
                way = zero[0] if zero else lru.victim()
        lru.touch(way)
        return way

    def clear(self) -> None:
        for ways in self.sets:
            for entry in ways:
                entry.valid, entry.confidence, entry.useful = False, 0, 0


def _way_of(table: SetAssocTable, index: int, entry: Optional[PredictionEntry]):
    if entry is None:
        return None
    return table._entries[index % table.num_sets].index(entry)


class TestLazySets:
    """Sets exist only once written, and an absent set acts like a fresh one."""

    def test_lookup_on_untouched_set_misses_without_materialising(self):
        table = SetAssocTable(num_sets=8, ways=4)
        for tag in (0, 1, 5):
            assert table.lookup(3, tag=tag) is None
            assert table.lookup(3, tag=tag, touch=False) is None
        assert table.entries() == []

    def test_first_allocation_takes_way_zero(self):
        table = SetAssocTable(num_sets=8, ways=4)
        entry = table.allocate(5, tag=9)
        assert not entry.valid and entry.confidence == 0
        assert len(table.entries()) == 4
        assert table.entries()[0] is entry  # way 0 of the only built set
        entry.valid, entry.tag = True, 9
        second = table.allocate(5, tag=10)
        assert table.entries()[1] is second  # then the next invalid way

    def test_seeded_stream_matches_eager_table(self):
        rng = random.Random(17)
        lazy, eager = SetAssocTable(num_sets=16, ways=4), _EagerTable(16, 4)
        trail_lazy: List[object] = []
        trail_eager: List[object] = []
        for step in range(4000):
            index, tag = rng.randrange(64), rng.randrange(12)
            if step % 997 == 996:
                lazy.clear()
                eager.clear()
            elif rng.random() < 0.5:
                trail_lazy.append(_way_of(lazy, index, lazy.lookup(index, tag)))
                trail_eager.append(eager.lookup(index, tag))
            else:
                entry = lazy.allocate(index, tag)
                way = eager.allocate(index, tag)
                trail_lazy.append(_way_of(lazy, index, entry))
                trail_eager.append(way)
                confidence = rng.randrange(3)
                twin = eager.sets[index % 16][way]
                for target in (entry, twin):
                    target.valid, target.tag, target.confidence = True, tag, confidence
        assert trail_lazy == trail_eager
        assert any(way is not None and way > 0 for way in trail_lazy)

    def test_clear_on_partly_materialised_table(self):
        table = SetAssocTable(num_sets=8, ways=2)
        for index in (1, 6):
            entry = table.allocate(index, tag=index)
            entry.valid, entry.tag, entry.confidence, entry.useful = True, index, 3, 1
        table.clear()
        assert len(table.entries()) == 4  # clearing builds no further sets
        assert all(
            not e.valid and e.confidence == 0 and e.useful == 0 for e in table.entries()
        )
        assert table.lookup(1, tag=1) is None
        assert table.lookup(2, tag=2) is None
        # Cleared and untouched sets alike hand out their first invalid way.
        assert table.allocate(1, tag=4) is table.entries()[0]
        assert table.allocate(3, tag=4) is table.entries()[2]


class TestFoldWindow:
    def test_single_chunk_identity(self):
        assert fold_window([0b1010101], 7, 16) == 0b1010101

    def test_position_matters(self):
        assert fold_window([1, 2], 7, 16) != fold_window([2, 1], 7, 16)

    def test_empty_window(self):
        assert fold_window([], 7, 16) == 0

    def test_leading_zero_chunks_neutral(self):
        """Cold-start short windows equal zero-padded full windows."""
        assert fold_window([5, 9], 7, 16) == fold_window([0, 0, 5, 9], 7, 16)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            fold_window([1], 7, 0)

    @given(
        st.lists(st.integers(0, 127), max_size=40),
        st.integers(2, 20),
    )
    def test_fits_width(self, chunks, width):
        assert 0 <= fold_window(chunks, 7, width) < (1 << width)


class TestChunkedFoldedHistory:
    @given(
        st.lists(st.integers(0, 127), min_size=1, max_size=60),
        st.integers(1, 12),
        st.integers(2, 18),
    )
    def test_incremental_equals_reference(self, chunks, length, width):
        """The rolling fold always equals refolding its window from scratch."""
        rolling = ChunkedFoldedHistory(length, 7, width)
        for chunk in chunks:
            rolling.push(chunk)
            assert rolling.value == fold_window(rolling.window(), 7, width)

    def test_window_contents(self):
        rolling = ChunkedFoldedHistory(3, 7, 8)
        for chunk in (1, 2, 3, 4):
            rolling.push(chunk)
        assert rolling.window() == (2, 3, 4)

    def test_same_content_same_fold(self):
        """Content-determinism: what makes predict/train lookups agree."""
        a = ChunkedFoldedHistory(4, 7, 10)
        b = ChunkedFoldedHistory(4, 7, 10)
        for chunk in (9, 9, 9, 5, 6, 7, 8):
            a.push(chunk)
        for chunk in (1, 2, 3, 5, 6, 7, 8):  # different prefix, same window
            b.push(chunk)
        assert a.window() == b.window()
        assert a.value == b.value

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkedFoldedHistory(0, 7, 8)
