"""Tests for the set-associative cache structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system import SetAssociativeCache


def make(size=1024, ways=2, block=64):
    return SetAssociativeCache(size, ways, block)


class TestGeometry:
    def test_l1_geometry(self):
        # 32KB, 2-way, 64B blocks -> 256 sets (paper Table 2).
        cache = make(32 * 1024, 2)
        assert cache.num_sets == 256
        assert cache.capacity_blocks == 512

    def test_l2_bank_geometry(self):
        # 256KB, 16-way -> 256 sets per bank.
        cache = make(256 * 1024, 16)
        assert cache.num_sets == 256
        assert cache.capacity_blocks == 4096

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            make(1000, 3)


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make()
        assert cache.lookup(5) is None
        cache.insert(5, "line5")
        assert cache.lookup(5) == "line5"
        assert cache.contains(5)

    def test_insert_returns_eviction(self):
        cache = make(256, 2, 64)  # 2 sets, 2 ways
        cache.insert(0, "a")
        cache.insert(2, "b")  # same set (block % 2 == 0)
        assert cache.insert(4, "c") == (0, "a")
        assert not cache.contains(0)

    def test_different_sets_do_not_conflict(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        cache.insert(1, "b")
        cache.insert(2, "c")
        cache.insert(3, "d")
        assert all(cache.contains(b) for b in range(4))

    def test_reinsert_updates_no_eviction(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        cache.insert(2, "b")
        assert cache.insert(0, "a2") is None
        assert cache.lookup(0) == "a2"


class TestLRU:
    def test_lru_order(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        cache.insert(2, "b")
        cache.lookup(0)  # refresh 0; 2 becomes LRU
        assert cache.victim_for(4) == (2, "b")

    def test_lookup_without_touch(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        cache.insert(2, "b")
        cache.lookup(0, touch=False)
        assert cache.victim_for(4) == (0, "a")

    def test_victim_respects_evictable_filter(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        cache.insert(2, "b")
        assert cache.victim_for(4, evictable=lambda b: b != 0) == (2, "b")

    def test_victim_raises_when_all_vetoed(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        cache.insert(2, "b")
        with pytest.raises(RuntimeError):
            cache.victim_for(4, evictable=lambda b: False)

    def test_no_victim_needed_when_room(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        assert cache.victim_for(2) is None

    def test_no_victim_needed_when_present(self):
        cache = make(256, 2, 64)
        cache.insert(0, "a")
        cache.insert(2, "b")
        assert cache.victim_for(0) is None


class TestRemove:
    def test_remove(self):
        cache = make()
        cache.insert(7, "x")
        assert cache.remove(7) == "x"
        assert cache.remove(7) is None
        assert cache.occupancy() == 0


def set_contents(cache):
    """Per non-empty set, least recently used first: (block, line)."""
    state = {}
    for block, line in cache.items():
        state.setdefault(cache.set_index(block), []).append((block, line))
    return state


class TestFill:
    """``fill(items)`` is ``for block, line in items: insert(block, line)``."""

    state = staticmethod(set_contents)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),  # sets
        st.integers(min_value=1, max_value=3),  # ways
        st.lists(st.integers(min_value=0, max_value=15), max_size=12),
        st.lists(st.integers(min_value=0, max_value=15), max_size=40),
    )
    def test_same_contents_and_lru_order_as_repeated_insert(
        self, sets, ways, resident, blocks
    ):
        """Small block range: over-full sets and repeats are the rule."""
        one, other = (make(sets * ways * 64, ways) for _ in range(2))
        for cache in (one, other):
            for block in resident:
                cache.insert(block, ("old", block))
        items = [(block, ("new", i)) for i, block in enumerate(blocks)]
        one.fill(iter(items))
        for block, line in items:
            other.insert(block, line)
        assert self.state(one) == self.state(other)


@st.composite
def preloads_and_operations(draw):
    """A geometry, a legal image for it and operations that collide."""
    sets = draw(st.integers(min_value=1, max_value=4))
    ways = draw(st.integers(min_value=1, max_value=3))
    image = tuple(
        tuple(
            index + sets * k
            for k in draw(st.lists(st.integers(0, 5), max_size=ways, unique=True))
        )
        for index in range(sets)
    )
    block = st.integers(min_value=0, max_value=6 * sets - 1)
    operation = st.one_of(
        st.tuples(st.just("lookup"), block, st.booleans()),
        st.tuples(st.just("contains"), block),
        st.tuples(st.just("insert"), block, st.integers()),
        st.tuples(st.just("victim_for"), block),
        st.tuples(st.just("victim_for"), block, st.integers(0, 2)),
        st.tuples(st.just("remove"), block),
        st.tuples(st.just("items")),
    )
    return sets, ways, image, draw(st.lists(operation, max_size=30))


class TestPreload:
    """A preloaded cache is a cache that was ``fill``ed with the image,
    whatever is done to it and in whatever order."""

    @staticmethod
    def apply(cache, operation):
        name, *args = operation
        if name == "items":
            return set_contents(cache), cache.occupancy()
        if name == "victim_for" and len(args) == 2:
            veto = args[1]
            try:
                return cache.victim_for(args[0], evictable=lambda b: b % 3 != veto)
            except RuntimeError:
                return "all vetoed"
        if name == "insert":
            return cache.insert(args[0], ["inserted", args[1]])
        return getattr(cache, name)(*args)

    @settings(max_examples=200, deadline=None)
    @given(preloads_and_operations())
    def test_same_as_eager_fill(self, case):
        sets, ways, image, operations = case
        lazy, eager = (make(sets * ways * 64, ways) for _ in range(2))
        lazy.preload(image, lambda: ["warm"])
        eager.fill((block, ["warm"]) for blocks in image for block in blocks)
        for operation in operations:
            assert self.apply(lazy, operation) == self.apply(eager, operation)
        assert set_contents(lazy) == set_contents(eager)
        assert lazy.occupancy() == eager.occupancy()

    def test_every_line_is_its_own(self):
        cache = make(256, 2, 64)  # 2 sets
        cache.preload(((0, 2), (1,)), lambda: ["warm"])
        cache.lookup(0).append("written")
        assert cache.lookup(2) == ["warm"]
        assert [line for _b, line in cache.items()] == [["warm", "written"], ["warm"], ["warm"]]

    def test_enumeration_creates_nothing(self):
        cache = make(256, 2, 64)
        cache.preload(((0, 2), (1,)), lambda: ["warm"])
        reported = [line for _b, line in cache.items()]
        assert cache.occupancy() == 3
        reported[0].append("lost")  # a copy: the set is not there yet
        assert cache.lookup(0) == ["warm"]

    def test_image_must_cover_the_geometry(self):
        with pytest.raises(ValueError):
            make(256, 2, 64).preload(((0,),), list)
