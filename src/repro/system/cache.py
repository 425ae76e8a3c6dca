"""Set-associative cache structure with LRU replacement.

Used for both the private L1s (32 KB, 2-way) and the shared-L2 banks
(256 KB, 16-way) of the paper's Table 2.  The cache stores an opaque
``line`` object per block (protocol state lives in the controllers);
this module only provides placement, lookup and LRU eviction.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterable, Iterator, Optional, Sequence, Tuple, TypeVar

L = TypeVar("L")

#: Cache block size in bytes (Table 2).
BLOCK_BYTES = 64


class _Sets(dict):
    """Set index -> {block: line}; a set appears the first time it is indexed.

    It appears holding what the preload image lists for it (nothing
    without one).  Every access path of the cache indexes ``_sets[...]``,
    so none of them can see a set before its image has been applied.
    """

    __slots__ = ("image", "make_line")

    def __init__(self) -> None:
        super().__init__()
        #: Per set index: the blocks a never-indexed set holds, oldest
        #: first.  Shared between caches and never written.
        self.image: Sequence[Tuple[int, ...]] = ()
        self.make_line: Optional[Callable[[], object]] = None

    def __missing__(self, index: int) -> dict:
        # Runs once per set a chip touches (~10k a cell): a plain loop,
        # no comprehension frame.
        cache_set = {}
        image = self.image
        if image:
            make_line = self.make_line
            for block in image[index]:
                cache_set[block] = make_line()
        self[index] = cache_set
        return cache_set


class SetAssociativeCache(Generic[L]):
    """A ``num_sets`` x ``ways`` cache indexed by block address."""

    def __init__(self, size_bytes: int, ways: int, block_bytes: int = BLOCK_BYTES):
        if size_bytes % (ways * block_bytes):
            raise ValueError("cache size must be a multiple of way * block size")
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // (ways * block_bytes)
        if self.num_sets < 1:
            raise ValueError("cache too small for its associativity")
        #: Set index -> {block: line}, least recently used first.  Sets
        #: appear on first touch: a chip has 32k of them, a warmed L2
        #: bank indexes 4 of its 256 and a short run reads under half
        #: of its warm L1 lines, so untouched ones are not worth making.
        self._sets: Dict[int, Dict[int, L]] = _Sets()

    def preload(
        self, image: Sequence[Tuple[int, ...]], make_line: Callable[[], L]
    ) -> None:
        """Let every set not indexed yet start from ``image``.

        ``image[i]`` lists set *i*'s blocks, oldest first (at most
        ``ways``); each gets its own ``make_line()`` when the set is
        first indexed.  The image is read, never written, so any number
        of caches may stand on one.
        """
        if len(image) != self.num_sets:
            raise ValueError("a preload image lists every set of the cache")
        self._sets.image = image
        self._sets.make_line = make_line

    # ------------------------------------------------------------------
    def set_index(self, block: int) -> int:
        """Cache set a block maps to."""
        return block % self.num_sets

    def lookup(self, block: int, touch: bool = True) -> Optional[L]:
        """The line for ``block`` or None; refreshes LRU on hit."""
        cache_set = self._sets[block % self.num_sets]
        line = cache_set.get(block)
        if line is not None and touch:
            cache_set[block] = cache_set.pop(block)
        return line

    def contains(self, block: int) -> bool:
        """Whether the block is resident (no LRU update)."""
        return block in self._sets[self.set_index(block)]

    def insert(self, block: int, line: L) -> Optional[Tuple[int, L]]:
        """Insert a line; returns the evicted (block, line) if any.

        The caller must make room decisions *before* inserting when an
        eviction has protocol side effects — use :meth:`victim_for`.
        """
        cache_set = self._sets[self.set_index(block)]
        evicted = None
        if block in cache_set:
            del cache_set[block]
        elif len(cache_set) >= self.ways:
            victim = next(iter(cache_set))
            evicted = (victim, cache_set.pop(victim))
        cache_set[block] = line
        return evicted

    def fill(self, items: Iterable[Tuple[int, L]]) -> None:
        """Bulk :meth:`insert` in iteration order; evicted lines are dropped."""
        sets, num_sets, ways = self._sets, self.num_sets, self.ways
        for block, line in items:
            cache_set = sets[block % num_sets]
            if block in cache_set:
                del cache_set[block]
            elif len(cache_set) >= ways:
                del cache_set[next(iter(cache_set))]
            cache_set[block] = line

    def victim_for(self, block: int, evictable=None) -> Optional[Tuple[int, L]]:
        """The (block, line) that inserting ``block`` would evict.

        ``evictable(block)`` may veto candidates (e.g. lines with an
        in-flight transaction); the least-recently-used eligible line
        is chosen.  Returns None when no eviction is needed; raises if
        every line in the set is vetoed.
        """
        cache_set = self._sets[self.set_index(block)]
        if block in cache_set or len(cache_set) < self.ways:
            return None
        for candidate in cache_set.items():
            if evictable is None or evictable(candidate[0]):
                return candidate
        raise RuntimeError("no evictable line in cache set")

    def remove(self, block: int) -> Optional[L]:
        """Remove and return the block's line, or None."""
        return self._sets[self.set_index(block)].pop(block, None)

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Total resident lines."""
        return sum(1 for _item in self.items())

    def items(self) -> Iterator[Tuple[int, L]]:
        """Iterate (block, line) pairs across all sets, each oldest first.

        A set still standing on the preload image is reported without
        being materialised: its lines are fresh ``make_line()`` copies.
        """
        sets = self._sets
        for cache_set in sets.values():
            yield from cache_set.items()
        for index, blocks in enumerate(sets.image):
            if blocks and index not in sets:
                for block in blocks:
                    yield block, sets.make_line()

    @property
    def capacity_blocks(self) -> int:
        """Total line capacity of the cache."""
        return self.num_sets * self.ways
