"""Set-associative cache structure with LRU replacement.

Used for both the private L1s (32 KB, 2-way) and the shared-L2 banks
(256 KB, 16-way) of the paper's Table 2.  The cache stores an opaque
``line`` object per block (protocol state lives in the controllers);
this module only provides placement, lookup and LRU eviction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Generic, Iterable, Iterator, Optional, Tuple, TypeVar

L = TypeVar("L")

#: Cache block size in bytes (Table 2).
BLOCK_BYTES = 64


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
        #: appear on first touch: a chip has 32k of them and a warmed L2
        #: bank indexes 4 of its 256, so empty ones are not worth making.
        self._sets: DefaultDict[int, Dict[int, L]] = defaultdict(dict)

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
        return sum(len(s) for s in self._sets.values())

    def items(self) -> Iterator[Tuple[int, L]]:
        """Iterate (block, line) pairs across all sets."""
        for cache_set in self._sets.values():
            yield from cache_set.items()

    @property
    def capacity_blocks(self) -> int:
        """Total line capacity of the cache."""
        return self.num_sets * self.ways
