"""Punch-signal encoding analysis (paper Sec. 4.1, Table 1, Fig. 5).

The paper's central hardware argument is that all wakeup signals
crossing a link in the same cycle can be merged into a *narrow* punch
signal: 5 bits per X link and 2 bits per Y link for 3-hop slack (8/2
bits for 4-hop).  This module re-derives that result from first
principles by walking the paper's five encoding steps:

1. the *targeted router* of a wakeup signal is the router ``H`` hops
   ahead on the packet's XY path (or the destination if closer);
2. intermediate routers are implicitly notified, so only the targeted
   router needs to be named;
3. XY turn restrictions shrink the set of routers whose signals can use
   a given link (e.g. only R25/R26/R27 can source signals on the
   R27->R28 link of an 8x8 mesh);
4. target sets in which one target lies on the relay path of another
   collapse to the same encoding; enumerating the distinct collapsed
   sets gives the minimal code count (22 for the X+ link of R27);
5. the punch-signal width is ``ceil(log2(#distinct sets + 1))`` — one
   extra code for "no signal".

Everything is computed by exhaustive enumeration over the topology, so
the tests can assert the paper's exact numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Set, Tuple

from ..noc.routing import XYRouting
from ..noc.topology import Direction, MeshTopology


@dataclass(frozen=True)
class LinkEncoding:
    """Encoding summary for one directed link."""

    router: int
    direction: Direction
    neighbor: int
    #: Routers that may source wakeup signals using this link.
    sources: Tuple[int, ...]
    #: Possible targeted routers per source.
    targets_by_source: Dict[int, FrozenSet[int]]
    #: All distinct canonical target sets that can occur in one cycle.
    distinct_sets: Tuple[FrozenSet[int], ...]

    @property
    def num_codes(self) -> int:
        """Distinct punch values needed, including the idle code."""
        return len(self.distinct_sets) + 1

    @property
    def width_bits(self) -> int:
        """Minimal punch-signal width for this link."""
        return max(1, math.ceil(math.log2(self.num_codes)))


@lru_cache(maxsize=16)
def _encoding_tables(spec: str, hops: int) -> Tuple[dict, dict]:
    """Memos of the static analysis of one fabric at one horizon: XY
    paths per (src, dst), :class:`LinkEncoding` per (router, direction).
    A function of the key alone (like ``schemes._punch_tables``), so
    every analysis of that fabric and horizon in this process fills and
    reads the same two dicts.
    """
    return {}, {}


class PunchEncodingAnalysis:
    """Exhaustive punch-encoding analysis for a mesh with XY routing.

    An instance is a view on the per-process tables of its
    ``(topology.spec, hops)``: a link is enumerated once per process,
    whoever asks.
    """

    def __init__(self, topology: MeshTopology, hops: int = 3) -> None:
        if hops < 1:
            raise ValueError("punch hop slack must be at least 1")
        self.topology = topology
        self.routing = XYRouting(topology)
        self.hops = hops
        #: Memoized XY paths — the exhaustive enumerations below revisit
        #: the same (src, dst) pairs many times — and finished links.
        self._path_cache, self._link_cache = _encoding_tables(topology.spec, hops)

    def _path(self, src: int, dst: int) -> List[int]:
        key = (src, dst)
        path = self._path_cache.get(key)
        if path is None:
            path = self.routing.path(src, dst)
            self._path_cache[key] = path
        return path

    # ------------------------------------------------------------------
    # Step 1-3: wakeup-signal sources and targets per link
    # ------------------------------------------------------------------
    def signal_pairs_on_link(self, router: int, direction: Direction):
        """All (source, target) wakeup signals that can use this link."""
        neighbor = self.topology.neighbor(router, direction)
        if neighbor is None:
            raise ValueError(f"router {router} has no {direction.name} link")
        pairs: Set[Tuple[int, int]] = set()
        candidates = [router] + self.topology.nodes_within(router, self.hops - 1)
        for source in candidates:
            for dest in range(self.topology.num_nodes):
                if dest == source:
                    continue
                target = self.routing.router_ahead(source, dest, self.hops)
                path = self._path(source, target)
                for a, b in zip(path, path[1:]):
                    if a == router and b == neighbor:
                        pairs.add((source, target))
                        break
        return pairs

    def analyze_link(self, router: int, direction: Direction) -> LinkEncoding:
        """Full encoding analysis of the link ``router -> direction``."""
        cached = self._link_cache.get((router, direction))
        if cached is not None:
            return cached
        neighbor = self.topology.neighbor(router, direction)
        if neighbor is None:
            raise ValueError(f"router {router} has no {direction.name} link")
        targets_by_source: Dict[int, Set[int]] = {}
        for source, target in self.signal_pairs_on_link(router, direction):
            targets_by_source.setdefault(source, set()).add(target)
        sources = tuple(sorted(targets_by_source))

        # Each source router emits at most one wakeup signal per output
        # link per cycle; every simultaneous combination is one raw
        # target set.  Grown source by source as a set of sets, because
        # most combinations name the same routers (a 4-hop Y link has
        # many sources sharing a few targets).
        raw_sets: Set[FrozenSet[int]] = {frozenset()}
        for source in sources:
            raw_sets |= {
                raw | {target}
                for raw in raw_sets
                for target in targets_by_source[source]
            }
        distinct = {self.canonicalize(raw, neighbor) for raw in raw_sets if raw}
        encoding = self._link_cache[(router, direction)] = LinkEncoding(
            router=router,
            direction=direction,
            neighbor=neighbor,
            sources=sources,
            targets_by_source={
                s: frozenset(ts) for s, ts in targets_by_source.items()
            },
            distinct_sets=tuple(
                sorted(distinct, key=lambda s: (len(s), sorted(s)))
            ),
        )
        return encoding

    # ------------------------------------------------------------------
    # Step 4: implicit-containment reduction
    # ------------------------------------------------------------------
    def canonicalize(self, targets: FrozenSet[int], link_dst: int) -> FrozenSet[int]:
        """Drop targets implicitly covered by another target's relay path.

        A target ``T1`` need not be named if it lies on the XY path from
        the link destination toward another target ``T2``: relaying the
        punch to ``T2`` wakes ``T1`` on the way (paper step 4, e.g.
        {R29, R21} == {R21} on the R27->R28 link).
        """
        kept = set(targets)
        for t2 in targets:
            if t2 not in kept:
                continue
            path = self._path(link_dst, t2)
            for t1 in list(kept):
                if t1 != t2 and t1 in path:
                    kept.discard(t1)
        return frozenset(kept)

    # ------------------------------------------------------------------
    # Step 5: widths across the whole chip
    # ------------------------------------------------------------------
    def max_width(self, direction_axis: str) -> int:
        """Worst-case punch width over all links on the given axis."""
        if direction_axis not in ("x", "y"):
            raise ValueError("direction_axis must be 'x' or 'y'")
        dirs = (
            (Direction.XPOS, Direction.XNEG)
            if direction_axis == "x"
            else (Direction.YPOS, Direction.YNEG)
        )
        width = 0
        for router in range(self.topology.num_nodes):
            for direction in dirs:
                if self.topology.neighbor(router, direction) is None:
                    continue
                width = max(width, self.analyze_link(router, direction).width_bits)
        return width

    # ------------------------------------------------------------------
    # Table 1 regeneration
    # ------------------------------------------------------------------
    def encoding_table(
        self, router: int, direction: Direction
    ) -> List[Tuple[FrozenSet[int], str]]:
        """Distinct target sets with assigned binary punch codes.

        Reproduces the paper's Table 1 (sets of targeted routers in a
        direction of a router and their punch-signal encodings).  Codes
        are assigned in enumeration order starting from 0; code
        ``2**width - 1``-style idle value is implicit.
        """
        encoding = self.analyze_link(router, direction)
        width = encoding.width_bits
        return [
            (target_set, format(code, f"0{width}b"))
            for code, target_set in enumerate(encoding.distinct_sets)
        ]
