"""Synthetic traffic patterns.

The paper's Fig. 12 sweeps uniform-random, transpose and bit-complement
traffic across the full load range; a few further classics are included
for completeness (tornado, bit-reverse, neighbor, hotspot).

Patterns address nodes through the
:class:`~repro.noc.topology.MeshTopology` coordinate API.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from ..noc.topology import MeshTopology

#: A pattern maps (source, topology, rng) -> destination (may equal the
#: source, in which case the generator redraws or skips).
PatternFn = Callable[[int, MeshTopology, random.Random], int]


def uniform_random(source: int, topology: MeshTopology, rng: random.Random) -> int:
    """Destination drawn uniformly from all other nodes."""
    dst = rng.randrange(topology.num_nodes - 1)
    return dst if dst < source else dst + 1


def transpose(source: int, topology: MeshTopology, rng: random.Random) -> int:
    """Node (x, y) sends to (y, x) (square meshes only: on any other
    shape the map is not a permutation)."""
    if topology.width != topology.height:
        raise ValueError(
            f"transpose needs a square mesh, got {topology.width}x{topology.height}"
        )
    c = topology.coord(source)
    return topology.node_at(c.y, c.x)


def bit_complement(source: int, topology: MeshTopology, rng: random.Random) -> int:
    """Node i sends to N-1-i."""
    return topology.num_nodes - 1 - source


def bit_reverse(source: int, topology: MeshTopology, rng: random.Random) -> int:
    """Node i sends to the bit-reversal of i (power-of-two node counts
    only: on any other count the map is not a permutation)."""
    n = topology.num_nodes
    if n & (n - 1):
        raise ValueError(
            f"bit_reverse needs a power-of-two node count, got {n} "
            f"({topology.width}x{topology.height})"
        )
    bits = (n - 1).bit_length()
    value = 0
    for b in range(bits):
        if source & (1 << b):
            value |= 1 << (bits - 1 - b)
    return value


def tornado(source: int, topology: MeshTopology, rng: random.Random) -> int:
    """Half-width offset along X (adversarial for rings, benign on mesh)."""
    c = topology.coord(source)
    return topology.node_at((c.x + topology.width // 2) % topology.width, c.y)


def neighbor(source: int, topology: MeshTopology, rng: random.Random) -> int:
    """Node (x, y) sends to (x+1, y) with wraparound."""
    c = topology.coord(source)
    return topology.node_at((c.x + 1) % topology.width, c.y)


def hotspot(
    hotspot_node: int = 0, hotspot_fraction: float = 0.2
) -> PatternFn:
    """Uniform random with a fraction of traffic aimed at one node."""

    def pattern(source: int, topology: MeshTopology, rng: random.Random) -> int:
        if rng.random() < hotspot_fraction and source != hotspot_node:
            return hotspot_node
        return uniform_random(source, topology, rng)

    return pattern


PATTERNS: Dict[str, PatternFn] = {
    "uniform_random": uniform_random,
    "transpose": transpose,
    "bit_complement": bit_complement,
    "bit_reverse": bit_reverse,
    "tornado": tornado,
    "neighbor": neighbor,
}


def get_pattern(name: str) -> PatternFn:
    """Look up a traffic pattern by name."""
    try:
        return PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; available: {sorted(PATTERNS)}"
        ) from None
