"""The 2D mesh topology.

The paper evaluates Power Punch on planar 2D meshes (4x4, 8x8, 16x16)
with dimension-order (XY) routing, matching the topologies used by most
taped-out many-core chips (Sec. 2.1).  Nodes are numbered row-major, as
in the paper's Figure 4: node ``y * width + x`` sits at column ``x``
(growing in the X+ direction) and row ``y`` (growing in the Y+
direction).

Port model: the mesh exposes ``ports``, a tuple of :class:`Direction`
members with *contiguous* integer codes starting at ``LOCAL == 0``.
Contiguity is a hard requirement of the vector kernel's flat
``(router * P + port) * V + vc`` SoA indexing, where
``P == len(ports)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


class Direction(enum.IntEnum):
    """Router port directions.

    ``LOCAL`` connects the router to its network interface; the four
    cardinal directions connect to neighbors.  ``XPOS`` points toward
    larger x (e.g. R27 -> R28 in the paper's Figure 4) and ``YPOS``
    toward larger y (R27 -> R35).
    """

    LOCAL = 0
    XPOS = 1
    XNEG = 2
    YPOS = 3
    YNEG = 4

    @property
    def opposite(self) -> "Direction":
        """The direction a neighbor uses for the same physical link."""
        return _OPPOSITE[self]

    @property
    def is_x(self) -> bool:
        """Whether this is an X-dimension direction."""
        return self in (Direction.XPOS, Direction.XNEG)

    @property
    def is_y(self) -> bool:
        """Whether this is a Y-dimension direction."""
        return self in (Direction.YPOS, Direction.YNEG)


_OPPOSITE = {
    Direction.LOCAL: Direction.LOCAL,
    Direction.XPOS: Direction.XNEG,
    Direction.XNEG: Direction.XPOS,
    Direction.YPOS: Direction.YNEG,
    Direction.YNEG: Direction.YPOS,
}

#: The four mesh directions (everything but LOCAL).
MESH_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.XPOS,
    Direction.XNEG,
    Direction.YPOS,
    Direction.YNEG,
)

#: All five router ports of a 2D mesh router.
ALL_DIRECTIONS: Tuple[Direction, ...] = (Direction.LOCAL,) + MESH_DIRECTIONS


@dataclass(frozen=True)
class Coordinate:
    """Grid coordinate of a node."""

    x: int
    y: int


class MeshTopology:
    """A ``width`` x ``height`` 2D mesh.

    Provides coordinate/node-id conversion, neighbor lookup, and hop
    distance.  All Power Punch path computations (targeted routers,
    punch relays) are built on top of this class together with
    :mod:`repro.noc.routing`.
    """

    #: Router ports, contiguous codes 0..P-1 with LOCAL first.
    ports: Tuple[Direction, ...] = ALL_DIRECTIONS

    def __init__(self, width: int, height: Optional[int] = None) -> None:
        if height is None:
            height = width
        if width < 2 or height < 2:
            raise ValueError("mesh dimensions must be at least 2x2")
        self.width = width
        self.height = height

    @property
    def num_ports(self) -> int:
        """Ports per router (``P`` in the vector kernel's SoA layout)."""
        return len(self.ports)

    @property
    def num_nodes(self) -> int:
        """Total node count (width x height)."""
        return self.width * self.height

    @property
    def spec(self) -> str:
        """Canonical serialization, e.g. ``"mesh:8x8"``."""
        return f"mesh:{self.width}x{self.height}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.width}x{self.height})"

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coord(self, node: int) -> Coordinate:
        """Coordinate of ``node`` (row-major numbering)."""
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} outside mesh of {self.num_nodes} nodes")
        return Coordinate(node % self.width, node // self.width)

    def node_at(self, x: int, y: int) -> int:
        """Node id at coordinate ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x}, {y}) outside mesh")
        return y * self.width + x

    def contains(self, x: int, y: int) -> bool:
        """Whether coordinate (x, y) lies inside the grid."""
        return 0 <= x < self.width and 0 <= y < self.height

    # ------------------------------------------------------------------
    # Neighbors and links
    # ------------------------------------------------------------------
    def neighbor(self, node: int, direction: Direction) -> Optional[int]:
        """Neighbor of ``node`` in ``direction``, or ``None`` at an edge."""
        if direction == Direction.LOCAL:
            return node
        c = self.coord(node)
        dx, dy = _DELTAS[direction]
        nx, ny = c.x + dx, c.y + dy
        if not self.contains(nx, ny):
            return None
        return self.node_at(nx, ny)

    def neighbors(self, node: int) -> Iterator[Tuple[Direction, int]]:
        """All existing neighbors of ``node`` as (direction, id)."""
        for direction in MESH_DIRECTIONS:
            other = self.neighbor(node, direction)
            if other is not None:
                yield direction, other

    def direction_to_neighbor(self, node: int, neighbor: int) -> Direction:
        """Direction of an adjacent ``neighbor`` as seen from ``node``."""
        for direction, other in self.neighbors(node):
            if other == neighbor:
                return direction
        raise ValueError(f"nodes {node} and {neighbor} are not adjacent")

    def links(self) -> Iterator[Tuple[int, int]]:
        """All directed links as (src, dst) pairs."""
        for node in range(self.num_nodes):
            for _, other in self.neighbors(node):
                yield node, other

    # ------------------------------------------------------------------
    # Distance
    # ------------------------------------------------------------------
    def hop_distance(self, a: int, b: int) -> int:
        """Manhattan (minimal-mesh) hop distance between nodes."""
        ca, cb = self.coord(a), self.coord(b)
        return abs(ca.x - cb.x) + abs(ca.y - cb.y)

    def nodes_within(self, node: int, hops: int) -> List[int]:
        """All nodes within ``hops`` of ``node``, excluding the node itself.

        Used to reproduce the paper's Sec. 3 motivation: in an 8x8 mesh
        24 routers lie within 3 hops of R27 (~38% of the chip).
        """
        return [
            other
            for other in range(self.num_nodes)
            if other != node and self.hop_distance(node, other) <= hops
        ]


_DELTAS = {
    Direction.XPOS: (1, 0),
    Direction.XNEG: (-1, 0),
    Direction.YPOS: (0, 1),
    Direction.YNEG: (0, -1),
}
