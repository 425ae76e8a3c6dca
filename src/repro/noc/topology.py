"""Network topologies.

The paper evaluates Power Punch on planar 2D meshes (4x4, 8x8, 16x16)
with dimension-order (XY) routing, matching the topologies used by most
taped-out many-core chips (Sec. 2.1).  Nodes are numbered row-major, as
in the paper's Figure 4: node ``y * width + x`` sits at column ``x``
(growing in the X+ direction) and row ``y`` (growing in the Y+
direction).

The mesh is no longer hard-wired, though: :class:`Topology` abstracts
the port model, neighbor map, coordinates, and distance metric, and the
rest of the simulator (routers, kernels, power model, visualisation) is
written against that interface.  :class:`Mesh2D` is the extracted
default; :class:`Torus2D` adds wrap-around links in both dimensions and
:class:`Ring` is a single bidirectional cycle.  The new fabrics are
baseline comparison points — Power Punch's multi-hop punch encoding
stays mesh+XY specific (see :mod:`repro.noc.routing`).

Port model: every topology exposes ``ports``, a tuple of
:class:`Direction` members with *contiguous* integer codes starting at
``LOCAL == 0``.  Contiguity is a hard requirement of the vector
kernel's flat ``(router * P + port) * V + vc`` SoA indexing, where
``P == len(ports)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Iterator, List, Optional, Tuple


class Direction(enum.IntEnum):
    """Router port directions.

    ``LOCAL`` connects the router to its network interface; the four
    cardinal directions connect to neighbors.  ``XPOS`` points toward
    larger x (e.g. R27 -> R28 in the paper's Figure 4) and ``YPOS``
    toward larger y (R27 -> R35).  On a :class:`Ring`, ``XPOS`` is the
    clockwise port and ``XNEG`` counter-clockwise; the Y ports are
    simply absent from ``Ring.ports``.
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

#: All five router ports of a 2D mesh/torus router.
ALL_DIRECTIONS: Tuple[Direction, ...] = (Direction.LOCAL,) + MESH_DIRECTIONS

#: The three ports of a ring router (local + both cycle directions).
RING_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.LOCAL,
    Direction.XPOS,
    Direction.XNEG,
)


@dataclass(frozen=True)
class Coordinate:
    """Grid coordinate of a node."""

    x: int
    y: int


class Topology:
    """Abstract fabric: port model, neighbor map, coordinates, distance.

    Concrete topologies define ``name`` (the canonical config string),
    ``ports`` (contiguous Direction codes, LOCAL first), a ``neighbor``
    map, and a minimal ``hop_distance``.  Everything else — neighbor
    iteration, link enumeration, radius queries, serialization — is
    derived here.
    """

    #: Canonical name used by ``NoCConfig.topology`` and cache keys.
    name: ClassVar[str] = "abstract"
    #: Router ports, contiguous codes 0..P-1 with LOCAL first.
    ports: ClassVar[Tuple[Direction, ...]] = ALL_DIRECTIONS

    width: int
    height: int

    @property
    def num_ports(self) -> int:
        """Ports per router (``P`` in the vector kernel's SoA layout)."""
        return len(self.ports)

    @property
    def num_nodes(self) -> int:
        """Total node count (width x height)."""
        return self.width * self.height

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid extent as ``(width, height)`` for rendering."""
        return (self.width, self.height)

    @property
    def spec(self) -> str:
        """Canonical serialization, e.g. ``"torus:4x4"``."""
        return f"{self.name}:{self.width}x{self.height}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.width}x{self.height})"

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def coord(self, node: int) -> Coordinate:
        """Coordinate of ``node`` (row-major numbering)."""
        self._check_node(node)
        return Coordinate(node % self.width, node // self.width)

    def node_at(self, x: int, y: int) -> int:
        """Node id at coordinate ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x}, {y}) outside {self.name}")
        return y * self.width + x

    def contains(self, x: int, y: int) -> bool:
        """Whether coordinate (x, y) lies inside the grid."""
        return 0 <= x < self.width and 0 <= y < self.height

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(
                f"node {node} outside {self.name} of {self.num_nodes} nodes"
            )

    # ------------------------------------------------------------------
    # Neighbors and links
    # ------------------------------------------------------------------
    def neighbor(self, node: int, direction: Direction) -> Optional[int]:
        """Neighbor of ``node`` in ``direction``, or ``None`` at an edge."""
        raise NotImplementedError

    def neighbors(self, node: int) -> Iterator[Tuple[Direction, int]]:
        """All existing neighbors of ``node`` as (direction, id)."""
        for direction in self.ports[1:]:
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
        """Minimal hop distance between nodes."""
        raise NotImplementedError

    @property
    def diameter(self) -> int:
        """Largest minimal hop distance between any node pair."""
        raise NotImplementedError

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


class Mesh2D(Topology):
    """A ``width`` x ``height`` 2D mesh.

    Provides coordinate/node-id conversion, neighbor lookup, and hop
    distance.  All Power Punch path computations (targeted routers,
    punch relays) are built on top of this class together with
    :mod:`repro.noc.routing`.
    """

    name = "mesh"
    ports = ALL_DIRECTIONS

    def __init__(self, width: int, height: Optional[int] = None) -> None:
        if height is None:
            height = width
        if width < 2 or height < 2:
            raise ValueError("mesh dimensions must be at least 2x2")
        self.width = width
        self.height = height

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

    def hop_distance(self, a: int, b: int) -> int:
        """Manhattan (minimal-mesh) hop distance between nodes."""
        ca, cb = self.coord(a), self.coord(b)
        return abs(ca.x - cb.x) + abs(ca.y - cb.y)

    @property
    def diameter(self) -> int:
        """Corner-to-corner Manhattan distance."""
        return (self.width - 1) + (self.height - 1)


#: Back-compat alias: the mesh predates the Topology abstraction and is
#: imported under this name throughout older code and tests.
MeshTopology = Mesh2D


class Torus2D(Mesh2D):
    """A ``width`` x ``height`` 2D torus (mesh plus wrap-around links).

    Both dimensions must be at least 3 wide: on a 2-wide ring the XPOS
    and XNEG neighbors coincide, making ``direction_to_neighbor`` (and
    the credit return path, which is keyed by port) ambiguous.
    """

    name = "torus"

    def __init__(self, width: int, height: Optional[int] = None) -> None:
        super().__init__(width, height)
        if self.width < 3 or self.height < 3:
            raise ValueError("torus dimensions must be at least 3x3")

    def neighbor(self, node: int, direction: Direction) -> Optional[int]:
        """Neighbor of ``node`` in ``direction``; wraps at the edges."""
        if direction == Direction.LOCAL:
            return node
        c = self.coord(node)
        dx, dy = _DELTAS[direction]
        nx = (c.x + dx) % self.width
        ny = (c.y + dy) % self.height
        return self.node_at(nx, ny)

    def hop_distance(self, a: int, b: int) -> int:
        """Minimal hop distance, taking the shorter way around each ring."""
        ca, cb = self.coord(a), self.coord(b)
        dx = abs(ca.x - cb.x)
        dy = abs(ca.y - cb.y)
        return min(dx, self.width - dx) + min(dy, self.height - dy)

    @property
    def diameter(self) -> int:
        """Half-way around both rings."""
        return self.width // 2 + self.height // 2


class Ring(Topology):
    """A single bidirectional ring of ``num_nodes`` routers.

    Rendered as an ``N x 1`` grid (node ``i`` at coordinate ``(i, 0)``);
    ``XPOS`` steps clockwise (increasing id, wrapping at the end) and
    ``XNEG`` counter-clockwise.  Ring routers have only three ports, so
    the vector kernel's flat layout shrinks to ``P == 3``.
    """

    name = "ring"
    ports = RING_DIRECTIONS

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 3:
            raise ValueError("ring needs at least 3 nodes")
        self.width = num_nodes
        self.height = 1

    def neighbor(self, node: int, direction: Direction) -> Optional[int]:
        """Neighbor of ``node`` in ``direction``; the cycle always wraps."""
        self._check_node(node)
        if direction == Direction.LOCAL:
            return node
        if direction == Direction.XPOS:
            return (node + 1) % self.num_nodes
        if direction == Direction.XNEG:
            return (node - 1) % self.num_nodes
        return None

    def hop_distance(self, a: int, b: int) -> int:
        """Minimal hop distance, the shorter way around the cycle."""
        self._check_node(a)
        self._check_node(b)
        d = abs(a - b)
        return min(d, self.num_nodes - d)

    @property
    def diameter(self) -> int:
        """Half-way around the cycle."""
        return self.num_nodes // 2


#: Topology registry keyed by canonical name.
TOPOLOGIES = {
    "mesh": Mesh2D,
    "torus": Torus2D,
    "ring": Ring,
}


def make_topology(name: str, width: int, height: Optional[int] = None) -> Topology:
    """Build a topology from its canonical name and grid dimensions.

    A ``ring`` interprets ``width * height`` as its node count so that
    configs stay comparable across topologies at equal node counts
    (an 8x8 config yields a 64-node ring).
    """
    if height is None:
        height = width
    if name not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {name!r}; expected one of {sorted(TOPOLOGIES)}"
        )
    if name == "ring":
        return Ring(width * height)
    return TOPOLOGIES[name](width, height)


_DELTAS = {
    Direction.XPOS: (1, 0),
    Direction.XNEG: (-1, 0),
    Direction.YPOS: (0, 1),
    Direction.YNEG: (0, -1),
}
