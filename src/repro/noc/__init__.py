"""NoC simulator substrate: pluggable topologies, VC wormhole routers.

The default fabric is the paper's 2D mesh with XY routing; torus and
ring fabrics (with dateline VC-class routing) are available as baseline
comparison points via ``NoCConfig(topology=...)``.
"""

from .config import VALID_TOPOLOGIES, NoCConfig
from .errors import (
    BoundViolationError,
    BufferOverflowError,
    ConfigError,
    DeadlockError,
    DegradedNetworkError,
    DrainTimeoutError,
    FaultSpecError,
    InvariantViolation,
    NetworkClosedError,
    SimulationError,
    TopologyError,
    UnsupportedTopologyError,
)
from .faults import (
    FAULT_KINDS,
    SAMPLABLE_FAULT_KINDS,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    sample_fault_schedule,
)
from .invariants import InvariantChecker, PostMortem
from .network import Network
from .network_interface import NetworkInterface
from .packet import (
    CONTROL_PACKET_FLITS,
    DATA_PACKET_FLITS,
    NUM_VNETS,
    Flit,
    Packet,
    VirtualNetwork,
    control_packet,
    data_packet,
)
from .policy import AlwaysOnPolicy, PowerPolicy
from .router import Router
from .routing import (
    FaultTolerantRouting,
    RingRouting,
    RoutingAlgorithm,
    TorusRouting,
    XYRouting,
    default_routing,
)
from .stats import Activity, DroppedPacket, NetworkStats
from .topology import (
    ALL_DIRECTIONS,
    MESH_DIRECTIONS,
    Coordinate,
    Direction,
    Mesh2D,
    MeshTopology,
    Ring,
    Topology,
    Torus2D,
    make_topology,
)

__all__ = [
    "ALL_DIRECTIONS",
    "Activity",
    "AlwaysOnPolicy",
    "BoundViolationError",
    "BufferOverflowError",
    "CONTROL_PACKET_FLITS",
    "ConfigError",
    "Coordinate",
    "DATA_PACKET_FLITS",
    "DeadlockError",
    "DegradedNetworkError",
    "Direction",
    "DrainTimeoutError",
    "DroppedPacket",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "FaultSpecError",
    "FaultTolerantRouting",
    "Flit",
    "InvariantChecker",
    "InvariantViolation",
    "MESH_DIRECTIONS",
    "Mesh2D",
    "MeshTopology",
    "Network",
    "NetworkClosedError",
    "NetworkInterface",
    "NetworkStats",
    "NoCConfig",
    "NUM_VNETS",
    "Packet",
    "PostMortem",
    "PowerPolicy",
    "Ring",
    "RingRouting",
    "Router",
    "RoutingAlgorithm",
    "SAMPLABLE_FAULT_KINDS",
    "SimulationError",
    "Topology",
    "TopologyError",
    "TorusRouting",
    "Torus2D",
    "UnsupportedTopologyError",
    "VALID_TOPOLOGIES",
    "VirtualNetwork",
    "XYRouting",
    "control_packet",
    "data_packet",
    "default_routing",
    "make_topology",
    "sample_fault_schedule",
]
