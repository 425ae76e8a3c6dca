"""NoC simulator substrate: the paper's 2D mesh with XY routing and VC
wormhole routers."""

from .config import VALID_TOPOLOGIES, NoCConfig
from .errors import (
    BoundViolationError,
    BufferOverflowError,
    ConfigError,
    DeadlockError,
    DrainTimeoutError,
    FaultSpecError,
    InvariantViolation,
    NetworkClosedError,
    SimulationError,
    TopologyError,
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
from .policy import PowerPolicy
from .router import Router
from .routing import (
    FaultTolerantRouting,
    XYRouting,
    default_routing,
)
from .stats import Activity, NetworkStats
from .topology import (
    ALL_DIRECTIONS,
    MESH_DIRECTIONS,
    Coordinate,
    Direction,
    MeshTopology,
)

__all__ = [
    "ALL_DIRECTIONS",
    "Activity",
    "BoundViolationError",
    "BufferOverflowError",
    "CONTROL_PACKET_FLITS",
    "ConfigError",
    "Coordinate",
    "DATA_PACKET_FLITS",
    "DeadlockError",
    "Direction",
    "DrainTimeoutError",
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
    "Router",
    "SAMPLABLE_FAULT_KINDS",
    "SimulationError",
    "TopologyError",
    "VALID_TOPOLOGIES",
    "VirtualNetwork",
    "XYRouting",
    "control_packet",
    "data_packet",
    "default_routing",
    "sample_fault_schedule",
]
