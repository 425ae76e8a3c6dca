"""NoC configuration.

Default values follow the paper's Table 2 and Section 5: 8x8 mesh,
XY routing, wormhole switching with credit-based VC flow control,
3 virtual networks with 2 VCs each (3-flit data VCs on the response
network, 1-flit control VCs elsewhere), 128-bit links, 3-stage
(speculative) or 4-stage router pipelines, and a compact 3-cycle
network interface.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from .errors import ConfigError
from .faults import FaultSchedule
from .packet import NUM_VNETS, VirtualNetwork
from .topology import MeshTopology

#: Valid values of the enumerated config fields, validated at
#: construction time so a typo (``kernel="vecotr"``) fails loudly with
#: the option list instead of silently running some other kernel.
VALID_KERNELS = ("auto", "active", "naive", "vector")
VALID_DEGRADATIONS = ("none", "reroute")
VALID_TOPOLOGIES = ("mesh",)
#: Link traversal latency in cycles: every link is single-cycle.
LINK_LATENCY = 1


@dataclass
class NoCConfig:
    """Structural and timing parameters of the simulated NoC."""

    width: int = 8
    height: int = 8
    #: Router pipeline depth: 4 (BW/VA/SA/ST, Fig. 3a) or 3 (speculative
    #: SA merged with VA, Fig. 3b).
    router_stages: int = 3
    #: Virtual channels per virtual network.
    vcs_per_vnet: int = 2
    #: Buffer depth (flits) for data VCs (response network).
    data_vc_depth: int = 3
    #: Buffer depth (flits) for control VCs (request/forward networks).
    control_vc_depth: int = 1
    #: Network-interface processing latency in cycles ("all the NI
    #: operations are packed compactly in three cycles", Sec. 5).
    ni_latency: int = 3
    #: Per-cycle kernel.  ``"auto"`` (the default) selects the engine at
    #: run time from the size of the active set: the active-set object
    #: kernel while few routers hold flits, the structure-of-arrays
    #: engine of ``repro.noc.vector`` while many do (rule and measured
    #: crossover in ``docs/architecture.md``).  The other values pin one
    #: implementation, as references for equivalence tests and
    #: benchmarks: ``"active"`` visits only components with work
    #: (routers with occupied VCs, NIs with queued/streaming packets,
    #: armed PG-controller FSMs); ``"vector"`` engages the array engine
    #: at the first step and keeps it; ``"naive"`` scans every component
    #: every cycle (``repro.noc.reference``): the oracle for the others.
    #: All are cycle-exact, and configurations the array engine does not
    #: cover (faults, invariant checkers, non-whitelisted schemes) run
    #: on the active kernel whatever is asked.
    kernel: str = "auto"
    #: Graceful degradation under permanent router faults (see
    #: ``docs/fault_model.md``): ``"none"`` leaves a permanently
    #: stalled router to the deadlock watchdog; ``"reroute"`` switches
    #: to deadlock-free fault-tolerant routing
    #: (``repro.noc.routing.FaultTolerantRouting``) that detours live
    #: traffic around dead routers, refusing only genuinely
    #: unreachable destinations.
    degradation: str = "none"
    #: Cycles a ``router_stall`` fault window must stay continuously
    #: open before the router is declared permanently dead (only
    #: consulted under ``degradation="reroute"``).
    dead_router_threshold: int = 1000
    #: Fabric shape: always ``"mesh"``, the paper's evaluation platform
    #: (the only accepted value).
    topology: str = "mesh"
    #: Fault schedule injected into the network at construction, in
    #: the ``--faults`` spec grammar (see ``repro.noc.faults``);
    #: ``None`` runs fault-free.
    faults: Optional[str] = None
    #: Run the per-cycle invariant checker and deadlock watchdog in
    #: strict mode (the first violation raises).
    strict_invariants: bool = False
    #: Deadlock-watchdog bound in cycles for the strict checker
    #: (``None`` keeps ``repro.noc.invariants.DEFAULT_WATCHDOG``); set
    #: only with ``strict_invariants``, since nothing else reads it.
    watchdog: Optional[int] = None

    def __post_init__(self) -> None:
        if self.router_stages not in (3, 4):
            raise ValueError("router_stages must be 3 or 4")
        if self.kernel not in VALID_KERNELS:
            raise ConfigError("kernel", self.kernel, VALID_KERNELS)
        if self.degradation not in VALID_DEGRADATIONS:
            raise ConfigError("degradation", self.degradation, VALID_DEGRADATIONS)
        if self.topology not in VALID_TOPOLOGIES:
            raise ConfigError("topology", self.topology, VALID_TOPOLOGIES)
        if self.dead_router_threshold < 1:
            raise ValueError("dead_router_threshold must be positive")
        if self.vcs_per_vnet < 1:
            raise ValueError("need at least one VC per virtual network")
        if self.data_vc_depth < 1 or self.control_vc_depth < 1:
            raise ValueError("VC buffer depths must be at least one flit")
        if self.ni_latency < 0:
            raise ValueError("ni_latency must be non-negative")
        if self.watchdog is not None:
            if self.watchdog < 1:
                raise ValueError("watchdog must be positive")
            if not self.strict_invariants:
                raise ValueError("watchdog is read only with strict_invariants")
        if self.faults is not None:
            # Parsed again by Network; validating here makes a bad spec
            # fail at config time, before any cell runs.
            FaultSchedule.parse(self.faults)
        # Building the mesh validates its 2x2 minimum eagerly, so a bad
        # shape fails at config time, not deep in network setup.
        self.make_topology()

    # ------------------------------------------------------------------
    def make_topology(self) -> MeshTopology:
        """Instantiate the configured mesh."""
        return MeshTopology(self.width, self.height)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total node count (width x height)."""
        return self.width * self.height

    @property
    def num_vcs(self) -> int:
        """Total VCs per input port across all virtual networks."""
        return NUM_VNETS * self.vcs_per_vnet

    def vc_depth(self, vnet: VirtualNetwork) -> int:
        """Buffer depth of VCs belonging to ``vnet``."""
        if vnet == VirtualNetwork.RESPONSE:
            return self.data_vc_depth
        return self.control_vc_depth

    def vnet_of_vc(self, vc: int) -> VirtualNetwork:
        """Virtual network a flat VC index belongs to."""
        return VirtualNetwork(vc // self.vcs_per_vnet)

    def vcs_of_vnet(self, vnet: VirtualNetwork) -> range:
        """Flat VC indices belonging to ``vnet``."""
        start = int(vnet) * self.vcs_per_vnet
        return range(start, start + self.vcs_per_vnet)

    @property
    def hop_latency(self) -> int:
        """Per-hop latency of a packet: Trouter + Tlink (Sec. 3)."""
        return self.router_stages + LINK_LATENCY

    def depths_by_vc(self) -> Dict[int, int]:
        """Buffer depth for each flat VC index."""
        return {vc: self.vc_depth(self.vnet_of_vc(vc)) for vc in range(self.num_vcs)}

    # ------------------------------------------------------------------
    # Stable serialization (campaign cell specs / cache keys)
    # ------------------------------------------------------------------
    def to_items(self) -> Tuple[Tuple[str, object], ...]:
        """Sorted ``(field, value)`` pairs for every non-default field.

        This is the canonical wire form used by campaign cell specs: it
        is hashable, JSON-friendly, independent of field declaration
        order, and two configs compare equal iff their items do.
        """
        items = [
            (field.name, getattr(self, field.name))
            for field in fields(self)
            if getattr(self, field.name) != field.default
        ]
        return tuple(sorted(items))

    @classmethod
    def from_items(cls, items: Tuple[Tuple[str, object], ...]) -> "NoCConfig":
        """Rebuild a config from :meth:`to_items` output."""
        return cls(**dict(items))
