"""Wormhole router with virtual channels and credit flow control.

Timing model (paper Sec. 3, Fig. 3): a flit written into an input
buffer at cycle ``t`` performs BW during ``t``.  For the 4-stage
pipeline it performs VA at ``t+1``, SA at ``t+2`` and ST at ``t+3``;
the 3-stage pipeline speculatively performs VA and SA together at
``t+1`` and ST at ``t+2``.  With a one-cycle link this yields exactly
``Trouter + Tlink`` cycles per hop.  VA and SA are separable allocators
with round-robin priority.

A router never forwards a flit toward a neighbor whose PG signal is
asserted (gated off or waking); the stall is reported to the power
policy so schemes can assert wakeup signals and so the Fig. 9/10
blocking statistics can be collected.

For simulation speed the router keeps the set of currently occupied
VCs (``_occupied``) so per-cycle work scales with activity, not with
the 30 VCs per router.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .buffers import BufferOverflowError, InputPort, OutputPort, VCState, VirtualChannel
from .config import NoCConfig
from .errors import SimulationError, TopologyError
from .packet import Flit
from .routing import XYRouting
from .topology import Direction

#: Callback signature used to hand a departing flit to the network
#: kernel: (flit, in_direction, in_vc, out_direction, out_vc).
DepartureSink = Callable[[Flit, Direction, int, Direction, int], None]


class Router:
    """One router; its port set comes from the routing's topology."""

    def __init__(
        self,
        router_id: int,
        config: NoCConfig,
        routing: XYRouting,
    ) -> None:
        self.router_id = router_id
        self.config = config
        self.routing = routing
        ports = routing.topology.ports
        depths = config.depths_by_vc()
        self.input_ports: Dict[Direction, InputPort] = {
            d: InputPort(d, depths) for d in ports
        }
        self.output_ports: Dict[Direction, OutputPort] = {
            d: OutputPort(d, depths) for d in ports
        }
        #: Adjacent router id per direction (None at mesh edges);
        #: LOCAL maps to this router itself.  Filled in by the network.
        self.connected: Dict[Direction, Optional[int]] = {
            d: None for d in ports
        }
        self.connected[Direction.LOCAL] = router_id
        #: Flits currently flying toward this router (sent but not yet
        #: buffered); used for the sleep-safety check.
        self.incoming_in_flight = 0
        #: Input VCs holding a live packet allocation (state != IDLE).
        #: A wormhole stream can drain its buffer mid-packet (every
        #: arrived flit already forwarded, the rest stalled upstream);
        #: such a VC is in neither ``_occupied`` nor the in-flight
        #: count, but its allocation state is datapath state the
        #: power-gating controller must not cut power to — see
        #: :meth:`datapath_empty`.
        self._live_vcs = 0
        #: Non-empty input VCs (the per-cycle working set).  A dict is
        #: used as an insertion-ordered set so iteration order — and
        #: therefore arbitration and the whole simulation — is
        #: deterministic.
        self._occupied: Dict[VirtualChannel, None] = {}

    # ------------------------------------------------------------------
    # Datapath state queries
    # ------------------------------------------------------------------
    def datapath_empty(self) -> bool:
        """True when all input buffers are empty and nothing is in flight.

        This is the power-gating controller's sleep precondition
        (Sec. 2.2: input buffers, output registers and crossbar empty;
        the in-flight check subsumes the paper's mandatory two-cycle
        timeout that lets flits already on links land safely).

        A VC whose buffer drained mid-packet still holds live datapath
        state (route, output VC ownership, downstream credit debt), so
        the router must not power off until the tail has passed: gating
        mid-allocation would deadlock the stranded remainder of the
        stream, whose body/tail flits assert no punch or wakeup wires
        of their own (only head flits do).
        """
        return (
            not self._occupied
            and not self.incoming_in_flight
            and not self._live_vcs
        )

    def buffered_flits(self) -> int:
        """Total flits buffered across all input VCs."""
        return sum(vc.occupancy for vc in self._occupied)

    # ------------------------------------------------------------------
    # Flit reception
    # ------------------------------------------------------------------
    def receive_flit(
        self, direction: Direction, vc_index: int, flit: Flit, cycle: int
    ) -> None:
        """Buffer an arriving flit (its BW stage is this cycle)."""
        vc = self.input_ports[direction].vcs[vc_index]
        flits = vc.flits
        was_empty = not flits
        # ``vc.push`` inlined — this runs once per flit per hop.
        if len(flits) >= vc.depth:
            raise BufferOverflowError(
                f"VC overflow: {len(flits)}/{vc.depth} flits buffered, "
                "credit flow control violated",
                cycle=cycle, port=vc.port_direction, vc=vc.vc_index,
                packet=flit.packet.packet_id,
            )
        flits.append(flit)
        vc.arrivals.append(cycle)
        self._occupied[vc] = None
        if was_empty and flit.is_head:
            self._activate_front(vc, cycle)

    def _activate_front(self, vc: VirtualChannel, cycle: int) -> None:
        """Start VA for the head flit now at the front of ``vc``."""
        head = vc.front
        if head is None or not head.is_head:
            raise SimulationError(
                "VC activation without a head flit at the buffer front "
                f"(found {head!r})",
                cycle=cycle, router=self.router_id,
                port=vc.port_direction, vc=vc.vc_index,
            )
        if vc.state is VCState.IDLE:
            self._live_vcs += 1
        vc.state = VCState.WAIT_VA
        vc.route = self.routing.output_direction(
            self.router_id, head.packet.destination
        )
        vc.out_vc = None
        vc.owner_packet = head.packet.packet_id
        vc.va_eligible_at = max(cycle + 1, vc.front_arrival() + 1)

    # ------------------------------------------------------------------
    # Virtual-channel allocation
    # ------------------------------------------------------------------
    def do_vc_allocation(self, cycle: int) -> None:
        """Grant free downstream VCs to head flits in WAIT_VA state."""
        for vc in self._occupied:
            if vc.state is not VCState.WAIT_VA or cycle < vc.va_eligible_at:
                continue
            out_port = self.output_ports[vc.route]
            vnet = self.config.vnet_of_vc(vc.vc_index)
            candidate = out_port.free_vc_in(self.config.vcs_of_vnet(vnet))
            if candidate is None:
                continue
            out_port.owner[candidate] = (vc.port_direction, vc.vc_index)
            out_port.vc_rr_pointer = (candidate + 1) % len(out_port.credits)
            vc.out_vc = candidate
            vc.state = VCState.ACTIVE
            # 4-stage routers separate VA and SA; the 3-stage router
            # speculates SA in the same cycle as VA (Fig. 3b).
            vc.sa_eligible_at = cycle + (1 if self.config.router_stages == 4 else 0)

    # ------------------------------------------------------------------
    # Switch allocation + switch/link traversal
    # ------------------------------------------------------------------
    def do_switch_allocation(
        self,
        cycle: int,
        available_by: Callable[[int, int], bool],
        arrival_cycle: int,
        depart: DepartureSink,
        note_blocked: Callable[[int, Flit], None],
    ) -> int:
        """One separable switch-allocation round.

        ``available_by(router_id, arrival_cycle)`` reflects neighbors'
        PG signals at the cycle a granted flit would land; ``depart``
        receives every granted flit; ``note_blocked`` is called once
        per (stalled VC, cycle) with the blocking neighbor.  Returns
        the number of flits granted.
        """
        if not self._occupied:
            return 0
        # Stage 1: each input port nominates one SA-ready VC.  A VC
        # stalled on a neighbor's PG signal is reported every cycle it
        # stalls (the Fig. 9/10 accounting contract).
        stage_gate = self.config.router_stages - 2
        active = VCState.ACTIVE
        local = Direction.LOCAL
        connected = self.connected
        output_ports = self.output_ports
        ready_vcs: List[VirtualChannel] = []
        for vc in self._occupied:
            if vc.state is not active:
                continue
            gate = vc.arrivals[0] + stage_gate
            if vc.sa_eligible_at > gate:
                gate = vc.sa_eligible_at
            if cycle < gate:
                continue
            route = vc.route
            if route == local:
                ready_vcs.append(vc)
                continue
            neighbor = connected[route]
            if neighbor is None:
                raise TopologyError(
                    "route points off the mesh edge",
                    cycle=cycle, router=self.router_id,
                    port=route, vc=vc.vc_index,
                )
            if not available_by(neighbor, arrival_cycle):
                note_blocked(neighbor, vc.front)
                continue
            if output_ports[route].credits[vc.out_vc] > 0:
                ready_vcs.append(vc)
        if not ready_vcs:
            return 0
        if len(ready_vcs) == 1:
            # Single contender: both round-robin stages degenerate to
            # "advance the pointer and grant" — same pointer movement as
            # the general path below with one-element candidate lists.
            winner = ready_vcs[0]
            in_dir = winner.port_direction
            self.input_ports[in_dir].sa_rr_pointer += 1
            out_dir = winner.route
            output_ports[out_dir].sa_rr_pointer += 1
            flit, out_vc = self._commit_departure(winner, out_dir, cycle)
            depart(flit, in_dir, winner.vc_index, out_dir, out_vc)
            return 1

        by_port: Dict[Direction, List[VirtualChannel]] = {}
        for vc in ready_vcs:
            by_port.setdefault(vc.port_direction, []).append(vc)
        nominations: Dict[Direction, List[VirtualChannel]] = {}
        for direction, ready in by_port.items():
            port = self.input_ports[direction]
            pick = ready[port.sa_rr_pointer % len(ready)]
            port.sa_rr_pointer += 1
            nominations.setdefault(pick.route, []).append(pick)

        # Stage 2: each output port grants one nomination.
        granted = 0
        for out_dir, contenders in nominations.items():
            out_port = output_ports[out_dir]
            winner = contenders[out_port.sa_rr_pointer % len(contenders)]
            out_port.sa_rr_pointer += 1
            in_dir, in_vc = winner.port_direction, winner.vc_index
            flit, out_vc = self._commit_departure(winner, out_dir, cycle)
            depart(flit, in_dir, in_vc, out_dir, out_vc)
            granted += 1
        return granted

    def _commit_departure(
        self, vc: VirtualChannel, out_dir: Direction, cycle: int
    ) -> Tuple[Flit, int]:
        """Pop the granted flit; update VC, credit and ownership state."""
        # ``vc.pop`` inlined — this runs once per granted flit.
        vc.arrivals.pop(0)
        flits = vc.flits
        flit = flits.pop(0)
        out_port = self.output_ports[out_dir]
        out_vc = vc.out_vc
        if out_dir != Direction.LOCAL:
            out_port.credits[out_vc] -= 1
        if flit.is_tail:
            out_port.owner[out_vc] = None
            self._live_vcs -= 1
            vc.reset_for_next_packet()
            # The head of the next packet may already be buffered.
            if flits:
                self._activate_front(vc, cycle)
        if not flits:
            self._occupied.pop(vc, None)
        return flit, out_vc

    # ------------------------------------------------------------------
    # Credits
    # ------------------------------------------------------------------
    def return_credit(self, direction: Direction, vc_index: int) -> None:
        """A downstream buffer slot on ``direction`` freed up."""
        self.output_ports[direction].credits[vc_index] += 1

    # ------------------------------------------------------------------
    # Punch-signal support
    # ------------------------------------------------------------------
    def head_flit_requirements(self) -> List[Tuple[int, int]]:
        """(next_router, destination) for every front head flit.

        Power Punch recomputes punch signals combinationally every
        cycle from the wakeup requirements of the packets currently
        buffered (Sec. 6.6(1)); this method exposes those requirements,
        and the object kernel's and the reference's punch phases ask
        it of every router holding a flit, every cycle.  ConvOpt-PG's
        one-hop-early wakeup reads the same information but only uses
        ``next_router``.
        """
        requirements = []
        connected = self.connected
        local = Direction.LOCAL
        for vc in self._occupied:
            front = vc.flits[0]  # an occupied VC is never empty
            route = vc.route
            if not front.is_head or route is None or route is local:
                continue
            neighbor = connected[route]
            if neighbor is not None:
                requirements.append((neighbor, front.packet.destination))
        return requirements
