"""Opt-in runtime invariant checking and deadlock watchdog.

The simulator normally trusts its own bookkeeping; this module makes
that trust checkable.  An :class:`InvariantChecker` attached to a
network verifies, every cycle:

* **flit conservation** — every flit sent into the mesh is either
  buffered in a VC, in flight on a link, queued for ejection, or was
  ejected (nothing is created or destroyed in transit);
* **credit conservation** — for every link and VC, upstream credits +
  downstream occupancy + in-flight flits + in-flight credits equals
  the buffer depth (a leaked or duplicated credit shows up here);
* **VC ownership exclusivity** — every ACTIVE input VC owns exactly
  the downstream VC the output port maps back to it, and no two input
  VCs claim the same downstream VC;
* **no gated-off traversal** — a flit never lands at a router whose
  power-gating signal says it cannot accept one (checked on every
  arrival);
* **corruption detection** — a flit marked corrupted by the fault
  injector is flagged the moment it lands.

A **deadlock/livelock watchdog** runs every cycle too: any packet
whose in-network age exceeds ``max_network_age`` (``NoCConfig.watchdog``,
or :data:`DEFAULT_WATCHDOG`) trips a
:class:`~repro.noc.errors.DeadlockError` carrying a structured
:class:`PostMortem` — the stuck packets with their routes, the state
of every router on those routes (PG state, VC occupancy), and the last
N events from the network's flight recorder (``Network.ring``), where
the checker logs packet creations, deliveries and drops.

Every violation raises the moment it is detected.  A packet starved
in its NI queue has no network age: the drain's
:class:`~repro.noc.errors.DrainTimeoutError` names it instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .buffers import VCState
from .errors import DeadlockError, InvariantViolation, SimulationError
from .topology import Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .packet import Flit, Packet


@dataclass
class PostMortem:
    """Structured dump of network state at a watchdog/drain failure."""

    cycle: int
    reason: str
    #: Per stuck packet: id, endpoints, ages, route and blocking history.
    stuck_packets: List[dict] = field(default_factory=list)
    #: Per relevant router: PG state and VC occupancy.
    routers: List[dict] = field(default_factory=list)
    #: Last-N events from the flight recorder, oldest first.
    recent_events: List[object] = field(default_factory=list)

    @staticmethod
    def _node(node_id, coord) -> str:
        """``R27(3,3)``-style label (plain ``R27`` without a coord)."""
        if coord is None:
            return f"R{node_id}"
        return f"R{node_id}({','.join(str(c) for c in coord)})"

    def render(self) -> str:
        """Multi-line human-readable post-mortem report."""
        lines = [f"=== post-mortem @ cycle {self.cycle}: {self.reason} ==="]
        lines.append(f"--- stuck packets ({len(self.stuck_packets)}) ---")
        for p in self.stuck_packets:
            src = self._node(p["source"], p.get("source_coord"))
            dst = self._node(p["destination"], p.get("destination_coord"))
            lines.append(
                f"  pkt#{p['packet_id']} {src}->{dst} "
                f"vnet={p['vnet']} age={p['age']} "
                f"(created@{p['created_at']}, injected@{p['injected_at']}) "
                f"wakeup_wait={p['wakeup_wait_cycles']}"
            )
            lines.append(f"    route: {' -> '.join(str(r) for r in p['route'])}")
            if p["blocked_routers"]:
                lines.append(f"    blocked by routers: {p['blocked_routers']}")
        lines.append(f"--- routers on stuck routes ({len(self.routers)}) ---")
        for r in self.routers:
            label = self._node(r["router_id"], r.get("coord"))
            lines.append(
                f"  {label}: pg={r['pg_state']} "
                f"incoming_in_flight={r['incoming_in_flight']}"
            )
            for occ in r["occupied_vcs"]:
                lines.append(
                    f"    {occ['port']} vc{occ['vc']}: {occ['state']} "
                    f"occ={occ['occupancy']} front=pkt#{occ['front_packet']} "
                    f"route={occ['route']}"
                )
        lines.append(f"--- last {len(self.recent_events)} events ---")
        for event in self.recent_events:
            lines.append(f"  {event}")
        return "\n".join(lines)


def _coord_pair(topology, node: int) -> tuple:
    """Node coordinate as a plain ``(x, y)`` tuple for post-mortems."""
    c = topology.coord(node)
    return (c.x, c.y)


#: The watchdog bound (cycles) of a strict config that sets none.
DEFAULT_WATCHDOG = 10_000


class InvariantChecker:
    """Per-cycle runtime verification for one :class:`Network`.

    Built by a network whose config sets ``strict_invariants`` (the
    robustness layer is config); :meth:`attach` subscribes the ``on_*``
    hooks to its events (which pins the object kernel: they are
    per-flit events).  The checker is
    opt-in precisely because the structural checks cost O(ports x VCs)
    per cycle.
    """

    def __init__(self, max_network_age: int) -> None:
        self.max_network_age = max_network_age
        self.network: Optional["Network"] = None
        #: Packets created but not yet delivered, by id.
        self.live: Dict[int, "Packet"] = {}
        # Flit accounting (conservation check).
        self.flits_sent = 0
        self.flits_ejected = 0
        #: Flits removed from the mesh by the graceful-degradation
        #: purge — a third, accounted way for a sent flit to leave.
        self.flits_dropped = 0
        self.checks_run = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        """Bind to ``network``; subscribe ``on_<event>`` to every event
        but ``granted`` and ``blocked``."""
        self.network = network
        for event in ("created", "refused", "sent", "arrived", "ejected", "delivered",
                      "purged", "dropped", "cycle_end"):
            network.subscribe(event, getattr(self, "on_" + event))

    # ------------------------------------------------------------------
    # Event hooks (see attach)
    # ------------------------------------------------------------------
    def on_created(self, packet: "Packet", cycle: int) -> None:
        """A packet entered the system (NI enqueue)."""
        self.live[packet.packet_id] = packet
        self.network.ring.record(
            cycle, "created", packet.source,
            f"->{packet.destination}", packet.packet_id,
        )

    def on_delivered(self, packet: "Packet", cycle: int) -> None:
        """A packet completed: it leaves the live set."""
        self.live.pop(packet.packet_id, None)
        self.network.ring.record(
            cycle, "delivered", packet.destination,
            f"lat={packet.network_latency}", packet.packet_id,
        )

    def on_sent(self, node: int, flit: "Flit", cycle: int) -> None:
        """An NI pushed a flit into the mesh."""
        self.flits_sent += 1

    def on_arrived(self, router_id: int, flit: "Flit", cycle: int) -> None:
        """A flit landed in a router input buffer: PG-safety checks."""
        network = self.network
        if not network.policy.is_router_available_by(router_id, cycle):
            raise InvariantViolation(
                "gated-traversal",
                f"flit of pkt#{flit.packet.packet_id} arrived at a "
                "router whose PG signal is asserted",
                cycle=cycle, router=router_id, packet=flit.packet.packet_id,
            )
        if getattr(flit, "corrupted", False):
            raise InvariantViolation(
                "flit-integrity",
                f"corrupted flit {flit.index} of pkt#{flit.packet.packet_id} "
                "arrived",
                cycle=cycle, router=router_id, packet=flit.packet.packet_id,
            )

    def on_ejected(self, node: int, flit: "Flit", cycle: int) -> None:
        """A flit left the mesh through an NI."""
        self.flits_ejected += 1

    def on_purged(self, flit: "Flit", cycle: int) -> None:
        """A sent flit was purged by the graceful-degradation policy."""
        self.flits_dropped += 1

    def on_dropped(self, packet: "Packet", cycle: int) -> None:
        """A packet was dropped whole (or refused at the door): it will
        never be delivered, so it leaves the live set (and the
        watchdog's jurisdiction)."""
        self.live.pop(packet.packet_id, None)
        self.network.ring.record(
            cycle, "dropped", packet.source,
            f"->{packet.destination}", packet.packet_id,
        )

    on_refused = on_dropped

    def on_cycle_end(self, cycle: int) -> None:
        """Structural checks + watchdog; called once per simulated cycle."""
        self.checks_run += 1
        self.check_flit_conservation(cycle)
        self.check_credit_conservation(cycle)
        self.check_vc_ownership(cycle)
        self.check_active_sets(cycle)
        self.check_watchdog(cycle)

    # ------------------------------------------------------------------
    # The invariants
    # ------------------------------------------------------------------
    def check_flit_conservation(self, cycle: int) -> None:
        """sent == buffered + flying + ejecting + ejected + dropped."""
        network = self.network
        buffered = sum(
            vc.occupancy for router in network.routers for vc in router._occupied
        )
        flying = sum(len(v) for v in network._flit_events.values())
        ejecting = sum(len(v) for v in network._eject_events.values())
        in_system = buffered + flying + ejecting
        expected = self.flits_sent - self.flits_ejected - self.flits_dropped
        if in_system != expected:
            raise InvariantViolation(
                "flit-conservation",
                f"{self.flits_sent} sent - {self.flits_ejected} ejected - "
                f"{self.flits_dropped} dropped = "
                f"{expected} expected in system, found {in_system} "
                f"(buffered={buffered} flying={flying} ejecting={ejecting})",
                cycle=cycle,
            )

    def check_credit_conservation(self, cycle: int) -> None:
        """Per (link, VC): credits + occupancy + in-flight == depth."""
        network = self.network
        flit_inflight: Counter = Counter()
        for events in network._flit_events.values():
            for router_id, direction, vc, _flit in events:
                flit_inflight[(router_id, direction, vc)] += 1
        credit_inflight: Counter = Counter()
        for events in network._credit_events.values():
            for router_id, direction, vc in events:
                credit_inflight[(router_id, direction, vc)] += 1

        depths = network.config.depths_by_vc()
        for router in network.routers:
            rid = router.router_id
            # Router-to-router links.
            for direction, downstream in router.connected.items():
                if direction is Direction.LOCAL or downstream is None:
                    continue
                down_port = network.routers[downstream].input_ports[direction.opposite]
                for vc, depth in depths.items():
                    total = (
                        router.output_ports[direction].credits[vc]
                        + down_port.vcs[vc].occupancy
                        + flit_inflight[(downstream, direction.opposite, vc)]
                        + credit_inflight[(rid, direction, vc)]
                    )
                    if total != depth:
                        raise InvariantViolation(
                            "credit-conservation",
                            f"link R{rid}->{direction.name}->R{downstream} "
                            f"accounts for {total} slots, depth is {depth}",
                            cycle=cycle, router=rid, port=direction, vc=vc,
                        )
            # NI-to-router local link.
            ni = network.interfaces[rid]
            local_port = router.input_ports[Direction.LOCAL]
            for vc, depth in depths.items():
                total = (
                    ni.credits[vc]
                    + local_port.vcs[vc].occupancy
                    + flit_inflight[(rid, Direction.LOCAL, vc)]
                    + credit_inflight[(-rid - 1, Direction.LOCAL, vc)]
                )
                if total != depth:
                    raise InvariantViolation(
                        "credit-conservation",
                        f"NI link at node {rid} accounts for {total} "
                        f"slots, depth is {depth}",
                        cycle=cycle, router=rid, port=Direction.LOCAL, vc=vc,
                    )

    def check_vc_ownership(self, cycle: int) -> None:
        """ACTIVE input VCs and output-port owners agree, exclusively."""
        network = self.network
        for router in network.routers:
            rid = router.router_id
            claims: Dict[tuple, tuple] = {}
            for in_dir, port in router.input_ports.items():
                for vc in port.vcs:
                    if vc.state is not VCState.ACTIVE:
                        continue
                    key = (vc.route, vc.out_vc)
                    holder = (in_dir, vc.vc_index)
                    if key in claims:
                        raise InvariantViolation(
                            "vc-ownership",
                            f"downstream vc{vc.out_vc} of output "
                            f"{vc.route.name} claimed by both "
                            f"{claims[key]} and {holder}",
                            cycle=cycle, router=rid, port=vc.route, vc=vc.out_vc,
                        )
                    claims[key] = holder
                    owner = router.output_ports[vc.route].owner[vc.out_vc]
                    if owner != holder:
                        raise InvariantViolation(
                            "vc-ownership",
                            f"input {in_dir.name}/vc{vc.vc_index} is ACTIVE "
                            f"on {vc.route.name}/vc{vc.out_vc} but the "
                            f"output port records owner {owner}",
                            cycle=cycle, router=rid, port=vc.route, vc=vc.out_vc,
                        )
            # Reverse direction: every recorded owner must map back to
            # an ACTIVE input VC holding exactly that downstream VC.
            for out_dir, out_port in router.output_ports.items():
                for out_vc, owner in enumerate(out_port.owner):
                    if owner is None:
                        continue
                    in_dir, in_vc = owner
                    ivc = router.input_ports[in_dir].vcs[in_vc]
                    if (
                        ivc.state is not VCState.ACTIVE
                        or ivc.route is not out_dir
                        or ivc.out_vc != out_vc
                    ):
                        raise InvariantViolation(
                            "vc-ownership",
                            f"output {out_dir.name}/vc{out_vc} records owner "
                            f"{in_dir.name}/vc{in_vc}, but that input VC is "
                            f"{ivc.state.name} on "
                            f"{ivc.route.name if ivc.route else None}/"
                            f"vc{ivc.out_vc}",
                            cycle=cycle, router=rid, port=out_dir, vc=out_vc,
                        )

    def check_active_sets(self, cycle: int) -> None:
        """Active-set coverage: the work-sets the kernel iterates must
        contain every component the naive full scan would visit.

        Supersets are harmless (a stale entry is a wasted visit); a
        *missing* entry means a component with work would be silently
        skipped, so only the subset direction is an invariant:

        * every router with occupied VCs is in ``active_routers``;
        * every NI with queued/streaming packets is in ``active_nis``;
        * every non-OFF PG controller is armed for stepping (checked
          only for policies exposing active-set scheme state).
        """
        network = self.network
        for router in network.routers:
            if router._occupied and router.router_id not in network.active_routers:
                raise InvariantViolation(
                    "active-set-coverage",
                    f"router {router.router_id} has "
                    f"{len(router._occupied)} occupied VC(s) but is "
                    "missing from active_routers",
                    cycle=cycle, router=router.router_id,
                )
        for ni in network.interfaces:
            if ni.has_work() and ni.node not in network.active_nis:
                raise InvariantViolation(
                    "active-set-coverage",
                    f"NI {ni.node} has queued/streaming work but is "
                    "missing from active_nis",
                    cycle=cycle, router=ni.node,
                )
        policy = network.policy
        armed = getattr(policy, "_armed", None)
        controllers = getattr(policy, "controllers", None)
        if armed is None or not controllers:
            return
        from ..powergate.controller import PGState

        for controller in controllers:
            if controller.state is not PGState.OFF and controller.router_id not in armed:
                raise InvariantViolation(
                    "active-set-coverage",
                    f"PG controller {controller.router_id} is "
                    f"{controller.state.name} but not armed for stepping",
                    cycle=cycle, router=controller.router_id,
                )

    def check_watchdog(self, cycle: int) -> None:
        """Flag packets whose in-network age exceeds the bound."""
        bound = self.max_network_age
        stuck: List["Packet"] = [
            packet
            for packet in self.live.values()
            if packet.injected_at is not None and cycle - packet.injected_at > bound
        ]
        if not stuck:
            return
        post_mortem = self.build_post_mortem(
            cycle,
            f"{len(stuck)} packet(s) exceeded the watchdog age bound "
            f"(network>{bound})",
            stuck,
        )
        error = DeadlockError(
            f"pkt#{stuck[0].packet_id} ({stuck[0].source}->"
            f"{stuck[0].destination}) stuck for "
            f"{cycle - stuck[0].injected_at} cycles",
            post_mortem=post_mortem,
            cycle=cycle,
            packet=stuck[0].packet_id,
        )
        self.network.attach_fault_context(error)
        raise error

    # ------------------------------------------------------------------
    # Post-mortem construction
    # ------------------------------------------------------------------
    def build_post_mortem(
        self, cycle: int, reason: str, packets: Optional[List["Packet"]] = None
    ) -> PostMortem:
        """Snapshot stuck packets, their route routers and recent events.

        With no explicit ``packets``, the oldest live packets are used
        (e.g. for drain-timeout diagnostics).
        """
        network = self.network
        if packets is None:
            packets = sorted(self.live.values(), key=lambda p: p.created_at)[:10]
        packets = packets[:10]
        stuck_dumps = []
        route_routers: Dict[int, None] = {}
        topology = network.topology
        for packet in packets:
            route = self._route_of(packet)
            for rid in route:
                route_routers[rid] = None
            base = packet.injected_at if packet.injected_at is not None else packet.created_at
            stuck_dumps.append(
                {
                    "packet_id": packet.packet_id,
                    "source": packet.source,
                    "source_coord": _coord_pair(topology, packet.source),
                    "destination": packet.destination,
                    "destination_coord": _coord_pair(topology, packet.destination),
                    "vnet": int(packet.vnet),
                    "created_at": packet.created_at,
                    "injected_at": packet.injected_at,
                    "age": cycle - base,
                    "route": route,
                    "blocked_routers": sorted(packet.blocked_routers),
                    "wakeup_wait_cycles": packet.wakeup_wait_cycles,
                }
            )
        router_dumps = [
            self._router_dump(network.routers[rid]) for rid in route_routers
        ]
        return PostMortem(
            cycle=cycle,
            reason=reason,
            stuck_packets=stuck_dumps,
            routers=router_dumps,
            recent_events=self.network.ring.snapshot(),
        )

    def _route_of(self, packet: "Packet") -> List[int]:
        """Current route of ``packet``, source to destination inclusive.

        Post-mortems run while the network may already be degraded:
        fault-tolerant routing can legitimately refuse an unreachable
        endpoint (``SimulationError``), and the walk is length-bounded
        so a diagnostic dump can never itself hang.
        """
        routing = self.network.routing
        route = [packet.source]
        current = packet.source
        limit = 2 * self.network.config.num_nodes
        try:
            while current != packet.destination and len(route) <= limit:
                current = routing.next_hop(current, packet.destination)
                route.append(current)
        except SimulationError:
            route.append(-1)  # truncated: endpoint became unreachable
        return route

    def _router_dump(self, router) -> dict:
        policy = self.network.policy
        rid = router.router_id
        if policy.router_is_off(rid):
            pg_state = "off"
        elif policy.router_is_waking(rid):
            pg_state = "waking"
        elif policy.is_router_available(rid):
            pg_state = "active"
        else:  # pragma: no cover - defensive (stalled by faults, etc.)
            pg_state = "unavailable"
        occupied = []
        for vc in router._occupied:
            front = vc.front
            occupied.append(
                {
                    "port": vc.port_direction.name,
                    "vc": vc.vc_index,
                    "state": vc.state.name,
                    "occupancy": vc.occupancy,
                    "front_packet": front.packet.packet_id if front else None,
                    "route": vc.route.name if vc.route is not None else None,
                }
            )
        return {
            "router_id": rid,
            "coord": _coord_pair(self.network.topology, rid),
            "pg_state": pg_state,
            "incoming_in_flight": router.incoming_in_flight,
            "occupied_vcs": occupied,
        }
