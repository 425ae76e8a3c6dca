"""NoRD-like baseline: node-router decoupling with a bypass ring.

The paper's Sec. 6.6(3) compares Power Punch against NoRD [Chen &
Pinkston, MICRO 2012], the strongest fast-reconfiguration baseline:
instead of waking gated-off routers, NoRD lets packets *detour* around
them on a narrow bypass ring that connects every NI, and routers wake
only on their own node's communication demand — transit packets never
wake anybody.  Its performance cost is detour latency (the paper quotes
~9.3 cycles/packet vs Power Punch's ~1.8 on 64 nodes).

This module implements a faithful-in-kind simplification (documented in
DESIGN.md):

* a unidirectional Hamiltonian **bypass ring** in boustrophedon (snake)
  order over the mesh, one flit wide, ``ring_hop_latency`` cycles per
  hop, with per-link serialization and contention;
* **decoupled wakeup**: a router wakes only when its own NI's backlog
  exceeds ``wake_threshold`` packets; transit traffic never triggers
  wakeups;
* **injection-time path check**: a ready packet whose full XY path is
  powered on injects into the mesh normally (path routers are held
  awake long enough to cross); otherwise the NI places it on the ring;
* **ring re-entry**: at every ring stop the packet re-checks the mesh;
  as soon as the remaining XY path is fully awake it hops off and
  continues through the mesh (re-paying the NI latency, as NoRD pays
  its bypass-to-router transfer);
* a **fallback wakeup** if a mesh packet is ever caught by a router
  that gated off behind the path check, guaranteeing progress.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.schemes import PowerGatedScheme
from ..noc.network import Network
from ..noc.packet import Packet
from ..noc.topology import MeshTopology


def snake_order(topology: MeshTopology) -> List[int]:
    """Hamiltonian ring order: row 0 left-to-right, row 1 back, ..."""
    order = []
    for y in range(topology.height):
        row = range(topology.width) if y % 2 == 0 else reversed(range(topology.width))
        order.extend(topology.node_at(x, y) for x in row)
    return order


class BypassRing:
    """Cycle-stepped one-flit-wide unidirectional ring over all NIs."""

    def __init__(self, order: List[int], hop_latency: int = 2) -> None:
        self.order = order
        self.position = {node: i for i, node in enumerate(order)}
        self.hop_latency = hop_latency
        n = len(order)
        #: Per ring link (from position i): cycle until which it is busy.
        self._link_busy_until = [0] * n
        #: Packets waiting at each ring position.
        self._queues: List[Deque[Packet]] = [deque() for _ in range(n)]
        #: Packets in flight on a link: (arrival_cycle, next_pos, packet).
        self._in_flight: List[Tuple[int, int, Packet]] = []
        #: Ring hops ridden per live packet id.
        self.hops_ridden: Dict[int, int] = {}

    def board(self, node: int, packet: Packet) -> None:
        """Put a packet on the ring at ``node``."""
        self._queues[self.position[node]].append(packet)
        self.hops_ridden.setdefault(packet.packet_id, 0)

    def step(self, cycle: int, try_exit) -> None:
        """Advance the ring one cycle.

        ``try_exit(node, packet, cycle)`` is consulted for every packet
        at a ring stop; returning True removes it from the ring (it was
        delivered or re-entered the mesh).
        """
        # Land packets that finished their link traversal.
        if self._in_flight:
            still = []
            for arrival, pos, packet in self._in_flight:
                if arrival <= cycle:
                    self._queues[pos].append(packet)
                else:
                    still.append((arrival, pos, packet))
            self._in_flight = still
        n = len(self.order)
        for pos in range(n):
            queue = self._queues[pos]
            if not queue:
                continue
            node = self.order[pos]
            # Offer every queued packet a chance to leave the ring.
            kept: Deque[Packet] = deque()
            while queue:
                packet = queue.popleft()
                if try_exit(node, packet, cycle):
                    self.hops_ridden.pop(packet.packet_id, None)
                else:
                    kept.append(packet)
            self._queues[pos] = queue = kept
            if not queue:
                continue
            # One flit per cycle per link: a packet of F flits occupies
            # the outgoing link for F cycles plus the hop latency.
            if self._link_busy_until[pos] > cycle:
                continue
            packet = queue.popleft()
            occupancy = packet.size_flits + self.hop_latency
            self._link_busy_until[pos] = cycle + packet.size_flits
            self._in_flight.append((cycle + occupancy, (pos + 1) % n, packet))
            self.hops_ridden[packet.packet_id] = (
                self.hops_ridden.get(packet.packet_id, 0) + 1
            )

    def in_transit(self) -> int:
        """Packets currently riding or queued on the ring."""
        return len(self._in_flight) + sum(len(q) for q in self._queues)


class NoRDLike(PowerGatedScheme):
    """Bypass-ring power-gating in the spirit of NoRD."""

    name = "NoRD-like"

    def __init__(
        self,
        wakeup_latency: int = 8,
        timeout: int = 4,
        ring_hop_latency: int = 2,
        wake_threshold: int = 1,
        max_ring_hops: int = 4,
    ) -> None:
        super().__init__(
            wakeup_latency=wakeup_latency,
            timeout=timeout,
            punch_hops=1,
            use_forewarning=False,
        )
        self.ring_hop_latency = ring_hop_latency
        #: NI backlog (packets) beyond which the local router is woken.
        self.wake_threshold = wake_threshold
        #: A packet that has ridden this many ring hops starts waking
        #: the mesh ahead of it (NoRD bounds its detours the same way:
        #: unbounded rides would defeat the point of the bypass).
        self.max_ring_hops = max_ring_hops
        self.ring: Optional[BypassRing] = None
        #: Mesh path holds: router -> hold-awake-until cycle.
        self._path_hold: Dict[int, int] = {}
        #: Ring boardings of packets created in the measurement window
        #: (from ``NetworkStats.measure_from`` on); the count restarts
        #: when the window opens.
        self.detoured_packets = 0
        self._counted_from = 0

    # ------------------------------------------------------------------
    def attach(self, network: Network) -> None:
        """Build the bypass ring and per-router controllers for this network."""
        super().attach(network)
        self.ring = BypassRing(
            snake_order(network.topology), hop_latency=self.ring_hop_latency
        )
        self._hop_latency = network.config.hop_latency

    # ------------------------------------------------------------------
    # Decoupled wakeup policy
    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        """Demand-only wakeups, path holds, divert decisions, ring step."""
        self.fabric.deliver(cycle)
        interfaces = self.network.interfaces
        routers = self.network.routers
        for node, controller in enumerate(self.controllers):
            ni = interfaces[node]
            backlog = ni.pending_packets()
            # NoRD: wake only on the node's own sustained demand.
            if backlog >= self.wake_threshold and controller.is_off:
                controller.request_wakeup(cycle, 0)
            held = self._path_hold.get(node, -1) >= cycle
            if held or ni.streams:
                controller.request_wakeup(cycle, 0)
            controller.step(
                cycle,
                routers[node].datapath_empty() and not held,
                bool(ni.streams),
            )
        self._divert_or_release(cycle)
        self.ring.step(cycle, self._try_exit)

    def end_cycle(self, cycle: int) -> None:
        # No punch signals: NoRD never wakes routers for transit.
        """No transit punches: NoRD never wakes routers for through-traffic."""
        return

    # ------------------------------------------------------------------
    # Injection-side decisions
    # ------------------------------------------------------------------
    #: How many upcoming XY hops must be awake to (re)enter the mesh.
    LOOKAHEAD_HOPS = 3

    def _path_is_awake(self, source: int, destination: int, cycle: int) -> bool:
        """Whether the next few hops (and the source) are powered on.

        NoRD exits its bypass as soon as the local mesh neighborhood is
        usable, rather than requiring the whole path — later gated-off
        routers are handled by riding the ring again from an
        intermediate NI (or, rarely, the emergency-wake fallback).
        """
        path = self.network.routing.path(source, destination)
        ahead = path[: self.LOOKAHEAD_HOPS + 1]
        return all(self.controllers[r].available_by(cycle + 1) for r in ahead)

    def _hold_path(self, source: int, destination: int, cycle: int) -> None:
        path = self.network.routing.path(source, destination)
        for i, router in enumerate(path[: self.LOOKAHEAD_HOPS + 1]):
            eta = cycle + (i + 2) * self._hop_latency + 24
            if eta > self._path_hold.get(router, -1):
                self._path_hold[router] = eta

    def _divert_or_release(self, cycle: int) -> None:
        """Move ready NI packets whose mesh path is asleep to the ring."""
        ni_latency = self.network.config.ni_latency
        measure_from = self.network.stats.measure_from
        if measure_from != self._counted_from:
            self._counted_from = measure_from
            self.detoured_packets = 0
        for ni in self.network.interfaces:
            for queue in ni.queues:
                while queue:
                    packet = queue[0]
                    if cycle < packet.created_at + ni_latency:
                        break
                    if self._path_is_awake(ni.node, packet.destination, cycle):
                        self._hold_path(ni.node, packet.destination, cycle)
                        break  # let the NI inject it normally
                    queue.popleft()
                    ni._checked.discard(packet.packet_id)
                    if packet.injected_at is None:
                        packet.injected_at = cycle
                    if packet.created_at >= measure_from:
                        self.detoured_packets += 1
                    self.ring.board(ni.node, packet)

    def _try_exit(self, node: int, packet: Packet, cycle: int) -> bool:
        """Leave the ring at ``node`` if possible."""
        if node == packet.destination:
            self.network.deliver_out_of_band(packet, cycle)
            return True
        if self._path_is_awake(node, packet.destination, cycle):
            # Re-enter the mesh: hand the packet to this node's NI (its
            # NI-pipeline timer elapsed long ago, so it is immediately
            # ready — NoRD's bypass-to-router transfer is about as fast).
            self._hold_path(node, packet.destination, cycle)
            packet.source = node  # continue XY routing from here
            self.network.interfaces[node].reinject(packet)
            return True
        # Detour bound: after max_ring_hops on the ring, start waking
        # the next few XY-path routers so a mesh exit opens up soon.
        if self.ring.hops_ridden.get(packet.packet_id, 0) >= self.max_ring_hops:
            path = self.network.routing.path(node, packet.destination)
            for router in path[: self.LOOKAHEAD_HOPS + 1]:
                self.controllers[router].request_wakeup(cycle, 0)
                eta = cycle + self.wakeup_latency + 4 * self._hop_latency
                if eta > self._path_hold.get(router, -1):
                    self._path_hold[router] = eta
        return False

    # ------------------------------------------------------------------
    # Fallback: a mesh packet caught by a gated-off router wakes it
    # (guarantees forward progress; rare thanks to path holds).
    # ------------------------------------------------------------------
    def note_blocked(self, router_id: int, next_router: int, packet, cycle: int) -> None:
        """Emergency fallback: wake a router that caught a mesh packet."""
        self.controllers[next_router].request_wakeup(cycle, 0)

    def on_injection_check(self, node: int, packet: Packet, cycle: int) -> None:
        # Injection never blocks on the local router: the ring is always
        # reachable (node-router decoupling).
        """Injection never blocks: the ring is reachable router-off (NRD)."""
        return

    def pending_work(self) -> int:
        """Ring occupancy, so drain loops wait for detoured packets."""
        return self.ring.in_transit() if self.ring is not None else 0
