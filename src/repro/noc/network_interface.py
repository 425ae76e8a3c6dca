"""Network interface (NI).

The NI sits between a node (traffic generator or core/cache complex)
and its local router.  Following the paper's Sec. 4.2 timeline, a
message entering the NI spends ``ni_latency`` cycles being encapsulated
and arbitrated before the availability of the local router's input
port is checked and flits are passed into its input VC buffer; only
one flit from all virtual networks crosses the NI-to-router link per
cycle.

Power-gating hooks: when a ready packet finds the local router gated
off, the NI reports the injection check to the power policy (which
asserts the WU handshake, or has already punched ahead using NI slack)
and the packet accrues wakeup-wait cycles — this is the injection-side
blocking that Power Punch's second mechanism removes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .buffers import VCState
from .config import NoCConfig
from .packet import NUM_VNETS, Flit, Packet, VirtualNetwork, make_flits, meet_powered_off
from .policy import PowerPolicy
from .router import Router
from .topology import Direction


class _Stream(object):
    """An in-progress packet injection into a local input VC."""

    __slots__ = ("packet", "flits", "vc", "next_flit")

    def __init__(self, packet: Packet, vc: int) -> None:
        self.packet = packet
        self.flits = make_flits(packet)
        self.vc = vc
        self.next_flit = 0

    @property
    def done(self) -> bool:
        """Whether every flit of the packet has been sent."""
        return self.next_flit >= len(self.flits)


class NetworkInterface:
    """NI for one node."""

    def __init__(
        self,
        node: int,
        config: NoCConfig,
        router: Router,
        policy: PowerPolicy,
        send_flit: Callable[[int, int, Flit, int], None],
        subscribers: Dict[str, Tuple[Callable, ...]],
        on_work: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.node = node
        self.config = config
        self.router = router
        self.policy = policy
        #: Kernel callback: (node, local_vc, flit, cycle) -> schedules the
        #: flit into the local input port next cycle.
        self._send_flit = send_flit
        #: The network's subscription table (see ``Network.subscribe``):
        #: a tail ejection announces ``delivered`` through it, an
        #: injection stall behind the gated local router ``blocked``.
        self._subscribers = subscribers
        #: Kernel callback fired whenever this NI gains work (a packet
        #: was queued), so the active-set kernel re-schedules it.
        self._on_work = on_work
        #: Vector-kernel hook: when engaged, local-VC probes read the
        #: engine's structure-of-arrays mirror instead of the (stale)
        #: router objects.  ``None`` under the object kernels.
        self._vc_probe: Optional[Callable] = None
        self.queues: List[Deque[Packet]] = [deque() for _ in range(NUM_VNETS)]
        #: NI-side credits for the local input port VCs.
        self.credits: List[int] = [
            config.vc_depth(config.vnet_of_vc(vc)) for vc in range(config.num_vcs)
        ]
        #: VCs currently reserved by an injection stream.
        self.streams: Dict[int, _Stream] = {}
        self._vn_rr = 0
        #: Packets whose injection check already fired (id set).
        self._checked: set = set()
        # Statistics
        self.injected_packets = 0
        self.ejected_packets = 0

    # ------------------------------------------------------------------
    # Producer-side API
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, cycle: int) -> None:
        """A node hands a freshly generated message to the NI."""
        packet.created_at = cycle
        self.queues[int(packet.vnet)].append(packet)
        if self._on_work is not None:
            self._on_work(self.node)
        self.policy.on_message_created(self.node, packet, cycle)

    def reinject(self, packet: Packet) -> None:
        """Re-queue a packet that bypassed the mesh (e.g. a NoRD ring
        packet re-entering at its exit node) without restarting the NI
        pipeline delay: ``created_at`` is left untouched."""
        self.queues[int(packet.vnet)].append(packet)
        if self._on_work is not None:
            self._on_work(self.node)

    def early_notice(self, cycle: int) -> None:
        """Forward a slack-2 style early notice to the power policy."""
        self.policy.early_local_notice(self.node, cycle)

    def close(self) -> None:
        """Unwire from the kernel, the policy and the subscription
        table (see :meth:`Network.close`)."""
        self.router = self.policy = self._vc_probe = None
        self._send_flit = self._on_work = self._subscribers = None

    # ------------------------------------------------------------------
    # Sleep-gating signal toward the local PG controller
    # ------------------------------------------------------------------
    def wants_local_router(self, cycle: int) -> bool:
        """Whether the NI is actively using (or about to use) the router.

        True while a stream is in flight or a ready packet is waiting to
        inject: the PG controller must not put the local router to sleep
        then (it would immediately need waking).  Packets still inside
        the NI pipeline do *not* hold the router awake under
        conventional power-gating — that is exactly the slack Power
        Punch exploits.
        """
        if self.streams:
            return True
        for queue in self.queues:
            if queue and cycle >= queue[0].created_at + self.config.ni_latency:
                return True
        return False

    def pending_packets(self) -> int:
        """Packets queued or mid-injection at this NI."""
        return sum(len(q) for q in self.queues) + len(self.streams)

    def has_work(self) -> bool:
        """Whether stepping this NI this cycle could do anything.

        True while any stream is in flight or any vnet queue holds a
        packet, independent of how many virtual networks exist.
        """
        if self.streams:
            return True
        return any(self.queues)

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Start new streams, then send at most one flit to the router."""
        self._try_start_streams(cycle)
        self._send_one_flit(cycle)

    def _try_start_streams(self, cycle: int) -> None:
        for vn in range(NUM_VNETS):
            queue = self.queues[vn]
            if not queue:
                continue
            packet = queue[0]
            if cycle < packet.created_at + self.config.ni_latency:
                continue
            # The NI now checks the availability of the local router
            # (end of NI delay in the paper's Fig. 6 timeline).
            if packet.packet_id not in self._checked:
                self._checked.add(packet.packet_id)
                self.policy.on_injection_check(self.node, packet, cycle)
            # The injected flit lands in the local input port next cycle.
            if not self.policy.is_router_available_by(
                self.router.router_id, cycle + 1
            ):
                meet_powered_off(
                    self._subscribers, packet, self.node, self.router.router_id, True, cycle
                )
                continue
            vc = self._free_local_vc(VirtualNetwork(vn))
            if vc is None:
                continue
            queue.popleft()
            self._checked.discard(packet.packet_id)
            self.streams[vc] = _Stream(packet, vc)

    def _free_local_vc(self, vnet: VirtualNetwork) -> Optional[int]:
        """A local input VC that is idle, empty and not already reserved."""
        probe = self._vc_probe
        if probe is not None:
            return probe(self, vnet)
        port = self.router.input_ports[Direction.LOCAL]
        for vc in self.config.vcs_of_vnet(vnet):
            if vc in self.streams:
                continue
            state = port.vcs[vc]
            if state.is_empty and state.state is VCState.IDLE:
                return vc
        return None

    def _send_one_flit(self, cycle: int) -> None:
        if not self.streams:
            return
        vcs = sorted(self.streams)
        n = len(vcs)
        for i in range(n):
            vc = vcs[(self._vn_rr + i) % n]
            stream = self.streams[vc]
            if self.credits[vc] <= 0:
                continue
            flit = stream.flits[stream.next_flit]
            stream.next_flit += 1
            self.credits[vc] -= 1
            if flit.is_head:
                stream.packet.injected_at = cycle
                self.injected_packets += 1
            self._send_flit(self.node, vc, flit, cycle)
            if stream.done:
                del self.streams[vc]
            self._vn_rr += 1
            return

    # ------------------------------------------------------------------
    # Kernel-side callbacks
    # ------------------------------------------------------------------
    def credit_from_router(self, vc: int) -> None:
        """A local input-port buffer slot freed up."""
        self.credits[vc] += 1

    def eject_flit(self, flit: Flit, cycle: int) -> None:
        """Receive an ejected flit; a tail announces ``delivered``."""
        if flit.is_tail:
            packet = flit.packet
            packet.delivered_at = cycle
            self.ejected_packets += 1
            for fn in self._subscribers["delivered"]:
                fn(packet, cycle)
