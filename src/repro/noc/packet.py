"""Messages, packets and flits.

The evaluated system (paper Sec. 5) runs a two-level MESI protocol over
three virtual networks to avoid message-dependent deadlock.  Control
messages (requests, acks) fit in a single flit; data messages carrying a
64-byte cache block occupy five flits on a 128-bit link (64B payload =
4 flits, plus the head flit carrying the header).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple


class VirtualNetwork(enum.IntEnum):
    """The three virtual networks of the two-level MESI protocol."""

    REQUEST = 0
    FORWARD = 1
    RESPONSE = 2


#: Number of virtual networks (paper: "three, the minimum number needed
#: for correctly running the MESI coherence protocol without deadlocks").
NUM_VNETS = 3

#: Data payload (cache block) size in flits on a 128-bit link.
DATA_PACKET_FLITS = 5
#: Control message size in flits.
CONTROL_PACKET_FLITS = 1

_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Reset the global packet id counter (for reproducible tests)."""
    global _packet_ids
    _packet_ids = itertools.count()


class Packet:
    """A packet travelling through the network.

    Besides routing fields, a packet carries the measurement state the
    paper's Figures 9 and 10 are built from: the set of distinct
    powered-off routers it encountered and the number of cycles spent
    waiting for router wakeups.
    """

    __slots__ = (
        "source",
        "destination",
        "vnet",
        "size_flits",
        "created_at",
        "payload",
        "packet_id",
        "injected_at",
        "delivered_at",
        "blocked_routers",
        "wakeup_wait_cycles",
        "hops_taken",
    )

    def __init__(
        self,
        source: int,
        destination: int,
        vnet: VirtualNetwork,
        size_flits: int,
        created_at: int,
        payload: Optional[object] = None,
        packet_id: Optional[int] = None,
        injected_at: Optional[int] = None,
        delivered_at: Optional[int] = None,
        hops_taken: int = 0,
    ) -> None:
        self.source = source
        self.destination = destination
        self.vnet = vnet
        self.size_flits = size_flits
        self.created_at = created_at
        #: Optional opaque payload used by the closed-loop system model to
        #: route coherence messages back to their protocol transaction.
        self.payload = payload
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        # --- timing/measurement state, filled in by the simulator ---------
        self.injected_at = injected_at
        self.delivered_at = delivered_at
        #: Distinct routers that were powered off (or still waking up) when
        #: this packet needed them (Fig. 9 metric).  Written, like
        #: ``wakeup_wait_cycles``, by :func:`meet_powered_off` only.
        self.blocked_routers: Set[int] = set()
        #: Total cycles this packet stalled waiting for router wakeup
        #: (Fig. 10 metric).
        self.wakeup_wait_cycles = 0
        #: Router-to-router links actually traversed (head-flit departures
        #: toward a neighbor).  Equals the minimal hop distance under XY;
        #: the surplus is the detour length under fault-tolerant rerouting.
        self.hops_taken = hops_taken

    @property
    def network_latency(self) -> Optional[int]:
        """Cycles from injection into the network until delivery."""
        if self.delivered_at is None or self.injected_at is None:
            return None
        return self.delivered_at - self.injected_at

    @property
    def total_latency(self) -> Optional[int]:
        """Cycles from message creation (incl. NI queueing) to delivery."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.packet_id} {self.source}->{self.destination} "
            f"vn={int(self.vnet)} {self.size_flits}f)"
        )


def meet_powered_off(
    subscribers: Dict[str, Tuple[Callable, ...]],
    packet: Packet,
    at: int,
    off: int,
    waited: bool,
    cycle: int,
) -> None:
    """``packet``, at router (or NI) ``at``, needs router ``off`` while
    it is powered off or still waking: the only writer of the packet's
    Fig. 9/10 fields, and the announcer of ``blocked`` on the network's
    subscription table.  ``waited`` is whether the packet stalls a
    cycle for it (false for an encounter counted at an availability
    check)."""
    packet.blocked_routers.add(off)
    packet.wakeup_wait_cycles += waited
    for fn in subscribers["blocked"]:
        fn(packet, at, off, waited, cycle)


class Flit:
    """One flow-control unit of a packet."""

    __slots__ = ("packet", "index", "corrupted")

    def __init__(self, packet: Packet, index: int, corrupted: bool = False) -> None:
        self.packet = packet
        self.index = index
        #: Set by the fault injector's bit-flip fault; the invariant checker
        #: flags corrupted flits the moment they land (payload contents are
        #: otherwise preserved so faulted runs stay deterministic).
        self.corrupted = corrupted

    @property
    def is_head(self) -> bool:
        """Whether this is the packet's head flit."""
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        """Whether this is the packet's tail flit."""
        return self.index == self.packet.size_flits - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({kind}{self.index}/pkt#{self.packet.packet_id})"


def make_flits(packet: Packet) -> List[Flit]:
    """Split a packet into its flits."""
    return [Flit(packet, i) for i in range(packet.size_flits)]


def control_packet(
    source: int, destination: int, vnet: VirtualNetwork, created_at: int, payload=None
) -> Packet:
    """Convenience constructor for a single-flit control packet."""
    return Packet(source, destination, vnet, CONTROL_PACKET_FLITS, created_at, payload)


def data_packet(
    source: int, destination: int, vnet: VirtualNetwork, created_at: int, payload=None
) -> Packet:
    """Convenience constructor for a five-flit data packet."""
    return Packet(source, destination, vnet, DATA_PACKET_FLITS, created_at, payload)
