"""Input-port virtual-channel state and credit bookkeeping.

Each router input port holds ``num_vcs`` virtual channels.  A VC moves
through the classic wormhole states: ``IDLE`` (no packet), ``ROUTING``
(head buffered, waiting to become VA-eligible), ``WAIT_VA`` (requesting
an output VC) and ``ACTIVE`` (output VC allocated; flits compete for the
switch).  Credit counters at the upstream side track free buffer slots
of the downstream VC.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from .errors import BufferOverflowError
from .packet import Flit
from .topology import Direction


class VCState(enum.Enum):
    """Wormhole VC lifecycle: IDLE -> WAIT_VA -> ACTIVE."""
    IDLE = "idle"
    WAIT_VA = "wait_va"
    ACTIVE = "active"


#: Dense integer codes for :class:`VCState`, shared with the vector
#: kernel's structure-of-arrays mirror (``repro.noc.vector`` keeps VC
#: state as an int8 array; materialization maps codes back to enums).
VC_STATE_CODES = {
    VCState.IDLE: 0,
    VCState.WAIT_VA: 1,
    VCState.ACTIVE: 2,
}
VC_STATE_FROM_CODE = {code: state for state, code in VC_STATE_CODES.items()}


class VirtualChannel:
    """State of one input virtual channel."""

    __slots__ = (
        "port_direction",
        "vc_index",
        "depth",
        "flits",
        "arrivals",
        "state",
        "route",
        "out_vc",
        "owner_packet",
        "va_eligible_at",
        "sa_eligible_at",
    )

    def __init__(self, vc_index: int, depth: int, port_direction=None) -> None:
        self.port_direction = port_direction
        self.vc_index = vc_index
        self.depth = depth
        #: Buffered flits, the front one departs first.  Plain lists: a
        #: VC holds at most ``depth`` (a handful of) flits, so ``pop(0)``
        #: costs what ``popleft`` does, while an empty deque keeps a
        #: 64-slot block — 2.9 MB of the 4.6 MB an idle 8x8 network
        #: weighed, over its 1920 mostly empty VCs.
        self.flits: List[Flit] = []
        #: Arrival cycle of each buffered flit (parallel to ``flits``).
        self.arrivals: List[int] = []
        self.state = VCState.IDLE
        #: Output direction of the current packet (known on head arrival
        #: thanks to look-ahead routing).
        self.route: Optional[Direction] = None
        #: Downstream VC allocated to the current packet.
        self.out_vc: Optional[int] = None
        #: ``packet_id`` holding this VC's allocation (set at head
        #: activation, cleared with the rest of the allocation state).
        #: The graceful-degradation purge needs it: a mid-packet VC can
        #: be ACTIVE with an *empty* buffer (every arrived flit already
        #: forwarded, tail still in flight), and only this field then
        #: ties the allocation to the packet being purged.
        self.owner_packet: Optional[int] = None
        self.va_eligible_at = 0
        self.sa_eligible_at = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of buffered flits."""
        return len(self.flits)

    @property
    def is_empty(self) -> bool:
        """Whether the buffer holds no flits."""
        return not self.flits

    @property
    def front(self) -> Optional[Flit]:
        """The flit at the head of the buffer, or None."""
        return self.flits[0] if self.flits else None

    def front_arrival(self) -> int:
        """Arrival cycle of the front flit."""
        return self.arrivals[0]

    def push(self, flit: Flit, cycle: int) -> None:
        """Buffer an arriving flit; raises on overflow."""
        if len(self.flits) >= self.depth:
            raise BufferOverflowError(
                f"VC overflow: {len(self.flits)}/{self.depth} flits buffered, "
                "credit flow control violated",
                cycle=cycle, port=self.port_direction, vc=self.vc_index,
                packet=flit.packet.packet_id,
            )
        self.flits.append(flit)
        self.arrivals.append(cycle)

    def pop(self) -> Flit:
        """Remove and return the front flit."""
        self.arrivals.pop(0)
        return self.flits.pop(0)

    def reset_for_next_packet(self) -> None:
        """Return the VC to IDLE after a tail flit departs."""
        self.state = VCState.IDLE
        self.route = None
        self.out_vc = None
        self.owner_packet = None


class InputPort:
    """One router input port: a VC array plus arbitration state."""

    __slots__ = ("direction", "vcs", "sa_rr_pointer")

    def __init__(self, direction: Direction, depths_by_vc: dict) -> None:
        self.direction = direction
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(vc, depth, direction)
            for vc, depth in sorted(depths_by_vc.items())
        ]
        #: Round-robin pointer for picking among this port's ready VCs.
        self.sa_rr_pointer = 0

    def is_empty(self) -> bool:
        """Whether the buffer holds no flits."""
        return all(vc.is_empty for vc in self.vcs)

    def occupied_vcs(self) -> List[VirtualChannel]:
        """VCs currently holding at least one flit."""
        return [vc for vc in self.vcs if not vc.is_empty]


class OutputPort:
    """Upstream-side state for one router output port.

    Tracks, per downstream VC: the credit count (free downstream buffer
    slots) and which local input VC currently owns it (wormhole VC
    ownership persists from head to tail).
    """

    __slots__ = ("direction", "credits", "owner", "vc_rr_pointer", "sa_rr_pointer")

    def __init__(self, direction: Direction, depths_by_vc: dict) -> None:
        self.direction = direction
        self.credits: List[int] = [depths_by_vc[vc] for vc in sorted(depths_by_vc)]
        #: (input_direction, input_vc) owning each downstream VC, or None.
        self.owner: List[Optional[Tuple[Direction, int]]] = [None] * len(self.credits)
        #: Round-robin pointers: VC allocation's probe start, and switch
        #: allocation's pick among the input ports nominating this output.
        self.vc_rr_pointer = 0
        self.sa_rr_pointer = 0

    def free_vc_in(self, vc_range: range) -> Optional[int]:
        """A free (unowned) downstream VC within ``vc_range``, if any."""
        n = len(vc_range)
        for i in range(n):
            vc = vc_range[(self.vc_rr_pointer + i) % n]
            if self.owner[vc] is None:
                return vc
        return None

    def all_vcs_idle(self) -> bool:
        """Whether no downstream VC is owned by a packet."""
        return all(o is None for o in self.owner)
