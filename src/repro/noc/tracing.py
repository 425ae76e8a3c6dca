"""Per-packet event tracing.

:class:`PacketTracer` subscribes to a network's events (see
``Network.subscribe``) and records the lifecycle of selected packets:
creation (or refusal at the door), per-router switch grants of head
flits, powered-off routers met (in the mesh, at the NI, or at an
availability check), and the end: delivery, or a drop when graceful
degradation purges the packet.  Useful for debugging power-gating interactions and for the
``punch_anatomy`` style of guided tour.  Its ``granted`` subscription
is a per-flit event, so a traced network runs on the object kernel; an
untraced one pays nothing for the tracer.

:class:`EventRing` is the bounded flight-recorder variant: a fixed-size
ring of the last N events, cheap enough to leave on for entire runs so
the invariant checker's post-mortem dumps (see
:mod:`repro.noc.invariants`) can show what happened just before a
deadlock or invariant violation.  A network has at most one, as
``Network.ring``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Set

from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - network.py imports EventRing from here
    from .network import Network


@dataclass(frozen=True)
class TraceEvent:
    """One recorded packet-lifecycle event."""
    cycle: int
    packet_id: int
    kind: str
    where: int
    detail: str = ""

    def __str__(self) -> str:
        spot = f"R{self.where}" if self.where >= 0 else "-"
        who = f"pkt#{self.packet_id}" if self.packet_id >= 0 else "-"
        text = f"[{self.cycle:6d}] {who} {self.kind:10s} {spot}"
        return f"{text} {self.detail}".rstrip()


class EventRing:
    """Bounded ring buffer of recent simulation events.

    Unlike :class:`PacketTracer` this never grows: the newest
    ``capacity`` events displace the oldest.  Events are free-form
    ``(cycle, kind, where, detail)`` tuples rendered like
    :class:`TraceEvent` lines; the producers are the invariant checker
    (creations, deliveries, drops), the fault injector (every fired
    fault) and the degradation policy (router deaths).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("EventRing capacity must be positive")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.recorded = 0

    def record(
        self, cycle: int, kind: str, where: int, detail: str = "", packet_id: int = -1
    ) -> None:
        """Append one event, displacing the oldest when full."""
        self.recorded += 1
        self._events.append(TraceEvent(cycle, packet_id, kind, where, detail))

    def snapshot(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def render(self) -> str:
        """Human-readable rendering of the retained events."""
        dropped = self.recorded - len(self._events)
        lines = [str(e) for e in self._events]
        if dropped > 0:
            lines.insert(0, f"... {dropped} earlier events displaced ...")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._events)


class PacketTracer:
    """Records TraceEvents for packets matching a filter."""

    def __init__(
        self,
        network: Network,
        match: Optional[Callable[[Packet], bool]] = None,
        max_events: int = 100_000,
    ) -> None:
        self.network = network
        self.match = match or (lambda packet: True)
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        #: Distinct powered-off routers any traced packet met.
        self.blocked_routers_seen: Set[int] = set()
        for event, hook in (
            ("created", self._created), ("refused", self._refused), ("granted", self._granted),
            ("blocked", self._blocked), ("delivered", self._delivered),
            ("dropped", self._dropped),
        ):
            network.subscribe(event, hook)

    # ------------------------------------------------------------------
    def _record(self, cycle: int, packet: Packet, kind: str, where: int, detail=""):
        if len(self.events) >= self.max_events:
            return
        if not self.match(packet):
            return
        self.events.append(TraceEvent(cycle, packet.packet_id, kind, where, detail))

    def _created(self, packet: Packet, cycle: int) -> None:
        self._record(cycle, packet, "created", packet.source)

    def _refused(self, packet: Packet, cycle: int) -> None:
        self._record(cycle, packet, "refused", packet.source, f"->R{packet.destination}")

    def _granted(self, router, flit, in_dir, in_vc, out_dir, out_vc, cycle) -> None:
        if flit.is_head:
            detail = f"{in_dir.name}->{out_dir.name} vc{in_vc}->vc{out_vc}"
            self._record(cycle, flit.packet, "sw-grant", router, detail)

    def _blocked(self, packet: Packet, at: int, off: int, waited: bool, cycle: int) -> None:
        if self.match(packet):
            self.blocked_routers_seen.add(off)
        detail = f"{'next' if at != off else 'local'} R{off} off"
        self._record(cycle, packet, "blocked", at, detail if waited else detail + " at check")

    def _delivered(self, packet: Packet, cycle: int) -> None:
        lat = f"lat={packet.network_latency}"
        self._record(cycle, packet, "delivered", packet.destination, lat)

    def _dropped(self, packet: Packet, cycle: int) -> None:
        self._record(cycle, packet, "dropped", packet.source, f"->R{packet.destination}")

    # ------------------------------------------------------------------
    def for_packet(self, packet_id: int) -> List[TraceEvent]:
        """All recorded events for one packet id."""
        return [e for e in self.events if e.packet_id == packet_id]

    def render(self, packet_id: Optional[int] = None) -> str:
        """Human-readable multi-line rendering of recorded events."""
        events = self.events if packet_id is None else self.for_packet(packet_id)
        return "\n".join(str(e) for e in events)
