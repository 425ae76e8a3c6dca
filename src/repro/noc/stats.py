"""Network statistics.

Collects the per-packet measurements the paper's evaluation is built
from: average packet latency (Figs. 7, 12, 13), the number of distinct
powered-off routers encountered per packet (Fig. 9) and the cycles per
packet spent waiting for router wakeup (Fig. 10), plus activity counts
feeding the energy model (Fig. 11) — read as one :class:`Activity`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

from .errors import SimulationError
from .packet import Packet


@dataclass(frozen=True)
class Activity:
    """What a run did: the counters its energy is a linear function of.

    :meth:`Network.activity` fills one from the stats and the policy;
    ``later - earlier`` is the activity of the window between them (the
    network's shape — ``num_routers``, ``num_ports``, ``gated`` —
    carries over).  ``repro.power.account`` prices a record at a set
    of constants, and ``dataclasses.asdict`` / ``Activity(**doc)`` are
    its JSON form, so a stored record re-prices without a simulation.
    """

    cycles: int
    num_routers: int
    #: Ports per router (5: the mesh).  Nothing prices it; it stays
    #: because stored ``synthetic_metrics`` payloads carry it.
    num_ports: int
    router_traversals: int
    link_traversals: int
    #: Router-cycles powered on or waking (all of them when always on).
    on_cycles: int
    #: Router-cycles gated off.
    off_cycles: int
    wake_events: int
    punch_transmissions: int
    #: Whether the policy power-gates (and so pays the PG overhead).
    gated: bool

    def __sub__(self, since: "Activity") -> "Activity":
        return replace(
            self,
            cycles=self.cycles - since.cycles,
            router_traversals=self.router_traversals - since.router_traversals,
            link_traversals=self.link_traversals - since.link_traversals,
            on_cycles=self.on_cycles - since.on_cycles,
            off_cycles=self.off_cycles - since.off_cycles,
            wake_events=self.wake_events - since.wake_events,
            punch_transmissions=self.punch_transmissions - since.punch_transmissions,
        )


@dataclass
class NetworkStats:
    """Aggregate counters for one simulation run."""

    #: First cycle of the measurement window (packets created earlier
    #: are warmup traffic and excluded from latency averages).
    measure_from: int = 0
    delivered: int = 0
    total_network_latency: int = 0
    total_latency: int = 0
    total_hops: int = 0
    total_blocked_routers: int = 0
    total_wakeup_wait_cycles: int = 0
    delivered_flits: int = 0
    injected_flits: int = 0
    injected_packets: int = 0
    #: Activity counts for dynamic energy: every switch traversal and
    #: every link traversal in the whole run (warmup included — energy
    #: is a whole-run quantity).
    router_traversals: int = 0
    link_traversals: int = 0
    cycles: int = 0
    #: Packets/flits purged by graceful degradation.  Unlike latency
    #: averages these are counted unconditionally (drops are
    #: exceptional events, warmup or not).  ``dropped_packets`` mixes
    #: two populations: packets purged *in flight* (which were counted
    #: by :meth:`record_injection`) and packets *refused at injection*
    #: (which never were).  The refused subset is broken out below, so
    #: in-flight losses are ``dropped - refused`` and
    #: ``injected - (dropped - refused)`` compares against deliveries.
    dropped_packets: int = 0
    dropped_flits: int = 0
    #: Subset of the drop counters: packets refused at the NI door
    #: because a dead router cut their destination off (never injected).
    refused_packets: int = 0
    refused_flits: int = 0
    #: Fault-tolerance counters.  ``wakeup_retries`` counts wakeup
    #: requests re-issued by the PG controllers' retry/backoff protocol
    #: after a ``wakeup_fail`` fault swallowed the original.
    #: ``rerouted_packets``/``detour_hops`` count packets delivered
    #: over a non-minimal path (and their extra hops) under
    #: ``degradation="reroute"``.  Like the drop counters these are
    #: exceptional events and counted unconditionally (warmup or not);
    #: under plain XY every path is minimal, so all three stay 0 for
    #: every non-reroute, non-faulted configuration.
    wakeup_retries: int = 0
    rerouted_packets: int = 0
    detour_hops: int = 0

    def record_delivery(self, packet: Packet, hops: int) -> None:
        """Account a delivered packet (ignored if created during warmup)."""
        if packet.created_at < self.measure_from:
            return
        if packet.network_latency is None:
            raise SimulationError(
                "delivery recorded for a packet without a complete "
                f"injection/delivery timestamp pair (injected_at="
                f"{packet.injected_at}, delivered_at={packet.delivered_at}, "
                f"{packet.source}->{packet.destination})",
                packet=packet.packet_id,
            )
        self.delivered += 1
        self.delivered_flits += packet.size_flits
        self.total_network_latency += packet.network_latency
        self.total_latency += packet.total_latency
        self.total_hops += hops
        self.total_blocked_routers += len(packet.blocked_routers)
        self.total_wakeup_wait_cycles += packet.wakeup_wait_cycles

    def record_injection(self, packet: Packet) -> None:
        """Account a newly created packet (ignored during warmup)."""
        if packet.created_at < self.measure_from:
            return
        self.injected_packets += 1
        self.injected_flits += packet.size_flits

    def record_refusal(self, packet: Packet) -> None:
        """Account a packet refused at injection (never entered the
        mesh).  Refusals count into the drop totals *and* into the
        ``refused_*`` subset, so consumers can separate never-injected
        losses from in-flight purges."""
        self.refused_packets += 1
        self.refused_flits += packet.size_flits
        self.record_drop(packet)

    def record_drop(self, packet: Packet) -> None:
        """Account a packet purged by graceful degradation."""
        self.dropped_packets += 1
        self.dropped_flits += packet.size_flits

    def as_dict(self) -> Dict[str, int]:
        """Every integer counter, in field order, for cycle-exact golden
        comparisons."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ------------------------------------------------------------------
    @property
    def avg_packet_latency(self) -> float:
        """Average network latency in cycles (injection to delivery)."""
        return self.total_network_latency / self.delivered if self.delivered else 0.0

    @property
    def avg_total_latency(self) -> float:
        """Average latency including NI queueing (creation to delivery)."""
        return self.total_latency / self.delivered if self.delivered else 0.0

    @property
    def avg_hops(self) -> float:
        """Average minimal hop count of delivered packets."""
        return self.total_hops / self.delivered if self.delivered else 0.0

    @property
    def avg_blocked_routers(self) -> float:
        """Fig. 9 metric: powered-off routers encountered per packet."""
        return self.total_blocked_routers / self.delivered if self.delivered else 0.0

    @property
    def avg_wakeup_wait(self) -> float:
        """Fig. 10 metric: cycles per packet waiting for router wakeup."""
        return self.total_wakeup_wait_cycles / self.delivered if self.delivered else 0.0

    def throughput(self, num_nodes: int) -> float:
        """Accepted traffic in flits/node/cycle over the measured window."""
        window = self.cycles - self.measure_from
        if window <= 0:
            return 0.0
        return self.delivered_flits / (window * num_nodes)
