"""The four evaluated power-management schemes (paper Sec. 5).

* :class:`NoPG` — baseline, routers always on.
* :class:`ConvOptPG` — conventional power-gating optimized with the
  idle timeout and the one-hop-early wakeup from look-ahead routing
  (the strongest conventional baseline the paper compares against).
* :class:`PowerPunchSignal` — Power Punch's multi-hop punch signals
  only (no NI slack): wakeup control information stays ``punch_hops``
  hops ahead of packets, merged contention-free.
* :class:`PowerPunchPG` — the comprehensive scheme: multi-hop punch
  signals plus both injection-node slacks of Sec. 4.2 (*slack 1*: punch
  at the start of the NI delay; *slack 2*: wake the local router when a
  resource access that will surely generate a packet begins).

All power-gated schemes share the same controller substrate
(:class:`repro.powergate.PowerGateController`) and differ only in when
wakeup information is generated and how far ahead it travels — exactly
the paper's framing.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from ..noc.config import NoCConfig
from ..noc.network import Network
from ..noc.network_interface import NetworkInterface
from ..noc.packet import Packet, meet_powered_off
from ..noc.policy import PowerPolicy
from ..powergate.controller import PGState, PowerGateController
from .punch_fabric import PunchFabric


@lru_cache(maxsize=16)
def _punch_tables(spec: str, hops: int) -> Dict[Tuple[int, int], int]:
    """Memo of the static XY punch relation at one horizon: the targeted
    router per (current, destination).  A function of the key alone,
    so every scheme attached in this process to that mesh at that
    horizon fills and reads the same dict (at most N^2 entries).
    """
    return {}


class NoPG(PowerPolicy):
    """Baseline without power-gating."""

    name = "No-PG"


class PowerGatedScheme(PowerPolicy):
    """Shared machinery of all power-gated schemes."""

    name = "PG-base"

    def __init__(
        self,
        wakeup_latency: int = 8,
        timeout: int = 4,
        punch_hops: Optional[int] = None,
        use_forewarning: bool = False,
        slack2: bool = False,
        slack2_window: int = 6,
    ) -> None:
        self.wakeup_latency = wakeup_latency
        self.timeout = timeout
        self._punch_hops = punch_hops
        #: Whether punch arrivals open a no-sleep forewarning window
        #: (Power Punch's accurate short-idle filtering, Sec. 4.3).
        self.use_forewarning = use_forewarning
        #: Honor early local-router notices from resource accesses.
        self.slack2 = slack2
        self.slack2_window = slack2_window
        #: Vector-kernel controller substrate: while a
        #: ``ControllerArrayBank`` is installed the array state is
        #: authoritative and every controller read goes through the
        #: ``controllers`` property, which flushes the bank back onto
        #: the objects first (see ``repro.noc.vector``).
        self._vector_bank = None
        self._bank_dirty = False
        self.controllers: List[PowerGateController] = []
        self.fabric: Optional[PunchFabric] = None
        self._slack2_hold: Dict[int, int] = {}
        # --- active-set kernel state (see attach) -----------------------
        #: Controllers whose FSM step is non-trivial this cycle: every
        #: non-OFF controller.  A controller leaves when a step observes
        #: it OFF and re-enters via its ``wake_hook`` the moment any
        #: wakeup event pulls it out of OFF, so the invariant
        #: "non-OFF => armed" holds at every observation point.
        self._armed: Set[int] = set()
        #: Baseline blocking-wakeup fallback: when a flit is stalled by a
        #: gated neighbor, assert the one-hop WU handshake directly at
        #: that neighbor's controller.  Off by default (the punch fabric
        #: regenerates wakeups every cycle, making the handshake
        #: redundant and timing-perturbing); armed automatically when a
        #: fault injector is installed, so lost/late punch signals
        #: degrade to the paper's blocking behavior instead of hanging.
        self.blocking_fallback = False

    # ------------------------------------------------------------------
    @property
    def controllers(self) -> List[PowerGateController]:
        """The per-router controller objects, flushed up to date when
        the vector kernel's array bank holds the authoritative state.

        ``_bank_dirty`` is only ever set by an engaged engine's step
        and cleared, after ``flush_into``, by ``materialize()`` in the
        same breath as ``_vector_bank = None``.  The object kernel's
        per-flit paths below therefore read ``_controllers`` directly
        once they have seen ``_vector_bank is None``.
        """
        if self._bank_dirty:
            self._bank_dirty = False
            self._vector_bank.flush_into(self._controllers)
        return self._controllers

    @controllers.setter
    def controllers(self, value: List[PowerGateController]) -> None:
        self._controllers = value

    # ------------------------------------------------------------------
    def punch_horizon(self, config: NoCConfig) -> int:
        """How many hops ahead this scheme punches on ``config``: the
        constructor's ``punch_hops``, or else just enough hop slack to
        cover the wakeup latency — a signal H hops ahead hides
        H * Trouter cycles (Sec. 3)."""
        if self._punch_hops is not None:
            return self._punch_hops
        return max(1, math.ceil(self.wakeup_latency / config.router_stages))

    def attach(self, network: Network) -> None:
        """Derive punch parameters and build controllers/fabric for a network."""
        self.network = network
        cfg = network.config
        self.punch_hops = self.punch_horizon(cfg)
        self.expectation_window = (
            self.punch_hops * cfg.hop_latency if self.use_forewarning else 0
        )
        self.controllers = [
            PowerGateController(node, self.wakeup_latency, self.timeout)
            for node in range(cfg.num_nodes)
        ]
        #: The run's counters, kept past ``close()``: OFF time is read
        #: against their ``cycles``.
        self.stats = network.stats
        for controller in self.controllers:
            # Mirror retry events into the network-wide counters so
            # campaign dumps see them without walking controllers.
            controller.stats = network.stats
        self._vector_bank = None
        self._bank_dirty = False
        self._armed = set(range(cfg.num_nodes))
        for controller in self.controllers:
            controller.wake_hook = self._armed.add
        # Punch targets are always derived from the static XY view:
        # under fault-tolerant rerouting the live routing tables change
        # when routers die, but the fabric memoizes decompositions and
        # the paper's punch horizon is a property of the dimension-order
        # baseline — ``static_view`` is the pure-XY twin either way.
        static = network.routing.static_view
        self.fabric = PunchFabric(static, self._on_punch)
        # Targeted-router lookups happen for every buffered head flit
        # every cycle; memoize per (current, destination) at the fixed
        # punch horizon.
        hops = self.punch_hops
        ahead_cache = _punch_tables(static.topology.spec, hops)
        routing_ahead = static.router_ahead

        def cached_ahead(current: int, destination: int, _hops: int) -> int:
            key = (current, destination)
            target = ahead_cache.get(key)
            if target is None:
                target = ahead_cache[key] = routing_ahead(
                    current, destination, hops
                )
            return target

        self._router_ahead = cached_ahead

    def detach(self) -> None:
        """Drop the hooks bound to this scheme: the controllers' wake
        hooks, the fabric's punch sink."""
        for controller in self.controllers:
            controller.detach()
        self.fabric.close()
        super().detach()

    def _on_punch(self, router: int, cycle: int) -> None:
        self._controllers[router].request_wakeup(cycle, self.expectation_window)

    def on_faults_installed(self, injector) -> None:
        """Wire the injector into the punch fabric and every controller,
        and arm the blocking-wakeup fallback (graceful degradation)."""
        if self.fabric is not None:
            self.fabric.faults = injector
        for controller in self.controllers:
            controller.faults = injector
        self.blocking_fallback = True

    def note_blocked(self, router_id: int, next_router: int, packet, cycle: int) -> None:
        """A flit is stalled behind a gated-off/waking neighbor.

        With the fallback armed this asserts the conventional one-hop WU
        handshake at the blocking neighbor — retried every stalled cycle
        by construction, so even a fully dropped punch stream converges
        to the baseline blocking-wakeup path (bounded by the deadlock
        watchdog rather than a silent hang).
        """
        if self.blocking_fallback:
            self.controllers[next_router].request_wakeup(cycle, 0)

    # ------------------------------------------------------------------
    # Availability / state queries
    # ------------------------------------------------------------------
    def is_router_available(self, router_id: int) -> bool:
        """PG signal de-asserted for this router right now."""
        bank = self._vector_bank
        if bank is not None:
            return bank.state[router_id] == 0
        return self.controllers[router_id].is_available

    def is_router_available_by(self, router_id: int, by_cycle: int) -> bool:
        """Whether the router will be powered on at ``by_cycle`` (ETA check).

        Inline twin of :meth:`PowerGateController.available_by` — this
        probe runs once per SA-ready VC per cycle.
        """
        bank = self._vector_bank
        if bank is not None:
            st = bank.state[router_id]
            if st == 0:
                return True
            if st == 2:
                return bool(bank.wake_at[router_id] <= by_cycle)
            return False
        controller = self._controllers[router_id]
        state = controller.state
        if state is PGState.ACTIVE:
            return True
        if state is PGState.WAKING:
            return controller.wake_at <= by_cycle
        return False

    def router_is_off(self, router_id: int) -> bool:
        """Whether the router is currently gated off."""
        return self.controllers[router_id].is_off

    def router_is_waking(self, router_id: int) -> bool:
        """Whether the router is mid-wakeup (PG still asserted)."""
        return self.controllers[router_id].is_waking

    # ------------------------------------------------------------------
    # Per-cycle operation
    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        """Deliver punches, apply slack-2 holds, step the armed FSMs.

        Only controllers in the armed set (non-OFF) and nodes whose NI
        has work are visited: for every other node the per-node
        iteration of the full-scan reference (``repro.noc.reference``)
        is a provable no-op — ``wants_local_router`` is false without NI
        work, and an OFF controller's step only clears an already-clear
        ``wu_seen`` (its OFF time is the remainder of ``on_cycles``, so
        a skipped step owes no count).  Visiting in sorted node order
        reproduces the reference's index-order interleaving of
        ``request_wakeup``/``step``.
        """
        self.fabric.deliver(cycle)
        controllers = self.controllers
        if self._slack2_hold:
            for node in self._slack2_held(cycle):
                controllers[node].request_wakeup(cycle, 0)
        interfaces = self.network.interfaces
        routers = self.network.routers
        armed = self._armed
        active_nis = self.network.active_nis
        for node in sorted(armed | active_nis):
            ni_wants = node in active_nis and interfaces[node].wants_local_router(cycle)
            if ni_wants:
                # The NI's WU wire into its local PG controller; this
                # re-arms an OFF controller via its wake_hook.
                controllers[node].request_wakeup(cycle, 0)
            if node in armed:
                controller = controllers[node]
                controller.step(cycle, routers[node].datapath_empty(), ni_wants)
                # A pending wakeup retry needs per-cycle OFF steps
                # until its deadline fires.
                if controller.state is PGState.OFF and controller.retry_at is None:
                    armed.discard(node)

    def _slack2_held(self, cycle: int):
        """Nodes still inside their slack-2 window (their local WU stays
        asserted), oldest first; closed windows are forgotten."""
        hold = self._slack2_hold
        for node in [node for node, until in hold.items() if cycle > until]:
            del hold[node]
        return hold

    def end_cycle(self, cycle: int) -> None:
        # Punch/WU wires are combinational functions of the wakeup
        # requirements visible this cycle (Sec. 6.6(1)): regenerate them
        # from every buffered head flit and every pending injection.
        # Routers outside the network's active set have no buffered
        # flits, so iterating the active set matches the full scan.
        """Regenerate punch signals from this cycle's wakeup requirements."""
        ahead = self._router_ahead
        hops = self.punch_hops
        fabric = self.fabric
        routers = self.network.routers
        for rid in sorted(self.network.active_routers):
            requirements = routers[rid].head_flit_requirements()
            if requirements:
                targets = {ahead(rid, dest, hops) for _next, dest in requirements}
                fabric.send_local(rid, targets, cycle)
        # Only an NI with queued or streaming work can punch.
        interfaces = self.network.interfaces
        working = [interfaces[node] for node in sorted(self.network.active_nis)]
        for node, targets in self._generate_injection_punches(cycle, working):
            fabric.send_local(node, targets, cycle)

    def _generate_injection_punches(
        self, cycle: int, interfaces: List[NetworkInterface]
    ) -> List[Tuple[int, Set[int]]]:
        """Injection-side wakeup generation: the ``(node, targets)``
        punches that the ``interfaces`` the caller scans (in node order)
        send this cycle, for the caller to hand to the fabric."""
        ahead = self._router_ahead
        hops = self.punch_hops
        sends = []
        for ni in interfaces:
            packets = self._punching_packets(ni, cycle)
            if packets:
                sends.append((ni.node, {ahead(ni.node, p.destination, hops) for p in packets}))
        return sends

    def _punching_packets(self, ni: NetworkInterface, cycle: int) -> List[Packet]:
        """The packets queued at ``ni`` that punch this cycle, scheme-
        specific.  None here: conventional PG only asserts the local WU
        when the NI checks availability, and ``begin_cycle`` models that
        wire via ``wants_local_router`` + ``request_wakeup``."""
        return []

    # ------------------------------------------------------------------
    # NI hooks
    # ------------------------------------------------------------------
    def on_injection_check(self, node: int, packet: Packet, cycle: int) -> None:
        # Wakeup-issue point for schemes without NI slack: the packet
        # "encounters" a powered-off local router (Fig. 9 semantics) if
        # the router is not fully on when the NI checks availability,
        # even when the wakeup wait itself ends up partially hidden.
        """Record a blocked-router encounter at the availability check."""
        if not self.is_router_available(node):
            meet_powered_off(self.network._subscribers, packet, node, node, False, cycle)

    def early_local_notice(self, node: int, cycle: int) -> None:
        """Slack 2: wake/hold the local router ahead of a certain message."""
        if not self.slack2:
            return
        until = cycle + self.slack2_window
        if until > self._slack2_hold.get(node, -1):
            self._slack2_hold[node] = until
        bank = self._vector_bank
        if bank is not None:
            bank.request_scalar(node, cycle, 0)
            return
        self.controllers[node].request_wakeup(cycle, 0)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def gating_activity(self, cycles: int, num_routers: int) -> dict:
        """The controllers' on/wake totals (an engaged vector bank is
        flushed first), OFF time as their remainder of ``cycles``, and
        the punch fabric's transmissions."""
        on_cycles = wake_events = 0
        for controller in self.controllers:
            on_cycles += controller.on_cycles
            wake_events += controller.wake_events
        return {
            "on_cycles": on_cycles,
            "off_cycles": cycles * num_routers - on_cycles,
            "wake_events": wake_events,
            "punch_transmissions": self.fabric.link_transmissions if self.fabric else 0,
            "gated": True,
        }

    def total_off_cycles(self) -> int:
        """Sum of gated-off cycles across all routers (readable after
        ``close()``)."""
        return self.gating_activity(self.stats.cycles, len(self.controllers))["off_cycles"]

    def total_wake_events(self) -> int:
        """Total wakeup events across all routers."""
        return sum(c.wake_events for c in self.controllers)


class ConvOptPG(PowerGatedScheme):
    """Optimized conventional power-gating (timeout + early wakeup).

    Wakeup signals travel exactly one hop (the look-ahead routing
    early-wakeup of [Matsutani et al.]); there is no multi-hop punch,
    no forewarning window and no use of NI slack, so packets pay most
    of the wakeup latency whenever they run into gated-off routers.
    """

    name = "ConvOpt-PG"

    def __init__(self, wakeup_latency: int = 8, timeout: int = 4) -> None:
        super().__init__(
            wakeup_latency=wakeup_latency,
            timeout=timeout,
            punch_hops=1,
            use_forewarning=False,
            slack2=False,
        )


class PowerPunchSignal(PowerGatedScheme):
    """Power Punch with multi-hop punch signals only (no NI slack)."""

    name = "PowerPunch-Signal"

    def __init__(
        self,
        wakeup_latency: int = 8,
        timeout: int = 4,
        punch_hops: Optional[int] = None,
    ) -> None:
        super().__init__(
            wakeup_latency=wakeup_latency,
            timeout=timeout,
            punch_hops=punch_hops,
            use_forewarning=True,
            slack2=False,
        )

    def _punching_packets(self, ni: NetworkInterface, cycle: int) -> List[Packet]:
        # Each queue's front packet once its NI processing has completed
        # (the availability-check point of Fig. 6 — no slack exploited).
        ready = cycle - self.network.config.ni_latency
        return [queue[0] for queue in ni.queues if queue and queue[0].created_at <= ready]


class PowerPunchPG(PowerPunchSignal):
    """Comprehensive Power Punch: punch signals + injection-node slack."""

    name = "PowerPunch-PG"

    def __init__(
        self,
        wakeup_latency: int = 8,
        timeout: int = 4,
        punch_hops: Optional[int] = None,
        slack2_window: int = 6,
    ) -> None:
        PowerGatedScheme.__init__(
            self,
            wakeup_latency=wakeup_latency,
            timeout=timeout,
            punch_hops=punch_hops,
            use_forewarning=True,
            slack2=True,
            slack2_window=slack2_window,
        )

    def on_message_created(self, node: int, packet: Packet, cycle: int) -> None:
        # Slack-1 wakeup issue point: if the local router is not fully
        # on when the message enters the NI, the packet "encounters" a
        # powered-off router (Fig. 9 semantics) even though the NI
        # slack may hide most or all of the wakeup wait (Fig. 10).
        """Slack-1 wakeup-issue point: count powered-off encounters here."""
        if not self.is_router_available(node):
            meet_powered_off(self.network._subscribers, packet, node, node, False, cycle)

    def _punching_packets(self, ni: NetworkInterface, cycle: int) -> List[Packet]:
        # Slack 1: wakeup information is available as soon as the
        # message enters the NI, so every queued packet punches —
        # including those still inside the NI pipeline (Fig. 6).
        return [packet for queue in ni.queues for packet in queue]
