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

from ..noc.errors import UnsupportedTopologyError
from ..noc.network import Network
from ..noc.network_interface import NetworkInterface
from ..noc.packet import Packet, meet_powered_off
from ..noc.policy import AlwaysOnPolicy, PowerPolicy
from ..noc.topology import Direction
from ..powergate.controller import PGState, PowerGateController
from .punch_fabric import PunchFabric

#: Shared empty punch-target set for routers whose heads need no wakeups.
_EMPTY_TARGETS: frozenset = frozenset()


@lru_cache(maxsize=16)
def _punch_tables(
    routing: type, spec: str, hops: int
) -> Tuple[Dict[Tuple[int, int], int], Dict[Tuple[int, int], frozenset]]:
    """Memos of the static punch relation at one horizon, both per
    (current, destination): the targeted router, and the punch set
    naming only it.  A function of the key alone, so every scheme
    attached in this process to that fabric at that horizon fills and
    reads the same two dicts (at most N^2 entries each).
    """
    return {}, {}


class NoPG(AlwaysOnPolicy):
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
        slack1: bool = False,
        slack2: bool = False,
        slack2_window: int = 6,
    ) -> None:
        self.wakeup_latency = wakeup_latency
        self.timeout = timeout
        self._punch_hops = punch_hops
        #: Whether punch arrivals open a no-sleep forewarning window
        #: (Power Punch's accurate short-idle filtering, Sec. 4.3).
        self.use_forewarning = use_forewarning
        #: Send injection punches at message creation (start of NI delay).
        self.slack1 = slack1
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
        #: Last cycle whose controller-step phase completed; the lazy
        #: OFF-cycle accounting clock for skipped controllers.
        self._stepped_through = -1
        #: Event-driven sleep deadlines: cycle -> [(node, quiescent
        #: since)].  When a step observes a controller fully quiescent
        #: (ACTIVE, datapath empty, no NI demand, no wakeup signal),
        #: its inputs cannot change without an external event — so
        #: instead of stepping it every cycle, the scheme computes the
        #: cycle its sleep decision will fire and parks the controller
        #: until then.  Any disturbance (wakeup request, flit headed
        #: its way) settles the owed accounting and re-arms stepping;
        #: the parked entry is then stale and skipped by the ``since``
        #: check.
        self._sleep_deadlines: Dict[int, List[Tuple[int, int]]] = {}
        #: Per-router punch-target memo: router_id -> (head_version,
        #: targets).  Valid until the router's front head flits change.
        self._punch_cache: Dict[int, Tuple[int, Set[int]]] = {}
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
    def attach(self, network: Network) -> None:
        """Derive punch parameters and build controllers/fabric for a network."""
        self.network = network
        cfg = network.config
        if self._punch_hops is None:
            # Just enough hop slack to cover the wakeup latency:
            # a signal H hops ahead hides H * Trouter cycles (Sec. 3).
            self.punch_hops = max(1, math.ceil(self.wakeup_latency / cfg.router_stages))
        else:
            self.punch_hops = self._punch_hops
        if self.punch_hops > 1 and cfg.topology != "mesh":
            # Multi-hop punch signals are Power Punch's contribution and
            # stay mesh+XY: the contention-free encoding (Sec. 4.1) is
            # derived from XY's turn restrictions.  One-hop wakeup
            # (ConvOpt-PG) only needs the generic next-hop relation and
            # runs on any fabric.
            raise UnsupportedTopologyError(
                f"scheme {self.name!r} (punch_hops={self.punch_hops})",
                cfg.topology,
                reason="multi-hop punch encoding is derived from XY "
                "turn restrictions on the mesh",
            )
        self.expectation_window = (
            self.punch_hops * cfg.hop_latency if self.use_forewarning else 0
        )
        self.controllers = [
            PowerGateController(node, self.wakeup_latency, self.timeout)
            for node in range(cfg.num_nodes)
        ]
        for controller in self.controllers:
            # Mirror retry events into the network-wide counters so
            # campaign dumps see them without walking controllers.
            controller.stats = network.stats
        self._vector_bank = None
        self._bank_dirty = False
        self._faulted = False
        self._armed = set(range(cfg.num_nodes))
        self._stepped_through = -1
        self._punch_cache = {}
        self._sleep_deadlines = {}
        for controller in self.controllers:
            controller.clock = self._controller_clock
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
        ahead_cache, self._singleton_targets = _punch_tables(
            type(static), static.topology.spec, hops
        )
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
        """Settle every controller's lazy accounting, then drop the
        hooks bound to this scheme: controller clocks, the fabric's
        punch sink."""
        for controller in self.controllers:
            controller.detach()
        self.fabric.close()
        super().detach()

    def _controller_clock(self) -> int:
        """Lazy OFF-accounting clock handed to skipped controllers."""
        return self._stepped_through

    def _on_punch(self, router: int, cycle: int) -> None:
        controller = self._controllers[router]
        if controller._quiescent_since is not None and controller.faults is None:
            # Parked controller: absorb the wakeup without waking the
            # FSM — the inline twin of ``request_wakeup``'s parked fast
            # path (its ``clock()`` is ``self._stepped_through``).
            reset_step = self._stepped_through + 1
            if reset_step != controller._parked_reset_last:
                controller._parked_reset_prev = controller._parked_reset_last
                controller._parked_reset_last = reset_step
            window = self.expectation_window
            if window > 0:
                expect = cycle + window
                if expect > controller.expect_until:
                    controller.expect_until = expect
            return
        controller.request_wakeup(cycle, self.expectation_window)

    def on_faults_installed(self, injector) -> None:
        """Wire the injector into the punch fabric and every controller,
        and arm the blocking-wakeup fallback (graceful degradation)."""
        if self.fabric is not None:
            self.fabric.faults = injector
        for controller in self.controllers:
            controller.faults = injector
        self.blocking_fallback = True
        # Fault dispositions are drawn per delivered wakeup request, so
        # the lazy parked-controller paths must not absorb requests:
        # resume per-cycle stepping for every parked controller and
        # stop parking from here on.
        self._faulted = True
        for controller in self.controllers:
            if controller._quiescent_since is not None:
                controller.settle_quiescence()
                self._armed.add(controller.router_id)

    def on_router_disturbed(self, router_id: int) -> None:
        """A flit was sent toward ``router_id``: its controller's
        datapath-empty input changes without a wakeup signal.

        The sender already incremented ``incoming_in_flight``, so every
        step from the next one on is provably ``busy`` until the
        emptied hook fires — the quiescent park converts in place into
        a busy skip instead of bouncing through the armed set for one
        busy step.  Busy-skip parks are unaffected (the datapath stays
        non-empty) and WAKING parks ignore the datapath until their
        wake-at transition, which reads it fresh.

        Only parked controllers are touched, and none is parked while a
        bank is authoritative (engagement settles every park, the flush
        resets the park fields), so no flush is needed to read them.
        """
        controller = self._controllers[router_id]
        if (
            controller._quiescent_since is not None
            and not controller._parked_busy
            and controller.state is PGState.ACTIVE
        ):
            controller.settle_quiescence()
            if self._faulted:
                self._armed.add(router_id)
            else:
                controller.enter_busy_skip(self._stepped_through)

    def on_router_emptied(self, router_id: int) -> None:
        """The last flit left ``router_id``'s datapath: a busy-skip
        parked controller sees its sleep precondition change.

        Idle counting restarts at the next step, so the controller
        re-parks directly as quiescent with its sleep decision due a
        full timeout from now; a wakeup still pending consumption
        translates into a parked reset one step later, exactly as if
        the next stepped cycle had consumed it.
        """
        controller = self.controllers[router_id]
        if controller._parked_busy:
            controller.settle_quiescence()
            if self._faulted:
                self._armed.add(router_id)
                return
            now = self._stepped_through
            controller.enter_quiescence(now)
            if controller.wu_seen:
                controller.wu_seen = False
                controller._parked_reset_last = now + 1
                deadline = now + 1 + controller.timeout
            else:
                deadline = now + controller.timeout
            expect_gate = controller.expect_until + 1
            if expect_gate > deadline:
                deadline = expect_gate
            self._sleep_deadlines.setdefault(deadline, []).append(
                (router_id, now)
            )

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
        work, and an OFF controller's step only accrues ``off_cycles``
        (accounted lazily against ``_stepped_through``) and clears an
        already-clear ``wu_seen``.  Visiting in sorted node order
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
        due = self._sleep_deadlines.pop(cycle, None)
        # Parked quiescent controllers whose sleep decision fires
        # this cycle are visited at their sorted node position so
        # the decision step lands exactly where the reference's
        # per-node step would — in particular *after* this node's
        # own NI wakeup request, which (as in the seed) prevents
        # rather than cancels the sleep.
        due_map = dict(due) if due else None
        visit = armed | active_nis
        if due_map:
            visit |= due_map.keys()
        for node in sorted(visit):
            ni_wants = node in active_nis and interfaces[node].wants_local_router(cycle)
            if ni_wants:
                # The NI's WU wire into its local PG controller;
                # this re-arms an OFF (or parked) controller via
                # its wake_hook.
                controllers[node].request_wakeup(cycle, 0)
            if node in armed:
                controller = controllers[node]
                empty = routers[node].datapath_empty()
                controller.step(cycle, empty, ni_wants)
                state = controller.state
                if state is PGState.OFF:
                    if controller.retry_at is None:
                        armed.discard(node)
                    # else: a pending wakeup retry needs per-cycle
                    # OFF steps until its deadline fires.
                elif self._faulted:
                    # Fault dispositions are drawn per delivered
                    # wakeup request, so controllers must stay on
                    # the fully stepped path.
                    pass
                elif state is PGState.ACTIVE:
                    if empty:
                        # Empty-datapath ACTIVE step: every input
                        # the FSM reacts to from here on arrives as
                        # a request_wakeup (absorbed lazily while
                        # parked) or as a disturbance hook when a
                        # flit heads this way — park the controller
                        # until its sleep decision, due when the
                        # idle timeout has elapsed and any punch
                        # forewarning window has passed.
                        deadline = cycle + controller.timeout - controller.idle_cycles
                        expect_gate = controller.expect_until + 1
                        if expect_gate > deadline:
                            deadline = expect_gate
                        armed.discard(node)
                        controller.enter_quiescence(cycle)
                        self._sleep_deadlines.setdefault(deadline, []).append(
                            (node, cycle)
                        )
                    else:
                        # Busy ACTIVE step: every further step is
                        # ``busy`` until the datapath empties, and
                        # the network reports that departure via
                        # the disturbance hook.
                        armed.discard(node)
                        controller.enter_busy_skip(cycle)
                else:
                    # WAKING: the FSM ticks deterministically until
                    # ``wake_at``; park it until then.
                    armed.discard(node)
                    controller.enter_quiescence(cycle)
                    self._sleep_deadlines.setdefault(
                        controller.wake_at, []
                    ).append((node, cycle))
            elif due_map is not None:
                since = due_map.get(node)
                controller = controllers[node]
                # Busy parks never carry a sleep deadline: a
                # matching entry is a stale quiescent one whose
                # park was converted in place by the disturb hook.
                if (
                    since is not None
                    and controller._quiescent_since == since
                    and not controller._parked_busy
                ):
                    if controller.state is PGState.WAKING:
                        # The wake-at transition step: fold the
                        # owed WAKING cycles and run it for real.
                        controller.settle_quiescence()
                        controller.step(cycle, routers[node].datapath_empty(), ni_wants)
                        armed.add(node)
                        continue
                    # Wakeups absorbed while parked reset the idle
                    # count (and may have extended the forewarning
                    # window): recompute the true sleep cycle and
                    # re-park if it moved past this deadline.
                    last = controller._parked_reset_last
                    deadline = controller.expect_until + 1
                    if last is not None:
                        timed_out = last + controller.timeout
                        if timed_out > deadline:
                            deadline = timed_out
                    if last is not None and deadline > cycle:
                        self._sleep_deadlines.setdefault(deadline, []).append(
                            (node, since)
                        )
                    else:
                        # Undisturbed through its deadline: fold
                        # the owed quiescent steps and run the real
                        # sleep decision step the reference
                        # would run now.
                        controller.settle_quiescence()
                        controller.step(cycle, True, False)
                        if controller.state is not PGState.OFF:
                            armed.add(node)  # safety net
        self._stepped_through = cycle

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
        # flits, so iterating the active set matches the full scan; the
        # per-router target set is memoized on ``head_version`` so a
        # router whose heads are merely stalled does not recompute it.
        """Regenerate punch signals from this cycle's wakeup requirements."""
        ahead = self._router_ahead
        hops = self.punch_hops
        fabric = self.fabric
        routers = self.network.routers
        cache = self._punch_cache
        singles = self._singleton_targets
        local = Direction.LOCAL
        for rid in sorted(self.network.active_routers):
            router = routers[rid]
            if not router._occupied:
                continue
            version = router.head_version
            cached = cache.get(rid)
            if cached is not None and cached[0] == version:
                targets = cached[1]
            else:
                # ``head_flit_requirements`` inlined (occupied VCs
                # are never empty), with the ubiquitous one-head
                # case building its frozenset once per (router,
                # destination) instead of once per cycle.
                connected = router.connected
                first = first_dest = None
                rest = None
                for vc in router._occupied:
                    front = vc.flits[0]
                    if not front.is_head:
                        continue
                    route = vc.route
                    if route is None or route is local:
                        continue
                    if connected[route] is None:
                        continue
                    dest = front.packet.destination
                    target = ahead(rid, dest, hops)
                    if first is None:
                        first, first_dest = target, dest
                    elif rest is None:
                        rest = {first, target}
                    else:
                        rest.add(target)
                if rest is not None:
                    targets = frozenset(rest)
                elif first is not None:
                    key = (rid, first_dest)
                    targets = singles.get(key)
                    if targets is None:
                        targets = singles[key] = frozenset((first,))
                else:
                    targets = _EMPTY_TARGETS
                cache[rid] = (version, targets)
            if targets:
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
    def total_off_cycles(self) -> int:
        """Sum of gated-off cycles across all routers."""
        return sum(c.off_cycles for c in self.controllers)

    def total_wake_events(self) -> int:
        """Total wakeup events across all routers."""
        return sum(c.wake_events for c in self.controllers)

    def currently_off(self) -> int:
        """Number of routers gated off right now."""
        return sum(1 for c in self.controllers if c.is_off)


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
            slack1=False,
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
            slack1=False,
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
            slack1=True,
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
