"""Cycle-driven network simulation kernel.

Assembles routers, links and network interfaces over a mesh topology
and advances them cycle by cycle.  The kernel owns all cross-component
event queues (flits on links, credits in flight) so routers and NIs
stay simple and synchronous.

A cycle is one phase table: :meth:`Network.step` runs ``phases``, an
ordered tuple of callables each called with the cycle number.  The
object kernel's table (``Network._cycle_phases``) is: deliver flits,
deliver credits, policy ``begin_cycle``, NI injection, VC then switch
allocation, policy ``end_cycle``, cycle close — led by the
degradation check once a fault injector is installed.  The vector
engine installs its own table while it holds the run, and the
full-scan reference declares its own.

Active-set kernel: the kernel maintains explicit work-sets so the
per-cycle cost scales with activity instead of mesh size:

* ``active_routers`` — router ids with occupied input VCs.  A router
  enters when a flit is buffered into it (``_deliver_flits``, the only
  path by which a VC becomes occupied) and leaves after a switch-
  allocation round drains its last flit.
* ``active_nis`` — NI node ids with queued or streaming packets.  An
  NI enters when a packet is (re)queued (the NI fires the kernel's
  ``on_work`` callback) and leaves once its queues and streams empty.

Both sets are iterated in sorted id order, which matches an index-order
scan of every component exactly — components outside the sets would be
no-ops.  That full scan is the reference implementation the equivalence
tests and the benchmark hold this kernel to; it lives in
``repro.noc.reference`` and ``kernel="naive"`` builds it (see
``Network.__new__``).

Engine selection: the default ``kernel == "auto"`` runs the active-set
kernel while the active set is sparse and hands the run to the
structure-of-arrays engine of ``repro.noc.vector`` while it is dense
(see ``_select_engine``); ``"active"`` and ``"vector"`` pin one side.

Observation seam: every observer (``PacketTracer``, the checkers, a
chip) attaches through :meth:`Network.subscribe`, to the ``EVENTS`` the
network announces; an event nobody subscribed to costs an empty-tuple
loop (docs/architecture.md, "The observation seam").
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING, Callable, DefaultDict, Dict, Iterator, List, Optional, Set, Tuple,
)

from .buffers import VCState, VirtualChannel
from .config import NoCConfig
from .errors import (
    DegradedNetworkError,
    DrainTimeoutError,
    NetworkClosedError,
    TopologyError,
)
from .faults import FaultInjector, FaultSchedule
from .network_interface import NetworkInterface
from .packet import Flit, Packet, meet_powered_off
from .policy import AlwaysOnPolicy, PowerPolicy
from .router import Router
from .routing import FaultTolerantRouting, RoutingAlgorithm, default_routing
from .stats import NetworkStats
from .topology import Direction
from .tracing import EventRing

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .invariants import InvariantChecker

#: Cycles from a switch-allocation grant until the flit is buffered
#: downstream: ST (1) + link (1) + BW in the arrival cycle.
_SA_TO_ARRIVAL = 3
#: Cycles from a switch-allocation grant until the freed slot's credit
#: is visible upstream.
_SA_TO_CREDIT = 2
#: Cycles from NI flit send until it is buffered in the local port.
_NI_TO_ARRIVAL = 1

#: Run-time engine selection (``kernel="auto"``, see
#: ``Network._select_engine``).  Every ``_SELECT_WINDOW`` cycles the mean
#: number of routers holding flits over the window is compared with two
#: constants: above ``_ENGAGE_ABOVE`` the vector engine takes over, below
#: ``_DISENGAGE_BELOW`` the object kernel does.  The object kernel costs
#: ~7 (NoPG) / ~14 (PowerPunchPG) us per active router per cycle, the
#: engine ~230 / ~460 us per cycle plus ~2-3 per active router, so they
#: cross near 42 active routers whatever the mesh size (measured,
#: PYTHONHASHSEED=0, best of 3 replays, us/cycle NoPG / PowerPunchPG;
#: full table and method in docs/architecture.md):
#:
#:     mesh @ rate     mean active   active        vector
#:     8x8   @ 0.02         9         77 / 148     236 / 447
#:     16x16 @ 0.01        27        171 / 346     249 / 502
#:     8x8   @ 0.10        32        264 / 438     310 / 568
#:     16x16 @ 0.02        53        317 / 654     278 / 556
#:     12x12 @ 0.05        56        376 / 654     303 / 580
#:     16x16 @ 0.03        78        509 / 1009    333 / 625
#:     16x16 @ 0.05       117        778 / 1544    410 / 731
#:
#: The band sits astride the crossover: at either edge the engine in
#: charge is ~15 % behind the other one, and a window mean wanders ~+-8
#: around a steady load's, so a load inside the band keeps whichever
#: engine it has.  One switch costs ~3 ms (import) or ~7 ms
#: (materialize) at 16x16 — under a window of either engine's stepping
#: — plus ~20 ms for the first engagement of a process (module import,
#: numpy warm-up), repaid within 70 cycles at 0.05.
_SELECT_WINDOW = 32
_ENGAGE_ABOVE = 52
_DISENGAGE_BELOW = 36
#: ``_select_at`` of a network whose engine is never reconsidered.
_NEVER = 1 << 60

#: The events :meth:`Network.subscribe` accepts, with the arguments
#: their subscribers are called with.
EVENTS = {
    "created": "packet, cycle",  # inject() queued a packet
    "refused": "packet, cycle",  # inject() refused it: a dead route
    "sent": "node, flit, cycle",  # an NI sent a flit into its router
    "arrived": "router, flit, cycle",  # a router buffered a flit
    "granted": "router, flit, in_dir, in_vc, out_dir, out_vc, cycle",
    # a packet at ``at`` met the powered-off ``off`` (see meet_powered_off)
    "blocked": "packet, at, off, waited, cycle",
    "ejected": "node, flit, cycle",  # a flit left the mesh
    "delivered": "packet, cycle",  # a tail ejected, or out of band
    "purged": "flit, cycle",  # graceful degradation removed a flit
    "dropped": "packet, cycle",  # graceful degradation dropped a packet
    "cycle_end": "cycle",
}
#: Events only the object kernel announces: subscribing to one pins it.
PER_FLIT_EVENTS = frozenset(
    {"sent", "arrived", "granted", "ejected", "purged", "cycle_end"}
)


class Network:
    """A complete mesh NoC instance."""

    def __new__(cls, config: NoCConfig, policy: Optional[PowerPolicy] = None):
        """The constructor's choice of stepper: ``kernel="naive"`` builds
        the full-scan reference (a subclass, imported only here — like
        ``repro.noc.vector``, only by a network that runs it)."""
        if cls is Network and config.kernel == "naive":
            from .reference import FullScanNetwork

            cls = FullScanNetwork
        return super().__new__(cls)

    def __init__(
        self,
        config: NoCConfig,
        policy: Optional[PowerPolicy] = None,
    ) -> None:
        self.config = config
        self.topology = config.make_topology()
        # Routing is chosen before routers are built: every router holds
        # a reference to the routing object, and reroute mode swaps in
        # the fault-tolerant one (mesh-only, validated by the config).
        if config.degradation == "reroute":
            self.routing: RoutingAlgorithm = FaultTolerantRouting(self.topology)
        else:
            self.routing = default_routing(self.topology)
        self.policy = policy if policy is not None else AlwaysOnPolicy()
        self.cycle = 0
        #: Set by :meth:`close`; a closed network only answers reads.
        self.closed = False
        self.stats = NetworkStats()

        self.routers: List[Router] = [
            Router(node, config, self.routing) for node in range(config.num_nodes)
        ]
        for router in self.routers:
            for direction, neighbor in self.topology.neighbors(router.router_id):
                router.connected[direction] = neighbor

        #: Engaged vector engine (see ``repro.noc.vector``), or None.
        self._engine = None
        #: Layout constants the engine keeps across engagements.
        self._vector_static = None
        #: Engine selection (see ``_select_engine``): the cycle the
        #: current window closes, and the window's running sum of
        #: routers holding flits.  ``kernel="vector"`` decides once, at
        #: the first step; the pinned object kernels never do.
        self._select_at = {"auto": _SELECT_WINDOW, "vector": 0}.get(
            config.kernel, _NEVER
        )
        self._occupied_sum = 0
        #: Active-set kernel work-sets (see module docstring).
        self._active_routers: Set[int] = set()
        self.active_nis: Set[int] = set()
        #: The subscription table (see ``subscribe``): event -> tuple of
        #: callables.  The NIs share it to announce their deliveries.
        self._subscribers: Dict[str, Tuple[Callable, ...]] = dict.fromkeys(EVENTS, ())

        self.interfaces: List[NetworkInterface] = [
            NetworkInterface(
                node,
                config,
                self.routers[node],
                self.policy,
                self._ni_send,
                self._subscribers,
                on_work=self.active_nis.add,
            )
            for node in range(config.num_nodes)
        ]

        #: Flit counts per (router, outgoing direction), LOCAL = ejection.
        #: Read through the ``link_counts`` property, which folds in the
        #: vector engine's array counters when one is engaged.
        self._link_counts: List[Dict[Direction, int]] = [
            {d: 0 for d in self.topology.ports} for _ in range(config.num_nodes)
        ]

        # Event queues keyed by delivery cycle.
        self._flit_events: DefaultDict[int, List[Tuple[int, Direction, int, Flit]]] = (
            defaultdict(list)
        )
        self._credit_events: DefaultDict[int, List[Tuple[int, Direction, int]]] = (
            defaultdict(list)
        )
        self._eject_events: DefaultDict[int, List[Tuple[int, Flit]]] = defaultdict(list)
        #: Optional robustness layer (see install_faults / install_invariants).
        self.faults: Optional[FaultInjector] = None
        self.invariants: Optional["InvariantChecker"] = None
        #: The flight recorder the injector, the checker and the
        #: degradation policy all write; made by the first of
        #: install_faults / install_invariants (see _flight_recorder).
        self.ring: Optional[EventRing] = None
        #: Optional latency-bound checker (see install_bounds).
        self.bounds = None
        #: Graceful-degradation state (see _check_degradation): routers
        #: declared permanently dead, and a memo of which (start, dest)
        #: XY walks cross one (cleared whenever the dead set grows).
        self.dead_routers: Set[int] = set()
        self._route_crosses_dead: Dict[Tuple[int, int], bool] = {}
        # Context for the bound-method SA sinks (see _run_switch_allocation).
        self._sa_router: Optional[Router] = None
        self._sa_cycle = 0
        self.policy.attach(self)
        #: The cycle :meth:`step` runs (see ``_cycle_phases``).
        self.phases = self._cycle_phases()
        if config.faults is not None:
            self.install_faults(FaultInjector(FaultSchedule.parse(config.faults)))
        if config.strict_invariants:
            from .invariants import InvariantChecker

            kwargs = {}
            if config.watchdog is not None:
                kwargs["max_network_age"] = config.watchdog
            self.install_invariants(InvariantChecker(strict=True, **kwargs))
        if config.bounds:
            # Deferred import: the guarantees layer sits above noc.
            from ..guarantees import BoundChecker

            self.install_bounds(BoundChecker(strict=True))

    # ------------------------------------------------------------------
    # Robustness layer
    # ------------------------------------------------------------------
    def install_faults(self, injector: FaultInjector) -> None:
        """Attach a fault injector; the policy wires its own fault points
        (punch fabric, PG controllers) and enables the blocking-wakeup
        fallback so lost punches degrade latency instead of liveness."""
        if self.bounds is not None:
            from ..guarantees.bounds import UnboundableConfigError

            raise UnboundableConfigError(
                "latency bounds are certified for the fault-free "
                "pipeline model; remove the bound checker before "
                "installing a fault injector"
            )
        self._disengage_vector()
        self.faults = injector
        injector.ring = self._flight_recorder()
        self.policy.on_faults_installed(injector)
        self.phases = self._cycle_phases()

    def install_invariants(self, checker: "InvariantChecker") -> None:
        """Attach a runtime invariant checker (see repro.noc.invariants):
        it subscribes to the network's events, and stays readable as
        ``invariants`` for post-mortems and reroute re-certification."""
        self._flight_recorder()
        self.invariants = checker
        checker.attach(self)
        if self.routing.restricts_vcs:
            # Wrapped fabrics certify their dateline VC-class scheme up
            # front: an acyclic channel-dependency graph, or a loud
            # InvariantViolation before the first cycle runs.
            self.routing.verify_deadlock_free()

    def _flight_recorder(self) -> EventRing:
        """The network's one event ring, made on first use: whichever
        robustness layer installs first, every writer shares it."""
        if self.ring is None:
            self.ring = EventRing()
        return self.ring

    def install_bounds(self, checker) -> None:
        """Attach a :class:`repro.guarantees.BoundChecker`.

        It subscribes to ``delivered`` only — it reads completed
        packets and never perturbs simulation state — so either engine
        may run the network.
        """
        self.bounds = checker
        checker.attach(self)

    def subscribe(self, event: str, fn: Callable) -> None:
        """Call ``fn``, with the arguments ``EVENTS[event]`` names, each
        time the network announces ``event`` until :meth:`close`.  A
        subscriber to one of ``PER_FLIT_EVENTS`` pins the object kernel
        for good: the vector engine announces packet events only
        (``blocked`` among them)."""
        if event not in EVENTS:
            raise ValueError(f"unknown network event {event!r}; expected one of {list(EVENTS)}")
        if event in PER_FLIT_EVENTS:
            self._disengage_vector()
        self._subscribers[event] += (fn,)

    def close(self) -> None:
        """Finish the run: sever every edge that points back at this
        network, so reference counting frees what it built.

        An engaged vector engine is materialized away, the policy is
        detached (controller clocks, punch sink, ``policy.network``),
        the NIs drop their callbacks, and what nothing reads after a
        run — routers, NIs, event queues, subscribers, phase table,
        fault injector, checkers — is released.  ``config``, ``topology``,
        ``cycle``, ``stats``, ``link_counts``, ``dead_routers`` and the
        policy's counters stay readable (``EnergyModel.account`` still
        works), and so does the flight recorder ``ring``; ``step`` and
        ``inject`` raise :class:`NetworkClosedError`.  Idempotent.
        """
        if self.closed:
            return
        self._disengage_vector()
        self.closed = True
        self.policy.detach()
        for ni in self.interfaces:
            ni.close()
        self.routers = []
        self.interfaces = []
        self._flit_events.clear()
        self._credit_events.clear()
        self._eject_events.clear()
        self._subscribers.update(dict.fromkeys(EVENTS, ()))
        self.phases = ()
        self._sa_router = self._vector_static = None
        self.faults = self.invariants = self.bounds = None

    # ------------------------------------------------------------------
    # Producer-facing API
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Hand a freshly created message to its source NI this cycle."""
        if self.closed:
            raise NetworkClosedError("inject() on a closed network", cycle=self.cycle)
        if self.dead_routers and (
            (
                self.config.degradation == "drop"
                and self._crosses_dead(packet.source, packet.destination)
            )
            or (
                self.config.degradation == "reroute"
                and not self.routing.reachable(packet.source, packet.destination)
            )
        ):
            # Under "drop" the packet would wedge behind a dead router;
            # under "reroute" only genuinely unreachable endpoints are
            # refused (dead source/destination, or a node the fault cut
            # off from the live component) — everything else detours.
            # Either way: refuse at the door with full accounting
            # instead of letting it (and everything behind it) pile up
            # until the watchdog fires.  Refused packets are never
            # record_injection()'d, so they land in the refused_*
            # subset of the drop counters.
            packet.created_at = self.cycle
            self.stats.record_refusal(packet, self.cycle, self.dead_routers)
            for fn in self._subscribers["refused"]:
                fn(packet, self.cycle)
            return
        self.interfaces[packet.source].enqueue(packet, self.cycle)
        self.stats.record_injection(packet)
        for fn in self._subscribers["created"]:
            fn(packet, self.cycle)

    def deliver_out_of_band(self, packet: Packet, cycle: int) -> None:
        """Complete a packet that bypassed the mesh datapath.

        Used by schemes with auxiliary transport (e.g. the NoRD-like
        bypass ring): records the delivery statistics and announces
        ``delivered`` exactly as a normal ejection would.
        """
        packet.delivered_at = cycle
        self.stats.record_delivery(
            packet, self.topology.hop_distance(packet.source, packet.destination)
        )
        for fn in self._subscribers["delivered"]:
            fn(packet, cycle)

    def in_flight_packets(self) -> int:
        """Flits/packets created but not yet delivered, counted over the
        same universe :meth:`is_drained` checks: NI queues and streams,
        router buffers, flits on links, and flits mid-ejection."""
        if self._engine is not None:
            return self._engine.in_flight_packets()
        pending = sum(ni.pending_packets() for ni in self.interfaces)
        buffered = sum(r.buffered_flits() for r in self.routers)
        flying = sum(len(v) for v in self._flit_events.values())
        ejecting = sum(len(v) for v in self._eject_events.values())
        return pending + buffered + flying + ejecting

    def is_drained(self) -> bool:
        """Whether no packet, flit, credit or policy work is outstanding.

        Scans only the active sets: components outside them cannot hold
        work (NIs fire ``on_work`` whenever a packet is queued; routers
        are added when a flit is buffered, and in-flight flits show up
        in ``_flit_events``).  Stale entries are re-checked and dropped
        here.
        """
        if self._engine is not None:
            return self._engine.is_drained()
        for node in sorted(self.active_nis):
            if self.interfaces[node].pending_packets():
                return False
        self.active_nis.clear()
        for router_id in sorted(self._active_routers):
            if not self.routers[router_id].datapath_empty():
                return False
        self._active_routers.clear()
        if any(self._flit_events.values()):
            return False
        if any(self._eject_events.values()):
            return False
        if any(self._credit_events.values()):
            return False
        return self.policy.pending_work() == 0

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Advance the network a fixed number of cycles."""
        for _ in range(cycles):
            self.step()

    def run_until_drained(self, max_cycles: int = 1_000_000) -> None:
        """Advance until every injected packet is delivered."""
        deadline = self.cycle + max_cycles
        while not self.is_drained():
            if self.cycle >= deadline:
                error = DrainTimeoutError(
                    f"network failed to drain within {max_cycles} cycles; "
                    f"{self.in_flight_packets()} packet(s) still in flight",
                    cycle=self.cycle,
                    post_mortem=(
                        None if self.invariants is None
                        else self.invariants.build_post_mortem(
                            self.cycle, "drain timeout"
                        )
                    ),
                )
                self.attach_fault_context(error)
                raise error
            self.step()

    @property
    def active_routers(self) -> Set[int]:
        """Router ids with occupied input VCs (see module docstring);
        read from the vector engine's occupancy array while one is
        engaged."""
        if self._engine is not None:
            return self._engine.occupied_routers()
        return self._active_routers

    @property
    def link_counts(self) -> List[Dict[Direction, int]]:
        """Flit counts per (router, outgoing direction), LOCAL = ejection."""
        if self._engine is not None:
            self._engine.fold_link_counts()
        return self._link_counts

    def _disengage_vector(self) -> None:
        """Materialize and drop the vector engine (and never re-engage):
        called before attaching what the engine does not model — a
        fault injector, a per-flit subscriber — and by ``close``."""
        self._select_at = _NEVER
        if self._engine is not None:
            self._engine.materialize()

    def _engage_vector(self) -> None:
        """Hand the run to a vector engine built from live state, if
        this network qualifies; if not, stop asking (what disqualifies
        a network never goes away)."""
        from .vector import try_engage

        self._engine = try_engage(self)
        if self._engine is None:
            self._select_at = _NEVER

    def _select_engine(self) -> None:
        """Close one selection window: pick the engine for the next.

        The decision reads simulated state only — the window's sum of
        ``len(active_routers)`` (the engaged engine sums the same
        quantity from its occupancy array) — so a run's engine
        schedule, like its results, repeats exactly.  Two thresholds
        rather than one so a load hovering at the crossover does not
        pay an engine build every other window.  ``kernel="vector"`` is
        the same path decided once: engage now, never look again.
        """
        total = self._occupied_sum
        self._occupied_sum = 0
        pinned = self.config.kernel == "vector"
        self._select_at = _NEVER if pinned else self.cycle + _SELECT_WINDOW
        if self._engine is None:
            if pinned or total > _ENGAGE_ABOVE * _SELECT_WINDOW:
                self._engage_vector()
        elif total < _DISENGAGE_BELOW * _SELECT_WINDOW:
            self._engine.materialize()

    def step(self) -> None:
        """Advance one cycle: run the installed ``phases`` table."""
        if self.closed:
            raise NetworkClosedError("step() on a closed network", cycle=self.cycle)
        if self.cycle >= self._select_at:
            self._select_engine()
        cycle = self.cycle
        for phase in self.phases:
            phase(cycle)

    def _cycle_phases(self) -> Tuple[Callable[[int], None], ...]:
        """The object kernel's cycle, in order (the vector engine's
        twin is ``VectorEngine._cycle_phases``).  A harness may time
        the phases by putting wrapped callables in ``phases``."""
        return self._degradation_phase() + (
            self._deliver_flits,
            self._deliver_credits,
            self._policy_begin,
            self._step_interfaces,
            self._allocate,
            self._policy_end,
            self._close_cycle,
        )

    def _degradation_phase(self) -> Tuple[Callable[[int], None], ...]:
        """The degradation check, leading a faulted degrading network's cycle."""
        if self.faults is not None and self.config.degradation != "none":
            return (self._check_degradation,)
        return ()

    # The policy phases look ``begin_cycle`` / ``end_cycle`` up afresh
    # each cycle, so a caller may wrap either on the policy instance
    # (``bench/mesh.py``'s traced pass does).
    def _policy_begin(self, cycle: int) -> None:
        self.policy.begin_cycle(cycle)

    def _policy_end(self, cycle: int) -> None:
        self.policy.end_cycle(cycle)

    def _step_interfaces(self, cycle: int) -> None:
        """NI injection, on both engines.  Sorted iteration reproduces
        the reference kernel's index-order scan (NIs it skips have no
        work and would be no-ops)."""
        for node in sorted(self.active_nis):
            ni = self.interfaces[node]
            if ni.has_work():
                ni.step(cycle)
            if not ni.has_work():
                self.active_nis.discard(node)

    def _allocate(self, cycle: int) -> None:
        """VC allocation, then switch allocation, in every busy router
        no fault stalls (VA-then-SA inside one cycle is what permits the
        3-stage router's speculative SA)."""
        busy = self._unstalled([self.routers[rid] for rid in sorted(self._active_routers)], cycle)
        # Allocator rounds before a router's wake deadline are provable
        # no-ops (no eligible VC, no blocked-VC report, no arbitration-
        # pointer movement), so they are skipped; the deadlines are
        # recomputed by every round that does run and only lowered by
        # eligibility-creating events.
        for router in busy:
            if cycle >= router._va_wake_at:
                router.do_vc_allocation(cycle)
        # A flit granted SA this cycle lands downstream _SA_TO_ARRIVAL
        # cycles later; a waking router that completes by then may be
        # used (see PowerPolicy.is_router_available_by).  The probe is
        # passed unbound with its arrival cycle — one probe call per
        # SA-ready VC instead of a closure hop plus the probe.
        available_by = self.policy.is_router_available_by
        arrival_cycle = cycle + _SA_TO_ARRIVAL
        discard = self._active_routers.discard
        for router in busy:
            if cycle >= router._sa_wake_at:
                self._run_switch_allocation(router, cycle, available_by, arrival_cycle)
                # Routers drain only through this SA round (stalled
                # routers were filtered from ``busy`` but stay
                # occupied); a skipped round cannot drain.
                if not router._occupied:
                    discard(router.router_id)
        # The engine-selection quantity: routers still holding flits.
        self._occupied_sum += len(self._active_routers)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _unstalled(self, busy: List[Router], cycle: int) -> List[Router]:
        """``busy`` less the routers an open ``router_stall`` window
        freezes (they buffer arrivals but perform no VA/SA); every
        window opening this cycle is recorded, busy router or not."""
        faults = self.faults
        if faults is None:
            return busy
        faults.open_stall_windows(cycle)
        return [r for r in busy if not faults.is_stalled(r.router_id, cycle)]

    def _close_cycle(self, cycle: int) -> None:
        """Count the cycle, announce ``cycle_end``, advance the clock."""
        self.stats.cycles = cycle + 1
        for fn in self._subscribers["cycle_end"]:
            fn(cycle)
        self.cycle = cycle + 1

    def _deliver_flits(self, cycle: int) -> None:
        events = self._flit_events.pop(cycle, None)
        faults = self.faults
        if events:
            routers = self.routers
            mark_active = self._active_routers.add
            arrived = self._subscribers["arrived"]
            for router_id, direction, vc, flit in events:
                router = routers[router_id]
                router.incoming_in_flight -= 1
                if faults is not None:
                    faults.maybe_corrupt(router_id, flit, cycle)
                for fn in arrived:
                    fn(router_id, flit, cycle)
                router.receive_flit(direction, vc, flit, cycle)
                mark_active(router_id)
        ejections = self._eject_events.pop(cycle, None)
        if ejections:
            ejected = self._subscribers["ejected"]
            for node, flit in ejections:
                for fn in ejected:
                    fn(node, flit, cycle)
                self._eject(node, flit, cycle)

    def _eject(self, node: int, flit: Flit, cycle: int) -> None:
        """Hand ``flit`` to ``node``'s NI; a tail completes its packet
        (the vector engine ejects its tails through here too)."""
        self.interfaces[node].eject_flit(flit, cycle)
        if flit.is_tail:
            packet = flit.packet
            hops = self.topology.hop_distance(packet.source, packet.destination)
            self.stats.record_delivery(packet, hops)
            detour = packet.hops_taken - hops
            if detour > 0:
                # Only fault-tolerant rerouting produces non-minimal
                # paths; XY keeps this branch cold.
                self.stats.rerouted_packets += 1
                self.stats.detour_hops += detour

    def _deliver_credits(self, cycle: int) -> None:
        events = self._credit_events.pop(cycle, None)
        if not events:
            return
        for router_id, direction, vc in events:
            if self.faults is not None and self.faults.drop_credit(
                router_id, direction, vc, cycle
            ):
                continue
            if router_id < 0:
                # Credit destined for an NI (local-port slot freed).
                self.interfaces[-router_id - 1].credit_from_router(vc)
            else:
                self.routers[router_id].return_credit(direction, vc)

    def _ni_send(self, node: int, vc: int, flit: Flit, cycle: int) -> None:
        router = self.routers[node]
        router.incoming_in_flight += 1
        for fn in self._subscribers["sent"]:
            fn(node, flit, cycle)
        self._flit_events[cycle + _NI_TO_ARRIVAL].append(
            (node, Direction.LOCAL, vc, flit)
        )
        # The local router's datapath is no longer empty: a parked
        # quiescent PG controller must resume per-cycle stepping.
        self.policy.on_router_disturbed(node)

    def _run_switch_allocation(
        self,
        router: Router,
        cycle: int,
        available_by: Callable[[int, int], bool],
        arrival_cycle: int,
    ) -> None:
        # The departure/blocked sinks are bound methods reading the
        # (router, cycle) context from attributes instead of closures:
        # allocating two function objects per router per cycle is
        # measurable in the cycle kernel's hot path.
        self._sa_router = router
        self._sa_cycle = cycle
        router.do_switch_allocation(
            cycle,
            available_by,
            arrival_cycle,
            self._sa_depart,
            self._sa_note_blocked,
        )

    def _sa_depart(
        self,
        flit: Flit,
        in_dir: Direction,
        in_vc: int,
        out_dir: Direction,
        out_vc: int,
    ) -> None:
        router = self._sa_router
        cycle = self._sa_cycle
        for fn in self._subscribers["granted"]:
            fn(router.router_id, flit, in_dir, in_vc, out_dir, out_vc, cycle)
        self.stats.router_traversals += 1
        self._link_counts[router.router_id][out_dir] += 1
        # ``_schedule_credit_return`` inlined: one call per granted flit.
        if in_dir == Direction.LOCAL:
            # Encode NI targets as negative ids.
            self._credit_events[cycle + _SA_TO_CREDIT].append(
                (-router.router_id - 1, Direction.LOCAL, in_vc)
            )
        else:
            upstream = router.connected[in_dir]
            if upstream is None:
                raise TopologyError(
                    "credit return toward a mesh edge with no neighbor",
                    cycle=cycle, router=router.router_id, port=in_dir, vc=in_vc,
                )
            self._credit_events[cycle + _SA_TO_CREDIT].append(
                (upstream, in_dir.opposite, in_vc)
            )
        if out_dir == Direction.LOCAL:
            self._eject_events[cycle + 1].append((router.router_id, flit))
        else:
            neighbor = router.connected[out_dir]
            if neighbor is None:
                raise TopologyError(
                    "flit departed toward a mesh edge with no neighbor",
                    cycle=cycle, router=router.router_id, port=out_dir,
                    vc=out_vc, packet=flit.packet.packet_id,
                )
            self.stats.link_traversals += 1
            if flit.is_head:
                flit.packet.hops_taken += 1
            self.routers[neighbor].incoming_in_flight += 1
            self._flit_events[cycle + _SA_TO_ARRIVAL].append(
                (neighbor, out_dir.opposite, out_vc, flit)
            )
            # The neighbor's datapath is no longer empty: its PG
            # controller (if quiescently skipped) must resume per-cycle
            # stepping from the next cycle.
            self.policy.on_router_disturbed(neighbor)
        if not router._occupied:
            if not router.incoming_in_flight and not router._live_vcs:
                # This departure emptied the router's datapath (no
                # buffered flits, nothing in flight, no live mid-packet
                # allocation): its own PG controller (if parked in the
                # busy skip) sees its sleep precondition change.  A
                # drained-but-owned VC keeps the busy park instead —
                # the tail's eventual departure re-runs this check.
                self.policy.on_router_emptied(router.router_id)

    def _sa_note_blocked(self, neighbor: int, flit: Flit) -> None:
        router_id, cycle = self._sa_router.router_id, self._sa_cycle
        packet = flit.packet
        meet_powered_off(self._subscribers, packet, router_id, neighbor, True, cycle)
        self.policy.note_blocked(router_id, neighbor, packet, cycle)

    # ------------------------------------------------------------------
    # Graceful degradation under permanent faults
    # ------------------------------------------------------------------
    def _crosses_dead(self, start: int, dest: int) -> bool:
        """Whether the XY walk ``start -> dest`` touches a dead router."""
        key = (start, dest)
        hit = self._route_crosses_dead.get(key)
        if hit is None:
            dead = self.dead_routers
            hit = start in dead
            node = start
            while not hit and node != dest:
                node = self.routing.next_hop(node, dest)
                hit = node in dead
            self._route_crosses_dead[key] = hit
        return hit

    def _check_degradation(self, cycle: int) -> None:
        """Declare routers dead and apply the configured policy.

        A router is dead once its ``router_stall`` fault window has
        been continuously open for ``dead_router_threshold`` cycles
        (see :meth:`FaultInjector.dead_routers`).  ``fail_fast`` raises
        :class:`DegradedNetworkError` carrying the blast radius;
        ``drop`` purges every packet whose remaining route crosses a
        dead router — with full credit/ownership restoration, so the
        strict invariant checker stays green — and keeps the rest of
        the mesh live.  ``reroute`` keeps traffic flowing instead:
        only packets physically stuck in (or flying toward, or
        unreachable past) the dead routers are purged, every surviving
        head flit's route is recomputed against the rebuilt
        fault-tolerant tables, and the tables' channel-dependency
        graph is re-certified acyclic whenever an invariant checker is
        installed.
        """
        newly = [
            rid
            for rid in self.faults.dead_routers(
                cycle, self.config.dead_router_threshold
            )
            if rid not in self.dead_routers
        ]
        if not newly:
            return
        self.dead_routers.update(newly)
        self._route_crosses_dead.clear()
        for rid in newly:
            self.ring.record(
                cycle, "router-dead", rid,
                f"stalled >= {self.config.dead_router_threshold} cycles",
            )
        if self.config.degradation == "reroute":
            self._apply_reroute(cycle)
            return
        # The blast radius: every live packet whose remaining XY route
        # crosses a dead router, from any site one of its flits holds.
        doomed = self._doomed(self._crosses_dead)
        if self.config.degradation == "fail_fast":
            error = DegradedNetworkError(
                f"router(s) {newly} declared permanently dead after "
                f"{self.config.dead_router_threshold} continuously stalled cycles",
                dead_routers=sorted(self.dead_routers),
                affected_packets=sorted(doomed),
                cycle=cycle,
                router=newly[0],
            )
            self.attach_fault_context(error)
            raise error
        if doomed:
            self._purge_doomed(doomed, cycle)

    def attach_fault_context(self, error: Exception) -> None:
        """Stamp ``error`` with the fault spec and dead-router set.

        The campaign engine copies both into the failed cell's
        ``FailureReport`` in the store, so a reroute or deadlock
        failure is reproducible from that entry alone.
        """
        if getattr(error, "fault_spec", None) is None and self.faults is not None:
            error.fault_spec = self.faults.schedule.to_spec()
        if not getattr(error, "dead_routers", None):
            error.dead_routers = tuple(sorted(self.dead_routers))

    def _apply_reroute(self, cycle: int) -> None:
        """Route live traffic around the (grown) dead set.

        Order matters: the tables are rebuilt first (and certified
        deadlock-free under the strict checker), then packets that
        cannot be saved — a flit buffered in or flying toward a dead
        router, or an endpoint the fault disconnected — are purged
        with full accounting, and finally every surviving buffered
        head flit re-resolves its output port against the new tables
        (releasing any downstream VC grant that pointed the old way).
        """
        routing = self.routing
        dead = self.dead_routers
        routing.set_dead(frozenset(dead))
        if self.invariants is not None:
            routing.verify_deadlock_free()
        # Stranded packets only — merely routing *through* the dead
        # region is cured by the detour.  ``reachable`` is already False
        # at a dead router, so one test serves every site.
        reachable = routing.reachable
        doomed = self._doomed(lambda at, dest: at in dead or not reachable(at, dest))
        if doomed:
            self._purge_doomed(doomed, cycle)
        self._recompute_head_routes(cycle)

    def _recompute_head_routes(self, cycle: int) -> None:
        """Re-resolve every surviving front head flit's output port.

        A head still waiting for VA simply re-reads the table; a head
        whose VA grant pointed toward the dead region gives the
        downstream VC back and restarts from VA.  Flits of packets
        whose head already departed keep following it — the committed
        hop is live (packets with flits in or toward dead routers were
        purged first) and the head reroutes from wherever it is now.
        """
        routing = self.routing
        dead = self.dead_routers
        for router in self.routers:
            rid = router.router_id
            if rid in dead or not router._occupied:
                continue
            touched = False
            for vc in router._occupied:
                front = vc.front
                if front is None or not front.is_head:
                    continue
                new_route = routing.output_direction(
                    rid, front.packet.destination
                )
                if new_route == vc.route:
                    continue
                self._release_grant(router, vc)
                vc.route = new_route
                vc.out_vc = None
                vc.state = VCState.WAIT_VA
                # A buffered front arrived before this cycle, so it is
                # VA-eligible next cycle — what _wake_allocators lowers to.
                vc.va_eligible_at = max(cycle + 1, vc.front_arrival() + 1)
                router.head_version += 1
                touched = True
            if touched:
                self._wake_allocators(router, cycle)

    def _live_sites(self) -> Iterator[Tuple[Packet, int]]:
        """Every ``(packet, router)`` site a live packet occupies: NI
        queues and streams (at their node), buffered flits (at their
        router) and flits on links (at the router they fly toward).
        Flits queued for ejection have cleared every router: no site."""
        for ni in self.interfaces:
            for queue in ni.queues:
                for packet in queue:
                    yield packet, ni.node
            for stream in ni.streams.values():
                yield stream.packet, ni.node
        for router in self.routers:
            for vc in router._occupied:
                for flit in vc.flits:
                    yield flit.packet, router.router_id
        for events in self._flit_events.values():
            for router_id, _direction, _vc, flit in events:
                yield flit.packet, router_id

    def _doomed(self, at_risk: Callable[[int, int], bool]) -> Dict[int, Packet]:
        """Live packets with a site ``at`` where ``at_risk(at,
        destination)``, keyed by id in walk order (the order their drops
        are recorded in)."""
        doomed: Dict[int, Packet] = {}
        for packet, at in self._live_sites():
            if packet.packet_id not in doomed and at_risk(at, packet.destination):
                doomed[packet.packet_id] = packet
        return doomed

    @staticmethod
    def _release_grant(router: Router, vc: VirtualChannel) -> None:
        """Give back the downstream VC an ACTIVE input VC won at VA, if
        the output port still records it as the owner."""
        if vc.state is VCState.ACTIVE and vc.route is not None and vc.out_vc is not None:
            owner = router.output_ports[vc.route].owner
            if owner[vc.out_vc] == (vc.port_direction, vc.vc_index):
                owner[vc.out_vc] = None

    @staticmethod
    def _wake_allocators(router: Router, cycle: int) -> None:
        """Run the router's VA and SA from next cycle: a change made
        outside the allocators may have made a front eligible."""
        if router._va_wake_at > cycle + 1:
            router._va_wake_at = cycle + 1
        if router._sa_wake_at > cycle + 1:
            router._sa_wake_at = cycle + 1

    def _restore_upstream_credit(
        self, router: Router, direction: Direction, vc_index: int
    ) -> None:
        """Give back the buffer slot a purged flit held (or was flying
        toward) on ``router``'s ``direction`` input, to whoever spent
        the credit: the local NI or the upstream router's output port."""
        if direction is Direction.LOCAL:
            self.interfaces[router.router_id].credits[vc_index] += 1
            return
        upstream = router.connected[direction]
        if upstream is None:
            raise TopologyError(
                "purged flit held a slot fed from a mesh edge with no neighbor",
                router=router.router_id, port=direction, vc=vc_index,
            )
        self.routers[upstream].output_ports[direction.opposite].credits[
            vc_index
        ] += 1

    def _purge_doomed(self, doomed: Dict[int, Packet], cycle: int) -> None:
        """Remove every trace of the doomed packets, conservatively
        restoring credits, VC state and downstream ownership so the
        surviving traffic (and the invariant checker) see a consistent
        network."""
        purged = self._subscribers["purged"]
        pre_busy = [
            bool(router._occupied) or router.incoming_in_flight > 0
            for router in self.routers
        ]
        # NI queues, streams and pending injection checks.
        for ni in self.interfaces:
            for queue in ni.queues:
                if any(p.packet_id in doomed for p in queue):
                    kept = [p for p in queue if p.packet_id not in doomed]
                    queue.clear()
                    queue.extend(kept)
            for vc_index in [
                v for v, s in ni.streams.items() if s.packet.packet_id in doomed
            ]:
                del ni.streams[vc_index]
            ni._checked -= doomed.keys()
        # Flits in flight on links: unwind the in-flight count and give
        # the never-to-be-occupied slot's credit back to the sender.
        for when in list(self._flit_events):
            kept_events = []
            for router_id, direction, vc_index, flit in self._flit_events[when]:
                if flit.packet.packet_id in doomed:
                    router = self.routers[router_id]
                    router.incoming_in_flight -= 1
                    self._restore_upstream_credit(router, direction, vc_index)
                    for fn in purged:
                        fn(flit, cycle)
                else:
                    kept_events.append((router_id, direction, vc_index, flit))
            if kept_events:
                self._flit_events[when] = kept_events
            else:
                del self._flit_events[when]
        # Buffered flits: filter each touched VC and restore one
        # upstream credit per removed flit.
        for router in self.routers:
            touched = [
                vc
                for vc in router._occupied
                if any(f.packet.packet_id in doomed for f in vc.flits)
            ]
            for vc in touched:
                kept_pairs = []
                for flit, arrival in zip(vc.flits, vc.arrivals):
                    if flit.packet.packet_id in doomed:
                        self._restore_upstream_credit(
                            router, vc.port_direction, vc.vc_index
                        )
                        for fn in purged:
                            fn(flit, cycle)
                    else:
                        kept_pairs.append((flit, arrival))
                vc.flits.clear()
                vc.arrivals.clear()
                for flit, arrival in kept_pairs:
                    vc.flits.append(flit)
                    vc.arrivals.append(arrival)
                router.head_version += 1
                if not vc.flits:
                    router._occupied.pop(vc, None)
            # Release every allocation a doomed packet still holds.
            # This sweep is keyed on ``vc.owner_packet``, NOT on the
            # buffered flits: a mid-packet VC can be ACTIVE with an
            # empty buffer (every arrived flit already forwarded, the
            # rest still in flight) — such a VC appears in neither
            # ``_occupied`` nor ``touched``, but its route/out_vc and
            # the downstream VC ownership still belong to the purged
            # packet and would otherwise leak.  A surviving follow-on
            # packet's head restarts from VA.
            released = False
            for port in router.input_ports.values():
                for vc in port.vcs:
                    if vc.state is VCState.IDLE or vc.owner_packet not in doomed:
                        continue
                    self._release_grant(router, vc)
                    router._live_vcs -= 1
                    vc.reset_for_next_packet()
                    router.head_version += 1
                    released = True
                    if vc.flits:
                        router._activate_front(vc, cycle)
            if touched or released:
                # Conservative: surviving fronts may have become
                # eligible by the purge.
                self._wake_allocators(router, cycle)
        # Flits queued for ejection never reach their NI.
        for when in list(self._eject_events):
            kept_ejects = []
            for node, flit in self._eject_events[when]:
                if flit.packet.packet_id in doomed:
                    for fn in purged:
                        fn(flit, cycle)
                else:
                    kept_ejects.append((node, flit))
            if kept_ejects:
                self._eject_events[when] = kept_ejects
            else:
                del self._eject_events[when]
        # Per-packet accounting, then active-set / PG bookkeeping for
        # routers the purge emptied.
        for packet in doomed.values():
            self.stats.record_drop(packet, cycle, self.dead_routers)
            for fn in self._subscribers["dropped"]:
                fn(packet, cycle)
        for router, was_busy in zip(self.routers, pre_busy):
            if router._occupied:
                continue
            self._active_routers.discard(router.router_id)
            if was_busy and not router.incoming_in_flight and not router._live_vcs:
                self.policy.on_router_emptied(router.router_id)

