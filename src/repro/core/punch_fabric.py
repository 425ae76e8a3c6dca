"""Cycle-level punch-signal fabric.

The paper's punch signals are narrow, always-on control wires running
alongside every mesh link (Fig. 5).  Each cycle a router's power-gating
controller merges the wakeup signals it generates locally with the
punch signals arriving from neighbors and relays the result — purely
combinationally, so a punch crosses one link per cycle with **zero
contention delay** (Sec. 4.1 step 5).

This module simulates the fabric at the information level: each link
carries the *set of targeted routers* the encoded punch signal denotes.
:mod:`repro.core.punch_encoding` separately proves that these sets fit
into the paper's 5-bit (X) and 2-bit (Y) encodings.

Every punch that reaches a controller — as final target or as a relay
hop — wakes that router if it is gated off and forewarns it that a
packet arrives within the punch horizon (implicit notification of
intermediate routers, Sec. 4.1 step 2).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Set, Tuple

from ..noc.errors import SimulationError
from ..noc.routing import XYRouting

#: Signature of the controller-side punch sink: (router_id, cycle).
PunchSink = Callable[[int, int], None]


class PunchFabric:
    """Contention-free multi-hop wakeup-signal network."""

    def __init__(self, routing: XYRouting, on_punch: PunchSink) -> None:
        self.routing = routing
        self.num_nodes = routing.topology.num_nodes
        #: Controller callback invoked for every router a punch touches.
        self.on_punch = on_punch
        #: Targets to be processed by each router at the *next* delivery.
        self._pending: Dict[int, Set[int]] = {}
        #: Punches a fault delayed, keyed by their new delivery cycle.
        self._delayed: Dict[int, List[Tuple[int, Set[int]]]] = {}
        #: Optional :class:`repro.noc.faults.FaultInjector` consulted at
        #: every per-router punch-processing step.
        self.faults = None
        #: Memo of the relay decomposition per (router, target set).
        #: XY routing is static, and a head flit stalled (or streaming)
        #: at the same router regenerates the identical punch every
        #: cycle, so the split into locally-delivered targets and
        #: per-neighbor relay sets repeats constantly.  Behavior-exact
        #: (the full-scan reference swaps in a memo that forgets, see
        #: ``repro.noc.reference``).
        self._route_cache: Dict[Tuple[int, frozenset], tuple] = {}
        # --- statistics ---------------------------------------------------
        #: Link-cycles on which a (merged) punch signal was transmitted;
        #: feeds the punch-propagation energy overhead of Fig. 11.
        self.link_transmissions = 0

    # ------------------------------------------------------------------
    def send_local(self, router: int, targets: Iterable[int], cycle: int) -> None:
        """Process locally generated wakeup targets at ``router``.

        The local controller reacts in the same cycle (the punch wires
        are driven combinationally from the router's own wakeup
        requirements); relayed targets reach each neighbor one cycle
        later.
        """
        if self.faults is None:
            self._relay(((router, targets),), cycle)
        else:
            self._process(router, targets, cycle)

    def deliver(self, cycle: int) -> None:
        """Deliver last cycle's relayed punches to their next routers."""
        delayed = self._delayed.pop(cycle, None)
        if delayed:
            for router, targets in delayed:
                # Fault-exempt: a punch suffers at most one fault per hop,
                # otherwise a delay/dup rule at rate 1.0 would defer (or
                # duplicate) the same punch forever.
                self._process(router, targets, cycle, faultable=False)
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        if self.faults is None:
            self._relay(pending.items(), cycle)
        else:
            for router, targets in pending.items():
                self._process(router, targets, cycle)

    def close(self) -> None:
        """End of the run: drop the controller sink and everything
        queued or memoized; the counters stay readable."""
        self.on_punch = self.faults = None
        self._pending = {}
        self._delayed = {}
        self._route_cache = {}

    def pending_work(self) -> int:
        """Punch deliveries still queued (pending relays + delayed)."""
        return len(self._pending) + sum(len(v) for v in self._delayed.values())

    # ------------------------------------------------------------------
    def _process(
        self, router: int, targets: Iterable[int], cycle: int, faultable: bool = True
    ) -> None:
        """Wake ``router`` and relay every non-final target onward."""
        if self.faults is not None and faultable:
            action, delay = self.faults.punch_disposition(router, cycle)
            if action == "drop":
                # The punch vanishes at this hop: it neither wakes this
                # router nor relays onward.
                return
            if action == "delay":
                self._delayed.setdefault(cycle + delay, []).append(
                    (router, set(targets))
                )
                return
            if action == "dup":
                # Processed normally now, and again next cycle.
                self._delayed.setdefault(cycle + 1, []).append(
                    (router, set(targets))
                )
        self._relay(((router, targets),), cycle)

    def _relay(self, punches: Iterable[Tuple[int, Iterable[int]]], cycle: int) -> None:
        """Wake each punched router and queue its non-final targets one
        hop on.  A whole wavefront is one call (the loop is in here), so
        a fault-free hop costs no call layer of its own."""
        cache = self._route_cache
        on_punch = self.on_punch
        pending = self._pending
        for router, targets in punches:
            if type(targets) is not frozenset:
                targets = frozenset(targets)
            key = (router, targets)
            entry = cache.get(key)
            if entry is None:
                entry = cache[key] = self._decompose(router, targets, cycle)
            delivered, relays = entry
            if delivered or relays:
                # Implicit notification: any punch arriving at or
                # passing through a router wakes it (Sec. 4.1 step 2).
                on_punch(router, cycle)
            for nxt, tset in relays:
                self.link_transmissions += 1
                bucket = pending.get(nxt)
                if bucket is None:
                    # Frozensets flow through ``_pending`` unchanged
                    # (and un-copied) until a merge is needed, so the
                    # next hop's memo key needs no conversion either.
                    pending[nxt] = tset
                else:
                    pending[nxt] = bucket | tset

    def _decompose(
        self, router: int, targets: Iterable[int], cycle: int
    ) -> Tuple[bool, Tuple[Tuple[int, frozenset], ...]]:
        """Split ``targets`` at ``router`` into (whether one is delivered
        here, per-next-hop relay target sets) — a pure function of the
        static XY routing, safe to memoize."""
        delivered = False
        outgoing: Dict[int, Set[int]] = {}
        for target in targets:
            if target == router:
                delivered = True
                continue
            nxt = self.routing.next_hop(router, target)
            if nxt is None:
                raise SimulationError(
                    f"punch relay toward {target} has no next hop",
                    cycle=cycle, router=router,
                )
            outgoing.setdefault(nxt, set()).add(target)
        return delivered, tuple(
            (nxt, frozenset(tset)) for nxt, tset in outgoing.items()
        )
