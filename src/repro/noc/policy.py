"""Power-policy interface seen by the NoC substrate.

The NoC simulator is power-scheme agnostic: routers consult a
:class:`PowerPolicy` for neighbor availability and notify it of the
events power-gating schemes care about (switch-allocation stalls caused
by gated-off routers, message creation and injection checks at network
interfaces, flits heading toward or draining out of a router).  The
concrete schemes live in :mod:`repro.powergate` and
:mod:`repro.core.schemes`; the base class itself is the always-on
behaviour every network defaults to (``NoPG`` is its named baseline).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .packet import Packet


class PowerPolicy:
    """Base policy: every router is always powered on (No-PG)."""

    name = "No-PG"

    def attach(self, network: "Network") -> None:
        """Called once when the network is built, after its fault
        injector (``network.faults``, None when fault-free) and before
        its invariant checker: the robustness layer is config, so a
        power-gated scheme wires the injector into its punch fabric and
        PG controllers here; the always-on baseline has no wakeup
        machinery to fault."""
        self.network = network

    def detach(self) -> None:
        """Called once by :meth:`Network.close`: drop the back-pointer
        (and, in subclasses, every hook bound to this policy) while
        keeping the run's counters readable."""
        self.network = None

    # ------------------------------------------------------------------
    # Queries from routers / NIs
    # ------------------------------------------------------------------
    def is_router_available(self, router_id: int) -> bool:
        """Whether packets may be forwarded to ``router_id`` this cycle.

        A gated-off or waking router asserts its PG signal and is
        unavailable (paper Sec. 2.2).
        """
        return True

    def is_router_available_by(self, router_id: int, by_cycle: int) -> bool:
        """Whether ``router_id`` will accept a flit landing at ``by_cycle``.

        Switch allocation happens ``Tst + Tlink`` cycles before the flit
        is actually buffered downstream, so a waking router whose wakeup
        completes before the flit lands may already be used — this is
        what makes a punch signal sent ``H`` hops ahead hide exactly
        ``H * Trouter`` cycles of wakeup latency (paper Sec. 3).
        """
        return True

    # ------------------------------------------------------------------
    # Event notifications
    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        """Called at the start of every simulated cycle."""

    def end_cycle(self, cycle: int) -> None:
        """Called at the end of every simulated cycle."""

    def note_blocked(
        self, router_id: int, next_router: int, packet: "Packet", cycle: int
    ) -> None:
        """A flit at ``router_id`` is stalled because ``next_router`` is
        gated off (or still waking).  Conventional schemes assert the
        WU handshake signal here."""

    def on_message_created(self, node: int, packet: "Packet", cycle: int) -> None:
        """A message entered the NI (start of NI delay).  Power Punch
        exploits this as *slack 1* (Sec. 4.2)."""

    def on_injection_check(self, node: int, packet: "Packet", cycle: int) -> None:
        """The NI is checking local-router availability for ``packet``
        (end of NI delay).  Conventional PG and PowerPunch-Signal issue
        their injection-side wakeups here."""

    def early_local_notice(self, node: int, cycle: int) -> None:
        """The node knows a packet *will* be generated (e.g. an L2 or
        directory access just began) but not yet its destination.
        Power Punch exploits this as *slack 2* (Sec. 4.2) to wake the
        local router early."""

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def pending_work(self) -> int:
        """Packets held by policy-owned transport (e.g. a bypass ring).

        Counted by :meth:`Network.is_drained` so drain loops wait for
        auxiliary networks too.
        """
        return 0

    def gating_activity(self, cycles: int, num_routers: int) -> dict:
        """This policy's fields of :class:`~repro.noc.stats.Activity`
        after ``cycles`` cycles: here every router is on every cycle."""
        return {
            "on_cycles": cycles * num_routers,
            "off_cycles": 0,
            "wake_events": 0,
            "punch_transmissions": 0,
            "gated": False,
        }

    def router_is_off(self, router_id: int) -> bool:
        """Whether the router is currently gated off (for power stats)."""
        return False

    def router_is_waking(self, router_id: int) -> bool:
        """Whether the router is mid-wakeup (for power stats)."""
        return False

