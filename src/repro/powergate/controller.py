"""Per-router power-gating controller.

Implements the always-on controller of the paper's Figure 1/2: it
monitors the emptiness of the router datapath and the wakeup (WU)
signals from neighbors and the NI, asserts the sleep signal after a
timeout, and drives the PG handshake signal that neighbors use to mark
output ports unavailable in their switch allocators.

States:

* ``ACTIVE`` — router powered on, forwarding packets.
* ``OFF`` — supply gated; the router blocks every path through it.
* ``WAKING`` — sleep signal de-asserted, supply charging for
  ``wakeup_latency`` cycles; PG stays asserted until fully awake
  (Sec. 2.2), so the router is still unavailable.

Power Punch additions: a punch signal passing through (or targeting)
the router both wakes it and *forewarns* it — the controller learns a
packet will arrive within the punch horizon, so it refuses to sleep
(``expect_until``), filtering short idle periods more accurately than
the timeout alone (Sec. 4.3).

Event-driven operation (active-set kernel): a controller that is
steadily gated off has a trivial per-cycle step — it only clears
``wu_seen`` — so the scheme layer stops stepping it and relies on
:meth:`request_wakeup` to bring it back.  Every other state is stepped
every cycle, by every stepper, so the controller counts only its
``on_cycles`` (ACTIVE or WAKING steps) and ``wake_events``: its OFF
time is the run's cycles less ``on_cycles``, and no OFF clock is kept.
One optional hook re-arms the skip:

* ``wake_hook`` — called with the router id whenever the controller
  leaves the OFF state, so the scheme can re-arm per-cycle stepping.

With the hook left at ``None`` (unit tests) the controller behaves
exactly as if stepped every cycle; the full-scan reference
(``repro.noc.reference``) keeps the hook and simply steps every
controller every cycle.
"""

from __future__ import annotations

import enum
from typing import Optional

#: Wakeup retry protocol (see :meth:`PowerGateController.request_wakeup`):
#: a request swallowed by a ``wakeup_fail`` fault while the router is
#: OFF is re-issued ``RETRY_TIMEOUT`` cycles later (about twice the
#: default wakeup latency), then with doubling backoff bounded by
#: ``RETRY_CAP``.
RETRY_TIMEOUT = 16
RETRY_CAP = 128


class PGState(enum.Enum):
    """Router power state: ACTIVE, OFF or WAKING."""
    ACTIVE = "active"
    OFF = "off"
    WAKING = "waking"


class PowerGateController:
    """Always-on power-gating controller for one router."""

    __slots__ = (
        "router_id",
        "wakeup_latency",
        "timeout",
        "state",
        "idle_cycles",
        "wake_at",
        "expect_until",
        "wu_seen",
        "faults",
        "wake_hook",
        "stats",
        "retry_at",
        "retry_backoff",
        "on_cycles",
        "wake_events",
        "last_sleep_cycle",
    )

    def __init__(
        self,
        router_id: int,
        wakeup_latency: int = 8,
        timeout: int = 4,
    ) -> None:
        if wakeup_latency < 1:
            raise ValueError("wakeup_latency must be positive")
        if timeout < 2:
            # The paper requires a minimum two-cycle timeout so flits
            # that already left upstream routers land safely.
            raise ValueError("timeout must be at least 2 cycles")
        self.router_id = router_id
        self.wakeup_latency = wakeup_latency
        self.timeout = timeout
        self.state = PGState.ACTIVE
        self.idle_cycles = 0
        self.wake_at: Optional[int] = None
        #: Punch-derived forewarning: do not sleep before this cycle.
        self.expect_until = -1
        #: A WU/punch signal was seen this cycle (resets idle counting).
        self.wu_seen = False
        #: Optional :class:`repro.noc.faults.FaultInjector` consulted on
        #: every incoming wakeup request.
        self.faults = None
        #: Active-set hook (see module docstring): ``wake_hook(router_id)``
        #: fires whenever the controller leaves OFF.
        self.wake_hook = None
        #: Optional :class:`repro.noc.stats.NetworkStats` mirror for the
        #: retry counter (wired by the scheme layer so campaign dumps
        #: see retries without walking every controller).
        self.stats = None
        #: Pending wakeup re-issue cycle (None = no retry armed) and its
        #: current backoff (see ``RETRY_TIMEOUT`` / ``RETRY_CAP``).
        self.retry_at: Optional[int] = None
        self.retry_backoff = 0
        # --- statistics -------------------------------------------------
        #: Steps taken ACTIVE or WAKING; OFF time is the remainder.
        self.on_cycles = 0
        self.wake_events = 0
        #: First cycle of the current (or last) off period.
        self.last_sleep_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_available(self) -> bool:
        """PG signal de-asserted: packets may be forwarded here."""
        return self.state is PGState.ACTIVE

    def available_by(self, by_cycle: int) -> bool:
        """Whether the router will be powered on at ``by_cycle``."""
        if self.state is PGState.ACTIVE:
            return True
        if self.state is PGState.WAKING:
            return self.wake_at <= by_cycle
        return False

    @property
    def is_off(self) -> bool:
        """Whether the router is gated off."""
        return self.state is PGState.OFF

    def detach(self) -> None:
        """End of the run: drop the scheme's hooks, so nothing here
        points back at the scheme."""
        self.wake_hook = self.stats = self.faults = None

    @property
    def is_waking(self) -> bool:
        """Whether the router is mid-wakeup (PG still asserted)."""
        return self.state is PGState.WAKING

    # ------------------------------------------------------------------
    # Wakeup / forewarning inputs
    # ------------------------------------------------------------------
    def request_wakeup(self, cycle: int, expectation_window: int = 0) -> None:
        """A WU or punch signal reaches this controller at ``cycle``.

        Wakes the router if it is gated off, resets idle counting, and
        (for Power Punch) extends the forewarning window during which
        the router refuses to sleep.

        Edge case: a wakeup arriving in the very cycle the sleep
        decision was made (``step`` ran earlier this cycle and chose to
        gate, but the supply is only cut from the *next* cycle onward)
        must not be charged the full wakeup latency — the sleep is
        revoked and the router stays ACTIVE.  Without this, the wakeup
        was effectively lost: the router paid a pointless
        sleep-and-wake round trip for a negative-length off period.
        """
        if self.faults is not None:
            action, delay = self.faults.wakeup_disposition(self.router_id, cycle)
            if action == "fail":
                if self.state is PGState.OFF and self.retry_at is None:
                    # The request is gone and the router stays dark:
                    # without a retry the packet behind it waits for
                    # the next organic WU, which may never come.  Arm
                    # the re-issue deadline and (active kernel) keep
                    # the controller stepping so the deadline fires.
                    self.retry_at = cycle + RETRY_TIMEOUT
                    self.retry_backoff = RETRY_TIMEOUT
                    if self.wake_hook is not None:
                        self.wake_hook(self.router_id)
                return
            if action == "delay":
                cycle += delay
        # A request that got through supersedes any pending retry.
        self.retry_at = None
        self.retry_backoff = 0
        self.wu_seen = True
        if expectation_window > 0:
            expect = cycle + expectation_window
            if expect > self.expect_until:
                self.expect_until = expect
        if self.state is PGState.OFF:
            if self.last_sleep_cycle is not None and cycle < self.last_sleep_cycle:
                # The sleep decided earlier this cycle has not taken
                # effect yet: cancel it instead of waking from scratch.
                self.state = PGState.ACTIVE
                self.idle_cycles = 0
                self.last_sleep_cycle = None
                if self.wake_hook is not None:
                    self.wake_hook(self.router_id)
                return
            self.state = PGState.WAKING
            self.wake_at = cycle + self.wakeup_latency
            self.wake_events += 1
            if self.wake_hook is not None:
                self.wake_hook(self.router_id)

    def _fire_retry(self, cycle: int) -> None:
        """Re-issue a wakeup request the fault injector swallowed.

        Each re-issue draws a fresh disposition; a repeated loss
        re-arms the deadline with doubled (capped) backoff, so a
        high-rate ``wakeup_fail`` window costs O(log) retries instead
        of a retry storm, while a recovered injector gets the router
        waking within one backoff period.  Only *lost* requests retry:
        a ``wakeup_delay`` fault delivers late but does deliver, so the
        delayed request itself clears the pending retry.
        """
        self.retry_at = None
        backoff = min(self.retry_backoff * 2, RETRY_CAP)
        if self.stats is not None:
            self.stats.wakeup_retries += 1
        self.request_wakeup(cycle, 0)
        if self.state is PGState.OFF and self.retry_at is not None:
            # Lost again: the fail path re-armed with the base timeout;
            # restore the exponential schedule.
            self.retry_backoff = backoff
            self.retry_at = cycle + backoff

    # ------------------------------------------------------------------
    # Per-cycle FSM update
    # ------------------------------------------------------------------
    def step(self, cycle: int, datapath_empty: bool, node_wants_router: bool) -> None:
        """Advance the FSM one cycle.

        ``datapath_empty`` is the router's sleep precondition;
        ``node_wants_router`` is the NI-side WU (a ready packet is
        checking availability or a stream is in flight).
        """
        if self.state is PGState.OFF:
            self.wu_seen = False
            if self.retry_at is not None and cycle >= self.retry_at:
                self._fire_retry(cycle)
            return
        self.on_cycles += 1
        if self.state is PGState.WAKING:
            if cycle >= self.wake_at:
                self.state = PGState.ACTIVE
                self.wake_at = None
                self.idle_cycles = 0
            self.wu_seen = False
            return
        busy = (not datapath_empty) or node_wants_router or self.wu_seen
        self.wu_seen = False
        if busy:
            self.idle_cycles = 0
            if not datapath_empty:
                # A buffered flit fulfills (or supersedes) the punch
                # forewarning; punches for packets still on their way
                # re-arm the window every cycle, so clearing it here
                # only releases stale expectations.
                self.expect_until = -1
            return
        self.idle_cycles += 1
        if self.idle_cycles >= self.timeout and cycle > self.expect_until:
            self.state = PGState.OFF
            self.idle_cycles = 0
            # The router is off from the *next* cycle onward.
            self.last_sleep_cycle = cycle + 1
