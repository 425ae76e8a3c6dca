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
steadily gated off has a trivial per-cycle step — it only accumulates
``off_cycles`` and clears ``wu_seen`` — so the scheme layer stops
stepping it and relies on :meth:`request_wakeup` to bring it back.
Every other state is stepped every cycle.  Two optional hooks make the
OFF skip cycle-exact:

* ``clock`` — a callable returning the last cycle whose controller-step
  phase has completed.  While OFF and un-stepped, the skipped
  ``off_cycles`` are accounted lazily against this clock (the
  :attr:`off_cycles` property folds the accrual in, and
  :meth:`request_wakeup` settles it before any state change), so
  counters read identically to per-cycle stepping at any observation
  point.
* ``wake_hook`` — called with the router id whenever the controller
  leaves the OFF state, so the scheme can re-arm per-cycle stepping.

With the hooks left at ``None`` (unit tests) the controller behaves
exactly as if stepped every cycle; the full-scan reference
(``repro.noc.reference``) keeps the hooks and simply steps every
controller every cycle, so the lazy clock never owes it anything.
"""

from __future__ import annotations

import enum
from typing import Optional


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
        "clock",
        "wake_hook",
        "stats",
        "retry_timeout",
        "retry_cap",
        "retry_at",
        "retry_backoff",
        "wakeup_retries",
        "_accounted_through",
        "active_cycles",
        "_off_cycles",
        "waking_cycles",
        "wake_events",
        "sleep_events",
        "cancelled_sleeps",
        "faulted_wakeups",
        "last_sleep_cycle",
        "off_period_lengths_sum",
    )

    def __init__(
        self,
        router_id: int,
        wakeup_latency: int = 8,
        timeout: int = 4,
        retry_timeout: int = 16,
        retry_cap: int = 128,
    ) -> None:
        if wakeup_latency < 1:
            raise ValueError("wakeup_latency must be positive")
        if timeout < 2:
            # The paper requires a minimum two-cycle timeout so flits
            # that already left upstream routers land safely.
            raise ValueError("timeout must be at least 2 cycles")
        if retry_timeout < 1:
            raise ValueError("retry_timeout must be positive")
        if retry_cap < retry_timeout:
            raise ValueError("retry_cap must be >= retry_timeout")
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
        #: Active-set hooks (see module docstring): ``clock`` returns the
        #: last cycle whose step phase completed; ``wake_hook(router_id)``
        #: fires whenever the controller leaves OFF.
        self.clock = None
        self.wake_hook = None
        #: Optional :class:`repro.noc.stats.NetworkStats` mirror for the
        #: retry counter (wired by the scheme layer so campaign dumps
        #: see retries without walking every controller).
        self.stats = None
        #: Wakeup retry protocol (see :meth:`request_wakeup`): a request
        #: swallowed by a ``wakeup_fail`` fault while the router is OFF
        #: is re-issued ``retry_timeout`` cycles later, then with
        #: doubling backoff bounded by ``retry_cap``.  ``retry_at`` is
        #: the pending re-issue cycle (None = no retry armed).
        self.retry_timeout = retry_timeout
        self.retry_cap = retry_cap
        self.retry_at: Optional[int] = None
        self.retry_backoff = 0
        #: Last cycle whose step effects were applied while OFF (real or
        #: lazily accounted); only meaningful in the OFF state.
        self._accounted_through = -1
        # --- statistics -------------------------------------------------
        self.active_cycles = 0
        self._off_cycles = 0
        self.waking_cycles = 0
        self.wake_events = 0
        self.sleep_events = 0
        #: Sleep decisions revoked by a wakeup arriving in the decision
        #: cycle itself (the supply was never actually cut).
        self.cancelled_sleeps = 0
        #: Wakeup requests lost or delayed by the fault injector.
        self.faulted_wakeups = 0
        #: Wakeup requests re-issued by the retry/backoff protocol.
        self.wakeup_retries = 0
        self.last_sleep_cycle: Optional[int] = None
        self.off_period_lengths_sum = 0

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

    @property
    def off_cycles(self) -> int:
        """Cycles spent gated off, including lazily accounted ones."""
        counted = self._off_cycles
        if self.state is PGState.OFF and self.clock is not None:
            owed = self.clock() - self._accounted_through
            if owed > 0:
                counted += owed
        return counted

    def _settle_off_accounting(self) -> None:
        """Fold skipped OFF-state step cycles into the real counter."""
        if self.state is PGState.OFF and self.clock is not None:
            through = self.clock()
            owed = through - self._accounted_through
            if owed > 0:
                self._off_cycles += owed
                self._accounted_through = through

    def detach(self) -> None:
        """End of the run: fold the lazily accounted OFF cycles into the
        counter and drop the scheme's hooks, so ``off_cycles`` reads as
        it did and nothing here points back at the scheme."""
        self._off_cycles = self.off_cycles
        self.clock = self.wake_hook = self.stats = self.faults = None

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
        sleep-and-wake round trip and the off-period statistics were
        corrupted by a negative-length off period.
        """
        self._settle_off_accounting()
        if self.faults is not None:
            action, delay = self.faults.wakeup_disposition(self.router_id, cycle)
            if action == "fail":
                self.faulted_wakeups += 1
                if self.state is PGState.OFF and self.retry_at is None:
                    # The request is gone and the router stays dark:
                    # without a retry the packet behind it waits for
                    # the next organic WU, which may never come.  Arm
                    # the re-issue deadline and (active kernel) keep
                    # the controller stepping so the deadline fires.
                    self.retry_at = cycle + self.retry_timeout
                    self.retry_backoff = self.retry_timeout
                    if self.wake_hook is not None:
                        self.wake_hook(self.router_id)
                return
            if action == "delay":
                self.faulted_wakeups += 1
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
                self.sleep_events -= 1
                self.cancelled_sleeps += 1
                self.last_sleep_cycle = None
                if self.wake_hook is not None:
                    self.wake_hook(self.router_id)
                return
            self.state = PGState.WAKING
            self.wake_at = cycle + self.wakeup_latency
            self.wake_events += 1
            if self.last_sleep_cycle is not None:
                off_len = cycle - self.last_sleep_cycle
                self.off_period_lengths_sum += off_len
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
        backoff = min(self.retry_backoff * 2, self.retry_cap)
        self.wakeup_retries += 1
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
        if self.state is PGState.WAKING:
            self.waking_cycles += 1
            if cycle >= self.wake_at:
                self.state = PGState.ACTIVE
                self.wake_at = None
                self.idle_cycles = 0
            self.wu_seen = False
            return
        if self.state is PGState.OFF:
            self._off_cycles += 1
            self._accounted_through = cycle
            self.wu_seen = False
            if self.retry_at is not None and cycle >= self.retry_at:
                self._fire_retry(cycle)
            return

        self.active_cycles += 1
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
            self.sleep_events += 1
            # The router is off from the *next* cycle onward.
            self.last_sleep_cycle = cycle + 1
            # OFF-step accounting (real or lazy) starts next cycle.
            self._accounted_through = cycle

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def gated_fraction(self) -> float:
        """Fraction of lifetime cycles spent gated off."""
        total = self.active_cycles + self.off_cycles + self.waking_cycles
        return self.off_cycles / total if total else 0.0

    def mean_off_period(self) -> float:
        """Average length of completed off periods, in cycles."""
        return (
            self.off_period_lengths_sum / self.wake_events if self.wake_events else 0.0
        )
