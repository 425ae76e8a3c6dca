"""Tests for the power-gating controller FSM."""

import pytest

from repro.powergate import PGState, PowerGateController


def make(wakeup=8, timeout=4):
    return PowerGateController(0, wakeup_latency=wakeup, timeout=timeout)


def idle_step(ctl, cycle):
    ctl.step(cycle, datapath_empty=True, node_wants_router=False)


class TestSleep:
    def test_sleeps_after_timeout_idle_cycles(self):
        ctl = make(timeout=4)
        for c in range(3):
            idle_step(ctl, c)
            assert ctl.state is PGState.ACTIVE
        idle_step(ctl, 3)
        assert ctl.state is PGState.OFF
        assert ctl.last_sleep_cycle == 4
        assert ctl.on_cycles == 4

    def test_busy_datapath_resets_idle_count(self):
        ctl = make(timeout=4)
        for c in range(3):
            idle_step(ctl, c)
        ctl.step(3, datapath_empty=False, node_wants_router=False)
        for c in range(4, 7):
            idle_step(ctl, c)
            assert ctl.state is PGState.ACTIVE
        idle_step(ctl, 7)
        assert ctl.state is PGState.OFF

    def test_ni_demand_prevents_sleep(self):
        ctl = make(timeout=2)
        for c in range(20):
            ctl.step(c, datapath_empty=True, node_wants_router=True)
        assert ctl.state is PGState.ACTIVE

    def test_wu_signal_prevents_sleep(self):
        ctl = make(timeout=2)
        for c in range(20):
            ctl.request_wakeup(c)
            idle_step(ctl, c)
        assert ctl.state is PGState.ACTIVE

    def test_minimum_timeout_enforced(self):
        # Paper: at least two cycles so in-flight flits land safely.
        with pytest.raises(ValueError):
            make(timeout=1)

    def test_forewarning_window_blocks_sleep(self):
        ctl = make(timeout=2)
        ctl.request_wakeup(0, expectation_window=10)
        for c in range(10):
            idle_step(ctl, c)
            assert ctl.state is PGState.ACTIVE, f"slept at {c}"
        # Window expired at cycle 10; idle count is already large.
        idle_step(ctl, 11)
        assert ctl.state is PGState.OFF

    def test_busy_datapath_clears_stale_forewarning(self):
        ctl = make(timeout=2)
        ctl.request_wakeup(0, expectation_window=100)
        ctl.step(1, datapath_empty=False, node_wants_router=False)
        assert ctl.expect_until == -1
        for c in range(2, 5):
            idle_step(ctl, c)
        assert ctl.state is PGState.OFF


class TestWakeup:
    def sleep_now(self, ctl, start=0):
        for c in range(start, start + ctl.timeout):
            idle_step(ctl, c)
        assert ctl.state is PGState.OFF
        return start + ctl.timeout

    def test_wakeup_takes_wakeup_latency_cycles(self):
        ctl = make(wakeup=8, timeout=4)
        c = self.sleep_now(ctl)
        ctl.request_wakeup(c)
        assert ctl.state is PGState.WAKING
        for cc in range(c, c + 8):
            idle_step(ctl, cc)
            assert not ctl.is_available
        idle_step(ctl, c + 8)
        assert ctl.state is PGState.ACTIVE

    def test_pg_asserted_while_waking(self):
        # Neighbors must see the router unavailable until fully awake.
        ctl = make(wakeup=5)
        c = self.sleep_now(ctl)
        ctl.request_wakeup(c)
        assert not ctl.is_available
        assert ctl.is_waking

    def test_available_by_eta(self):
        ctl = make(wakeup=8)
        c = self.sleep_now(ctl)
        ctl.request_wakeup(c)
        assert not ctl.available_by(c + 7)
        assert ctl.available_by(c + 8)
        assert ctl.available_by(c + 100)

    def test_available_by_when_off_is_false(self):
        ctl = make()
        c = self.sleep_now(ctl)
        assert not ctl.available_by(c + 10_000)

    def test_available_by_when_active_is_true(self):
        ctl = make()
        assert ctl.available_by(0)

    def test_duplicate_wakeup_requests_do_not_extend(self):
        ctl = make(wakeup=8)
        c = self.sleep_now(ctl)
        ctl.request_wakeup(c)
        first_wake_at = ctl.wake_at
        ctl.request_wakeup(c + 3)
        assert ctl.wake_at == first_wake_at
        assert ctl.wake_events == 1

    def test_wake_event_counted_once_per_off_period(self):
        ctl = make(wakeup=2, timeout=2)
        c = self.sleep_now(ctl)
        ctl.request_wakeup(c)
        for cc in range(c, c + 3):
            idle_step(ctl, cc)
        assert ctl.state is PGState.ACTIVE
        assert ctl.wake_events == 1


class TestAccounting:
    def test_on_cycles_count_active_and_waking_steps(self):
        ctl = make(wakeup=4, timeout=2)
        cycles = 100
        for c in range(cycles):
            if c % 20 == 10:
                ctl.request_wakeup(c)
            idle_step(ctl, c)
        # Asleep at 2, then each wake at 10, 30, ... buys 4 WAKING
        # steps, 1 ACTIVE step and a 2-step timeout: 2 + 5 * 7 on
        # cycles, the other 63 OFF.
        assert ctl.wake_events == 5
        assert ctl.on_cycles == 2 + 5 * 7

    def test_off_steps_are_not_counted(self):
        ctl = make(wakeup=2, timeout=2)
        for c in range(2):
            idle_step(ctl, c)
        assert ctl.state is PGState.OFF
        for c in range(2, 12):
            idle_step(ctl, c)
        assert ctl.on_cycles == 2
        ctl.request_wakeup(12)
        assert ctl.last_sleep_cycle == 2

    def test_gated_fraction(self):
        # The gated fraction is the remainder of the on steps: asleep
        # after the 2-step timeout, OFF for the other 8 of 10 cycles.
        ctl = make(wakeup=2, timeout=2)
        cycles = 10
        for c in range(cycles):
            idle_step(ctl, c)
        gated = 1 - ctl.on_cycles / cycles
        assert 0.0 < gated < 1.0
        assert gated == pytest.approx(0.8)
