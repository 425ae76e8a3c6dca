"""Edge-case tests for the PG controller and scheme interactions."""

import pytest

from repro.core import ConvOptPG, PowerPunchPG, PowerPunchSignal
from repro.noc import Network, NoCConfig, VirtualNetwork, control_packet
from repro.powergate import PGState, PowerGateController


class TestControllerEdgeCases:
    def test_wakeup_request_during_waking_is_idempotent(self):
        ctl = PowerGateController(0, wakeup_latency=8, timeout=2)
        for c in range(2):
            ctl.step(c, True, False)
        assert ctl.is_off
        ctl.request_wakeup(2)
        for c in range(2, 6):
            ctl.request_wakeup(c)
            ctl.step(c, True, False)
        assert ctl.wake_events == 1
        assert ctl.wake_at == 10

    def test_active_request_only_resets_idle(self):
        ctl = PowerGateController(0, wakeup_latency=8, timeout=4)
        ctl.step(0, True, False)
        assert ctl.idle_cycles == 1
        ctl.request_wakeup(1)
        ctl.step(1, True, False)
        assert ctl.idle_cycles == 0
        assert ctl.state is PGState.ACTIVE

    def test_expectation_window_only_grows(self):
        ctl = PowerGateController(0)
        ctl.request_wakeup(0, expectation_window=20)
        ctl.request_wakeup(1, expectation_window=2)
        assert ctl.expect_until == 20

    def test_wakeup_latency_one(self):
        ctl = PowerGateController(0, wakeup_latency=1, timeout=2)
        for c in range(2):
            ctl.step(c, True, False)
        ctl.request_wakeup(2)
        ctl.step(2, True, False)
        assert ctl.is_waking
        ctl.step(3, True, False)
        assert ctl.is_available

    def test_invalid_wakeup_latency(self):
        with pytest.raises(ValueError):
            PowerGateController(0, wakeup_latency=0)

    def test_wakeup_on_sleep_decision_cycle_cancels_sleep(self):
        """Regression: a wakeup requested in the same cycle the sleep
        decision is made (e.g. an end-of-cycle punch after the FSM step)
        must revoke the sleep, not pay a full gate-off/wake round trip."""
        ctl = PowerGateController(0, wakeup_latency=8, timeout=2)
        for c in range(2):
            ctl.step(c, True, False)
        # step(1) decided to sleep: gated from cycle 2 onward.
        assert ctl.is_off
        assert ctl.last_sleep_cycle == 2
        ctl.request_wakeup(1)  # same cycle as the decision
        assert ctl.state is PGState.ACTIVE
        assert ctl.wake_events == 0
        assert ctl.last_sleep_cycle is None
        # The wakeup signal keeps the router busy for one cycle, then
        # the next idle stretch can still sleep normally.
        for c in range(2, 5):
            ctl.step(c, True, False)
        assert ctl.is_off

    def test_cancelled_sleep_then_genuine_wake(self):
        """Regression: before the fix the cancelled sleep was charged as
        an off period of negative length; the next real off period is
        the only one that counts a wake."""
        ctl = PowerGateController(0, wakeup_latency=8, timeout=2)
        for c in range(2):
            ctl.step(c, True, False)
        ctl.request_wakeup(1)  # cancels (decision cycle)
        for c in range(2, 5):
            ctl.step(c, True, False)
        assert ctl.is_off  # gated from cycle 5 onward
        assert ctl.last_sleep_cycle == 5
        assert ctl.on_cycles == 5
        ctl.request_wakeup(13)  # genuine wake after 8 off cycles
        assert ctl.state is PGState.WAKING
        assert ctl.wake_events == 1

    def test_wakeup_after_sleep_takes_effect_pays_full_latency(self):
        """One cycle later the supply is cut: no cancellation then."""
        ctl = PowerGateController(0, wakeup_latency=8, timeout=2)
        for c in range(2):
            ctl.step(c, True, False)
        ctl.step(2, True, False)
        ctl.request_wakeup(2)  # sleep took effect at cycle 2
        assert ctl.is_waking
        assert ctl.wake_at == 10
        assert ctl.last_sleep_cycle == 2
        assert ctl.wake_events == 1


class TestSchemeEdgeCases:
    def test_zero_traffic_long_run_stable(self):
        scheme = PowerPunchPG()
        net = Network(NoCConfig(width=4, height=4), scheme)
        for _ in range(500):
            net.step()
        # All routers asleep after one timeout each, no wakes.
        assert all(c.is_off for c in scheme.controllers)
        assert scheme.total_wake_events() == 0
        assert all(c.on_cycles == scheme.timeout for c in scheme.controllers)

    def test_back_to_back_packets_single_wakeup(self):
        """A burst to one destination wakes each path router once."""
        scheme = PowerPunchSignal(wakeup_latency=8)
        net = Network(NoCConfig(width=4, height=4), scheme)
        for _ in range(25):
            net.step()
        for _ in range(5):
            net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle))
        net.run_until_drained(3000)
        for rid in (0, 1, 2, 3):
            assert scheme.controllers[rid].wake_events == 1, rid

    def test_wakeups_accurate_no_spurious_routers(self):
        """Punches only wake routers on the packet's path (accuracy
        claim of Sec. 4.3)."""
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(NoCConfig(), scheme)
        for _ in range(30):
            net.step()
        net.inject(control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle))
        net.run_until_drained(3000)
        woken = {c.router_id for c in scheme.controllers if c.wake_events}
        assert woken <= set(range(8)), woken

    def test_convopt_wakes_spuriously_less_than_punch_horizon(self):
        """ConvOpt only ever wakes one hop ahead."""
        scheme = ConvOptPG(wakeup_latency=8)
        net = Network(NoCConfig(), scheme)
        for _ in range(25):
            net.step()
        net.inject(control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle))
        # Early in the transfer, routers >2 hops ahead must still be off.
        for _ in range(10):
            net.step()
        assert scheme.controllers[5].is_off
        assert scheme.controllers[7].is_off
        net.run_until_drained(3000)

    def test_punch_wakes_at_most_horizon_ahead(self):
        scheme = PowerPunchSignal(wakeup_latency=8, punch_hops=3)
        net = Network(NoCConfig(), scheme)
        for _ in range(30):
            net.step()
        net.inject(control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle))
        # At injection-check time the punch targets router_ahead(0,7,3)=3;
        # router 5+ must not be waking yet shortly after.
        for _ in range(6):
            net.step()
        assert scheme.controllers[5].is_off
        assert scheme.controllers[6].is_off
        net.run_until_drained(3000)
