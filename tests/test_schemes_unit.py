"""Unit tests for scheme wiring: punch generation, windows, hooks."""


from repro.core import ConvOptPG, NoPG, PowerPunchPG, PowerPunchSignal
from repro.noc import Network, NoCConfig, VirtualNetwork, control_packet


def make(scheme, stages=3, width=8):
    net = Network(NoCConfig(width=width, height=width, router_stages=stages), scheme)
    return net, scheme


class TestConfigurationDerivation:
    def test_auto_punch_hops_3stage(self):
        net, scheme = make(PowerPunchSignal(wakeup_latency=8))
        assert scheme.punch_hops == 3  # ceil(8/3)

    def test_auto_punch_hops_4stage(self):
        net, scheme = make(PowerPunchSignal(wakeup_latency=8), stages=4)
        assert scheme.punch_hops == 2  # ceil(8/4)

    def test_explicit_punch_hops_wins(self):
        net, scheme = make(PowerPunchSignal(wakeup_latency=8, punch_hops=4))
        assert scheme.punch_hops == 4

    def test_convopt_is_one_hop(self):
        net, scheme = make(ConvOptPG())
        assert scheme.punch_hops == 1
        assert scheme.expectation_window == 0

    def test_powerpunch_forewarning_window(self):
        net, scheme = make(PowerPunchSignal(wakeup_latency=8))
        # punch_hops * (Trouter + Tlink) = 3 * 4.
        assert scheme.expectation_window == 12

    def test_scheme_names(self):
        assert NoPG.name == "No-PG"
        assert ConvOptPG.name == "ConvOpt-PG"
        assert PowerPunchSignal.name == "PowerPunch-Signal"
        assert PowerPunchPG.name == "PowerPunch-PG"


class TestSlackFlags:
    @staticmethod
    def punches_inside_ni_pipeline(scheme) -> bool:
        """Whether ``scheme`` punches for a packet the NI is still
        processing (slack 1: the punch starts at message creation)."""
        net, scheme = make(scheme)
        packet = control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle)
        net.inject(packet)
        punching = scheme._punching_packets(net.interfaces[0], net.cycle)
        assert punching in ([], [packet])
        return punching == [packet]

    def test_signal_scheme_has_no_slack(self):
        assert not self.punches_inside_ni_pipeline(PowerPunchSignal())
        assert not PowerPunchSignal().slack2

    def test_pg_scheme_has_both_slacks(self):
        assert self.punches_inside_ni_pipeline(PowerPunchPG())
        assert PowerPunchPG().slack2

    def test_slack2_notice_holds_router(self):
        net, scheme = make(PowerPunchPG())
        for _ in range(20):
            net.step()
        assert scheme.controllers[9].is_off
        net.interfaces[9].early_notice(net.cycle)
        net.step()
        assert scheme.controllers[9].is_waking

    def test_slack2_notice_ignored_without_flag(self):
        net, scheme = make(PowerPunchSignal())
        for _ in range(20):
            net.step()
        assert scheme.controllers[9].is_off
        net.interfaces[9].early_notice(net.cycle)
        net.step()
        assert scheme.controllers[9].is_off


class TestInjectionPunchTiming:
    def test_slack1_punches_at_creation(self):
        """PowerPunch-PG wakes the injection path during the NI delay."""
        net, scheme = make(PowerPunchPG(wakeup_latency=8))
        for _ in range(30):
            net.step()
        p = control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.step()  # punches generated the same cycle the NI accepts
        net.step()
        assert not scheme.controllers[0].is_off  # local woken immediately
        assert not scheme.controllers[1].is_off  # first hop punched

    def test_signal_scheme_waits_for_ni_completion(self):
        net, scheme = make(PowerPunchSignal(wakeup_latency=8))
        for _ in range(30):
            net.step()
        p = control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.step()
        # During the NI pipeline nothing is punched yet (no slack 1):
        # the first-hop router is still asleep one cycle in.
        assert scheme.controllers[1].is_off

    def test_creation_time_block_accounting(self):
        net, scheme = make(PowerPunchPG(wakeup_latency=8))
        for _ in range(30):
            net.step()
        p = control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        # Local router was off at the slack-1 wakeup-issue point.
        assert 0 in p.blocked_routers


class TestAvailabilityInterface:
    def test_nopg_always_available(self):
        net, scheme = make(NoPG())
        assert scheme.is_router_available(0)
        assert scheme.is_router_available_by(0, 10**9)

    def test_pg_schemes_report_off_routers(self):
        net, scheme = make(ConvOptPG())
        for _ in range(20):
            net.step()
        assert scheme.router_is_off(5)
        assert not scheme.is_router_available(5)
        assert sum(c.is_off for c in scheme.controllers) == 64

    def test_total_counters(self):
        net, scheme = make(ConvOptPG())
        for _ in range(20):
            net.step()
        assert scheme.total_off_cycles() > 0
        assert scheme.total_wake_events() == 0
