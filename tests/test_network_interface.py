"""Tests for the network interface."""


from repro.core import ConvOptPG
from repro.noc import (
    Network,
    NoCConfig,
    VirtualNetwork,
    control_packet,
    data_packet,
)


def make_net(policy=None):
    return Network(NoCConfig(), policy)


class TestInjectionTiming:
    def test_ni_latency_before_injection(self):
        net = make_net()
        p = control_packet(5, 6, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        for _ in range(20):
            net.step()
        assert p.injected_at == net.config.ni_latency

    def test_one_flit_per_cycle_across_vnets(self):
        net = make_net()
        a = control_packet(5, 6, VirtualNetwork.REQUEST, 0)
        b = control_packet(5, 6, VirtualNetwork.FORWARD, 0)
        c = control_packet(5, 6, VirtualNetwork.RESPONSE, 0)
        for p in (a, b, c):
            net.inject(p)
        net.run_until_drained(500)
        injections = sorted(p.injected_at for p in (a, b, c))
        assert injections == sorted(set(injections)), "two flits in one cycle"

    def test_queueing_within_vnet(self):
        net = make_net()
        first = control_packet(5, 6, VirtualNetwork.REQUEST, 0)
        second = control_packet(5, 6, VirtualNetwork.REQUEST, 0)
        net.inject(first)
        net.inject(second)
        net.run_until_drained(500)
        assert second.injected_at > first.injected_at

    def test_data_packet_streams_five_flits(self):
        net = make_net()
        p = data_packet(5, 6, VirtualNetwork.RESPONSE, 0)
        net.inject(p)
        net.run_until_drained(500)
        assert net.stats.delivered_flits == 5


class TestSleepSignal:
    def test_wants_router_only_when_ready(self):
        net = make_net()
        ni = net.interfaces[5]
        p = control_packet(5, 6, VirtualNetwork.REQUEST, 0)
        ni.enqueue(p, 0)
        # Still inside the NI pipeline: the router is not held awake —
        # this is exactly the slack-1 window Power Punch exploits.
        assert not ni.wants_local_router(0)
        assert not ni.wants_local_router(net.config.ni_latency - 1)
        assert ni.wants_local_router(net.config.ni_latency)

    def test_injection_blocked_by_gated_router_counts(self):
        scheme = ConvOptPG(wakeup_latency=8)
        net = make_net(scheme)
        for _ in range(20):
            net.step()
        assert scheme.controllers[5].is_off
        p = control_packet(5, 6, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.run_until_drained(2000)
        assert 5 in p.blocked_routers
        assert p.wakeup_wait_cycles >= scheme.wakeup_latency - 2


class TestEjection:
    def test_listener_fires_on_tail(self):
        net = make_net()
        seen = []
        net.subscribe("delivered", lambda p, c: seen.append((p.packet_id, c)))
        p = data_packet(0, 9, VirtualNetwork.RESPONSE, 0)
        net.inject(p)
        net.run_until_drained(500)
        assert seen == [(p.packet_id, p.delivered_at)]

    def test_ejection_counts(self):
        net = make_net()
        p = control_packet(0, 9, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(500)
        assert net.interfaces[9].ejected_packets == 1
        assert net.interfaces[0].injected_packets == 1
