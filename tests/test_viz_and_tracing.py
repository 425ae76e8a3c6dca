"""Tests for the visualization helpers and the packet tracer."""

import pytest

from repro.core import ConvOptPG, NoPG
from repro.noc import MeshTopology, Network, NoCConfig, VirtualNetwork, control_packet
from repro.noc.packet import Packet, reset_packet_ids
from repro.noc.tracing import PacketTracer
from repro.viz import (
    gated_fraction_map,
    latency_histogram,
    node_heatmap,
    scheme_comparison_bars,
    shade,
    wake_events_map,
)


class TestShade:
    def test_extremes(self):
        assert shade(0.0) == " "
        assert shade(1.0) == "@"

    def test_clamping(self):
        assert shade(-5.0) == " "
        assert shade(42.0) == "@"

    def test_monotone(self):
        ramp = [shade(i / 10) for i in range(11)]
        assert ramp == sorted(ramp, key=" .:-=+*#%@".index)


class TestHeatmaps:
    def test_node_heatmap_dimensions(self):
        topo = MeshTopology(4, 4)
        out = node_heatmap(topo, [0.1] * 16, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + 2 * 4  # title + (shade+number) per row

    def test_node_heatmap_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            node_heatmap(MeshTopology(4, 4), [0.0] * 15)

    def test_gated_fraction_map_nopg_all_zero(self):
        net = Network(NoCConfig(width=4, height=4), NoPG())
        for _ in range(20):
            net.step()
        out = gated_fraction_map(net)
        assert "0.00" in out

    def test_gated_fraction_map_pg(self):
        net = Network(NoCConfig(width=4, height=4), ConvOptPG())
        for _ in range(60):
            net.step()
        out = gated_fraction_map(net)
        assert "0.00" not in out.splitlines()[1]  # routers did gate off

    def test_wake_events_map(self):
        net = Network(NoCConfig(width=4, height=4), ConvOptPG())
        for _ in range(30):
            net.step()
        net.inject(control_packet(0, 15, VirtualNetwork.REQUEST, net.cycle))
        net.run_until_drained(2000)
        out = wake_events_map(net)
        assert any(ch.isdigit() and ch != "0" for ch in out)


class TestHistogramAndBars:
    def test_histogram_counts_sum(self):
        out = latency_histogram([10, 12, 30, 31, 31, 50], bins=4)
        total = sum(int(line.rsplit(" ", 1)[1]) for line in out.splitlines())
        assert total == 6

    def test_histogram_empty(self):
        assert latency_histogram([]) == "(no samples)"

    def test_bars_include_all_schemes(self):
        out = scheme_comparison_bars({"A": 1.0, "B": 2.0}, title="x")
        assert "A" in out and "B" in out and out.startswith("x")


class TestPacketTracer:
    def test_traces_lifecycle(self):
        net = Network(NoCConfig(width=4, height=4))
        tracer = PacketTracer(net)
        p = control_packet(0, 3, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(500)
        kinds = [e.kind for e in tracer.for_packet(p.packet_id)]
        assert kinds[0] == "created"
        assert kinds[-1] == "delivered"
        assert kinds.count("sw-grant") == 4  # routers 0,1,2,3

    def test_traces_blocking(self):
        scheme = ConvOptPG(wakeup_latency=8)
        net = Network(NoCConfig(width=4, height=4), scheme)
        tracer = PacketTracer(net)
        for _ in range(25):
            net.step()
        p = control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.run_until_drained(2000)
        assert tracer.blocked_routers_seen
        assert any(e.kind == "blocked" for e in tracer.events)

    def test_filter(self):
        net = Network(NoCConfig(width=4, height=4))
        a = control_packet(0, 3, VirtualNetwork.REQUEST, 0)
        tracer = PacketTracer(net, match=lambda p: p.packet_id == a.packet_id)
        b = control_packet(4, 7, VirtualNetwork.REQUEST, 0)
        net.inject(a)
        net.inject(b)
        net.run_until_drained(500)
        assert tracer.for_packet(a.packet_id)
        assert not tracer.for_packet(b.packet_id)

    def test_render(self):
        net = Network(NoCConfig(width=4, height=4))
        tracer = PacketTracer(net)
        p = control_packet(0, 1, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(500)
        text = tracer.render(p.packet_id)
        assert "created" in text and "delivered" in text


#: ``PacketTracer.render()`` of the scenario below: pkt#3 is purged
#: inside the dead R5 (its trace ends with the drop when R5 dies),
#: pkt#4 detours R1->R0->R4->R8->R9->R13 around it, and pkt#6,
#: addressed to R5, is refused at the door.
DEAD_ROUTER_TRACE = """\
[     0] pkt#0 created    R0
[     0] pkt#1 created    R4
[     5] pkt#0 blocked    R0 next R1 off
[     5] pkt#1 blocked    R4 next R5 off
[     6] pkt#0 sw-grant   R0 LOCAL->XPOS vc4->vc4
[     6] pkt#1 sw-grant   R4 LOCAL->XPOS vc0->vc0
[    10] pkt#0 blocked    R1 next R2 off
[    10] pkt#1 blocked    R5 next R6 off
[    11] pkt#0 sw-grant   R1 XNEG->XPOS vc4->vc4
[    11] pkt#1 sw-grant   R5 XNEG->XPOS vc0->vc0
[    15] pkt#0 blocked    R2 next R3 off
[    15] pkt#1 blocked    R6 next R7 off
[    16] pkt#0 sw-grant   R2 XNEG->XPOS vc4->vc4
[    16] pkt#1 sw-grant   R6 XNEG->XPOS vc0->vc0
[    20] pkt#2 created    R12
[    20] pkt#0 sw-grant   R3 XNEG->YPOS vc4->vc4
[    20] pkt#1 sw-grant   R7 XNEG->LOCAL vc0->vc0
[    21] pkt#1 delivered  R7 lat=18
[    23] pkt#2 blocked    R12 local R12 off at check
[    23] pkt#2 blocked    R12 local R12 off
[    24] pkt#3 created    R4
[    24] pkt#2 blocked    R12 local R12 off
[    24] pkt#0 blocked    R7 next R11 off
[    25] pkt#2 blocked    R12 local R12 off
[    25] pkt#0 sw-grant   R7 YNEG->YPOS vc4->vc4
[    27] pkt#3 blocked    R4 local R4 off at check
[    27] pkt#3 blocked    R4 local R4 off
[    28] pkt#3 blocked    R4 local R4 off
[    28] pkt#2 blocked    R12 next R13 off
[    29] pkt#3 blocked    R4 local R4 off
[    29] pkt#0 blocked    R11 next R15 off
[    29] pkt#2 sw-grant   R12 LOCAL->XPOS vc0->vc0
[    30] pkt#0 sw-grant   R11 YNEG->YPOS vc4->vc4
[    32] pkt#3 blocked    R4 next R5 off
[    33] pkt#3 sw-grant   R4 LOCAL->XPOS vc0->vc1
[    33] pkt#2 blocked    R13 next R14 off
[    34] pkt#2 sw-grant   R13 XNEG->XPOS vc0->vc0
[    34] pkt#0 sw-grant   R15 YNEG->LOCAL vc4->vc4
[    38] pkt#2 sw-grant   R14 XNEG->XPOS vc0->vc0
[    40] pkt#3 dropped    R4 ->R6
[    42] pkt#0 delivered  R15 lat=39
[    42] pkt#2 blocked    R15 next R11 off
[    43] pkt#2 sw-grant   R15 XNEG->YNEG vc0->vc0
[    45] pkt#4 created    R1
[    45] pkt#5 created    R8
[    45] pkt#6 refused    R9 ->R5
[    47] pkt#2 blocked    R11 next R7 off
[    48] pkt#4 blocked    R1 local R1 off at check
[    48] pkt#4 blocked    R1 local R1 off
[    48] pkt#5 blocked    R8 local R8 off at check
[    48] pkt#5 blocked    R8 local R8 off
[    48] pkt#2 sw-grant   R11 YPOS->YNEG vc0->vc0
[    49] pkt#4 blocked    R1 local R1 off
[    49] pkt#5 blocked    R8 local R8 off
[    50] pkt#4 blocked    R1 local R1 off
[    50] pkt#5 blocked    R8 local R8 off
[    52] pkt#2 blocked    R7 next R3 off
[    53] pkt#4 blocked    R1 next R0 off
[    53] pkt#2 sw-grant   R7 YPOS->YNEG vc0->vc0
[    53] pkt#5 blocked    R8 next R4 off
[    54] pkt#4 sw-grant   R1 LOCAL->XNEG vc0->vc0
[    54] pkt#5 sw-grant   R8 LOCAL->YNEG vc4->vc4
[    57] pkt#2 sw-grant   R3 YPOS->LOCAL vc0->vc0
[    58] pkt#2 delivered  R3 lat=32
[    58] pkt#4 sw-grant   R0 XPOS->YPOS vc0->vc0
[    58] pkt#5 sw-grant   R4 YPOS->YNEG vc4->vc4
[    62] pkt#5 sw-grant   R0 YPOS->XPOS vc4->vc5
[    62] pkt#4 sw-grant   R4 YNEG->YPOS vc0->vc0
[    66] pkt#5 blocked    R1 next R2 off
[    66] pkt#4 blocked    R8 next R9 off
[    67] pkt#5 sw-grant   R1 XNEG->XPOS vc5->vc5
[    67] pkt#4 sw-grant   R8 YNEG->XPOS vc0->vc0
[    71] pkt#5 sw-grant   R2 XNEG->LOCAL vc5->vc4
[    71] pkt#4 blocked    R9 next R13 off
[    72] pkt#4 sw-grant   R9 XNEG->YPOS vc0->vc0
[    76] pkt#4 sw-grant   R13 YNEG->LOCAL vc0->vc0
[    77] pkt#4 delivered  R13 lat=26
[    79] pkt#5 delivered  R2 lat=28"""


class TestPacketTracerRender:
    def test_dead_router_scenario_renders_as_recorded(self):
        """Several ConvOpt-PG packets around a router that dies at cycle
        40 (``reroute`` degradation): blocking, purge, refusal and detour."""
        reset_packet_ids()
        config = NoCConfig(
            width=4, height=4, faults="router_stall,router=5,start=30",
            degradation="reroute", dead_router_threshold=10,
        )
        net = Network(config, ConvOptPG(wakeup_latency=4))
        tracer = PacketTracer(net)
        plan = {0: [(0, 15, 5), (4, 7, 1)], 20: [(12, 3, 1)], 24: [(4, 6, 1)],
                45: [(1, 13, 1), (8, 2, 5), (9, 5, 1)]}
        for cycle in range(60):
            for source, dest, flits in plan.get(cycle, ()):
                vnet = VirtualNetwork.RESPONSE if flits > 1 else VirtualNetwork.REQUEST
                net.inject(Packet(source, dest, vnet, flits, net.cycle))
            net.step()
        net.run_until_drained(2000)
        assert tracer.render() == DEAD_ROUTER_TRACE
        stats = net.stats
        assert (
            stats.refused_packets, stats.dropped_packets, stats.delivered,
            stats.rerouted_packets, stats.detour_hops,
        ) == (1, 2, 5, 1, 2)


class TestLinkLoadMap:
    def test_counts_forwarded_flits(self):
        from repro.viz import link_load_map

        net = Network(NoCConfig(width=4, height=4))
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, 0))
        net.run_until_drained(500)
        out = link_load_map(net)
        assert "Router forwarding load" in out
        # Row 0 routers carried the packet; row 3 carried nothing.
        lines = out.splitlines()
        assert "0.00" in lines[-1]
