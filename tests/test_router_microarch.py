"""Router microarchitecture tests: pipeline, arbitration, credits."""


from repro.noc import (
    Direction,
    Network,
    NoCConfig,
    VirtualNetwork,
    control_packet,
    data_packet,
)


def make_net(stages=3, width=4):
    return Network(NoCConfig(width=width, height=width, router_stages=stages))


class TestPipelineTiming:
    def test_head_flit_stage_schedule_3stage(self):
        """BW at t, speculative VA+SA at t+1, departure visible at t+4."""
        net = make_net(stages=3)
        p = control_packet(0, 2, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        # Flit enters router 0 local port at ni_latency + 1 = 4.
        arrivals = {}
        for _ in range(30):
            net.step()
            for rid in (0, 1, 2):
                router = net.routers[rid]
                occ = router.buffered_flits()
                if occ and rid not in arrivals:
                    arrivals[rid] = net.cycle - 1  # buffered at end of prev step
        net.run_until_drained(100)
        # Hop-to-hop spacing equals Trouter + Tlink = 4.
        assert arrivals[1] - arrivals[0] == 4
        assert arrivals[2] - arrivals[1] == 4

    def test_4stage_adds_one_cycle_per_hop(self):
        lat = {}
        for stages in (3, 4):
            net = make_net(stages=stages)
            p = control_packet(0, 3, VirtualNetwork.REQUEST, 0)
            net.inject(p)
            net.run_until_drained(200)
            lat[stages] = p.network_latency
        # 3 hops + ejection pipeline: 4 extra cycles total.
        assert lat[4] - lat[3] == 3 + 1

    def test_back_to_back_flits_pipeline(self):
        """Body flits follow the head with no bubbles at zero load."""
        net = make_net()
        p = data_packet(0, 1, VirtualNetwork.RESPONSE, 0)
        net.inject(p)
        net.run_until_drained(200)
        # 1 hop: head latency = 1 + 4 + 2 = 7; tail trails by at most
        # size-1 plus credit-induced bubbles on a depth-3 VC.
        assert p.network_latency <= 7 + (5 - 1) + 4


class TestVCAllocation:
    def test_two_packets_share_port_via_two_vcs(self):
        # Multi-flit packets hold VC ownership long enough to observe
        # both RESPONSE VCs of router 0's X+ port owned at once.
        net = make_net()
        a = data_packet(0, 2, VirtualNetwork.RESPONSE, 0)
        b = data_packet(0, 2, VirtualNetwork.RESPONSE, 0)
        net.inject(a)
        net.inject(b)
        owners = set()
        for _ in range(40):
            net.step()
            port = net.routers[0].output_ports[Direction.XPOS]
            owners |= {vc for vc, owner in enumerate(port.owner) if owner}
        assert owners == {4, 5}

    def test_vc_ownership_released_on_tail(self):
        net = make_net()
        p = data_packet(0, 1, VirtualNetwork.RESPONSE, 0)
        net.inject(p)
        net.run_until_drained(200)
        for router in net.routers:
            for port in router.output_ports.values():
                assert port.all_vcs_idle()

    def test_vnet_isolation(self):
        """A REQUEST packet can never grab a RESPONSE VC."""
        net = make_net()
        p = control_packet(0, 3, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        for _ in range(30):
            net.step()
            for router in net.routers:
                for port in router.output_ports.values():
                    for vc in (4, 5):  # RESPONSE VCs
                        assert port.owner[vc] is None


class TestCredits:
    def test_credits_restored_after_drain(self):
        net = make_net()
        for _ in range(8):
            net.inject(data_packet(0, 15, VirtualNetwork.RESPONSE, net.cycle))
        net.run_until_drained(20_000)
        depths = net.config.depths_by_vc()
        for router in net.routers:
            for port in router.output_ports.values():
                for vc, credits in enumerate(port.credits):
                    assert credits == depths[vc], (router.router_id, port.direction)

    def test_ni_credits_restored(self):
        net = make_net()
        net.inject(data_packet(3, 9, VirtualNetwork.RESPONSE, 0))
        net.run_until_drained(20_000)
        depths = net.config.depths_by_vc()
        for ni in net.interfaces:
            for vc, credits in enumerate(ni.credits):
                assert credits == depths[vc]

    def test_buffer_never_overflows_under_load(self):
        import random

        rng = random.Random(2)
        net = make_net()
        # Push hard; VirtualChannel.push raises on overflow.
        for _ in range(800):
            for node in range(16):
                if rng.random() < 0.3:
                    dst = rng.randrange(16)
                    if dst != node:
                        net.inject(
                            data_packet(node, dst, VirtualNetwork.RESPONSE, net.cycle)
                        )
            net.step()
        net.run_until_drained(100_000)


class TestArbitrationFairness:
    def test_round_robin_interleaves_inputs(self):
        """Two flows converging on one output both make progress."""
        net = make_net()
        flows = {1: [], 4: []}
        net.subscribe("delivered", lambda p, c: flows[p.source].append(c))
        for _ in range(10):
            net.inject(control_packet(1, 7, VirtualNetwork.REQUEST, net.cycle))
            net.inject(control_packet(4, 7, VirtualNetwork.REQUEST, net.cycle))
        net.run_until_drained(20_000)
        assert len(flows[1]) == len(flows[4]) == 10
        # Neither flow finishes wholly before the other starts.
        assert min(flows[4]) < max(flows[1])
        assert min(flows[1]) < max(flows[4])

    def test_link_counts_recorded(self):
        net = make_net()
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, 0))
        net.run_until_drained(200)
        assert net.link_counts[0][Direction.XPOS] == 1
        assert net.link_counts[3][Direction.LOCAL] == 1
