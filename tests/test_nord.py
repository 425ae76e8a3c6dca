"""Tests for the NoRD-like bypass-ring baseline."""


from repro.baselines import BypassRing, NoRDLike, snake_order
from repro.core import PowerPunchPG
from repro.noc import MeshTopology, Network, NoCConfig, VirtualNetwork, control_packet
from repro.traffic import SyntheticTraffic, measure


class TestSnakeOrder:
    def test_visits_every_node_once(self):
        topo = MeshTopology(8, 8)
        order = snake_order(topo)
        assert sorted(order) == list(range(64))

    def test_consecutive_stops_are_mesh_neighbors(self):
        topo = MeshTopology(8, 8)
        order = snake_order(topo)
        for a, b in zip(order, order[1:]):
            assert topo.hop_distance(a, b) == 1

    def test_small_mesh(self):
        topo = MeshTopology(2, 2)
        assert snake_order(topo) == [0, 1, 3, 2]


class TestBypassRing:
    def make_ring(self):
        topo = MeshTopology(4, 4)
        return BypassRing(snake_order(topo), hop_latency=2)

    def test_board_and_ride(self):
        ring = self.make_ring()
        p = control_packet(0, 5, VirtualNetwork.REQUEST, 0)
        ring.board(0, p)
        exits = []

        def try_exit(node, packet, cycle):
            if node == packet.destination:
                exits.append((node, cycle))
                return True
            return False

        for cycle in range(100):
            ring.step(cycle, try_exit)
            if exits:
                break
        assert exits
        assert ring.in_transit() == 0

    def test_one_flit_wide_serialization(self):
        """A 5-flit packet occupies a ring link for 5 cycles."""
        ring = self.make_ring()
        from repro.noc import data_packet

        a = data_packet(0, 15, VirtualNetwork.RESPONSE, 0)
        b = data_packet(0, 15, VirtualNetwork.RESPONSE, 0)
        ring.board(0, a)
        ring.board(0, b)
        positions = {}

        def never_exit(node, packet, cycle):
            positions[packet.packet_id] = (node, cycle)
            return False

        for cycle in range(30):
            ring.step(cycle, never_exit)
        # b trails a by at least the serialization delay.
        assert sum(ring.hops_ridden.values()) >= 2
        assert ring.hops_ridden[a.packet_id] > ring.hops_ridden[b.packet_id]

    def test_hops_ridden_tracked(self):
        ring = self.make_ring()
        p = control_packet(0, 100, VirtualNetwork.REQUEST, 0)  # never exits
        p.destination = -1
        ring.board(0, p)
        for cycle in range(30):
            ring.step(cycle, lambda n, pk, c: False)
        assert ring.hops_ridden[p.packet_id] >= 3


class TestNoRDScheme:
    def run_traffic(self, scheme, load=0.01, cycles=3000, seed=7):
        net = Network(NoCConfig(), scheme)
        traffic = SyntheticTraffic(net, "uniform_random", load, seed=seed)
        measure(net, traffic, warmup=500, measurement=cycles)
        return net

    def test_all_packets_delivered(self):
        scheme = NoRDLike()
        net = self.run_traffic(scheme)
        assert net.is_drained()
        assert net.stats.delivered > 0

    def test_transit_never_punches(self):
        scheme = NoRDLike()
        self.run_traffic(scheme, cycles=1500)
        # The punch fabric exists but NoRD generates no transit punches.
        assert scheme.fabric.link_transmissions == 0

    def test_detours_happen_at_low_load(self):
        scheme = NoRDLike()
        self.run_traffic(scheme, cycles=1500)
        assert scheme.detoured_packets > 0

    def test_latency_worse_than_powerpunch(self):
        nord = NoRDLike()
        net_nord = self.run_traffic(nord)
        pp = PowerPunchPG()
        net_pp = self.run_traffic(pp)
        # The paper's Sec. 6.6(3) claim: detour-based schemes pay much
        # more latency than Power Punch.
        assert (
            net_nord.stats.avg_total_latency
            > net_pp.stats.avg_total_latency + 3.0
        )

    def test_saves_static_power(self):
        scheme = NoRDLike()
        self.run_traffic(scheme, cycles=1500)
        total = scheme.network.cycle * len(scheme.controllers)
        on = sum(c.on_cycles for c in scheme.controllers)
        assert (total - on) / total > 0.25

    def test_deterministic(self):
        def run():
            scheme = NoRDLike()
            net = self.run_traffic(scheme, cycles=1200)
            return (net.stats.delivered, net.stats.total_network_latency)

        assert run() == run()

    def test_cold_injection_uses_ring(self):
        scheme = NoRDLike()
        net = Network(NoCConfig(), scheme)
        for _ in range(25):
            net.step()
        p = control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.run_until_drained(5000)
        assert p.delivered_at is not None
        # The packet never waited on a wakeup (NoRD's selling point)...
        assert p.wakeup_wait_cycles == 0
