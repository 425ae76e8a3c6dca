"""Integration tests for the NoC kernel (no power-gating)."""

import random

import pytest

from repro.noc import (
    Network,
    NoCConfig,
    VirtualNetwork,
    control_packet,
    data_packet,
)


def zero_load_latency(stages: int, hops: int) -> int:
    """Expected zero-load network latency of a single-flit packet.

    One cycle NI-to-router, ``hops`` times (Trouter + Tlink), then the
    destination router's pipeline up to ejection (``stages - 1``
    cycles: the hop into the ejection port needs no link traversal).
    """
    per_hop = stages + 1
    return 1 + hops * per_hop + (stages - 1)


class TestZeroLoadLatency:
    @pytest.mark.parametrize("stages", [3, 4])
    @pytest.mark.parametrize("src,dst", [(0, 7), (0, 63), (27, 28), (5, 40)])
    def test_single_flit_latency_formula(self, stages, src, dst):
        cfg = NoCConfig(width=8, height=8, router_stages=stages)
        net = Network(cfg)
        p = control_packet(src, dst, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(5000)
        hops = net.topology.hop_distance(src, dst)
        assert p.network_latency == zero_load_latency(stages, hops)

    def test_ni_latency_included_in_total(self):
        cfg = NoCConfig()
        net = Network(cfg)
        p = control_packet(0, 1, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(1000)
        assert p.injected_at == cfg.ni_latency
        assert p.total_latency == p.network_latency + cfg.ni_latency

    def test_data_packet_tail_serialization(self):
        # A 5-flit packet is strictly slower than a 1-flit packet.
        cfg = NoCConfig()
        net = Network(cfg)
        c = control_packet(0, 7, VirtualNetwork.RESPONSE, 0)
        net.inject(c)
        net.run_until_drained(1000)
        net2 = Network(cfg)
        d = data_packet(0, 7, VirtualNetwork.RESPONSE, 0)
        net2.inject(d)
        net2.run_until_drained(1000)
        assert d.network_latency >= c.network_latency + 4


class TestConservation:
    @pytest.mark.parametrize("rate", [0.02, 0.10])
    def test_all_injected_packets_delivered(self, rate):
        rng = random.Random(42)
        net = Network(NoCConfig(width=4, height=4))
        injected = 0
        for _ in range(2000):
            for n in range(16):
                if rng.random() < rate:
                    dst = rng.randrange(16)
                    if dst == n:
                        continue
                    vn = VirtualNetwork(rng.randrange(3))
                    size = 5 if vn == VirtualNetwork.RESPONSE else 1
                    pkt = control_packet(n, dst, vn, net.cycle) if size == 1 else (
                        data_packet(n, dst, vn, net.cycle)
                    )
                    net.inject(pkt)
                    injected += 1
            net.step()
        net.run_until_drained(50_000)
        assert net.stats.delivered == injected
        assert net.is_drained()

    def test_flit_conservation(self):
        rng = random.Random(7)
        net = Network(NoCConfig(width=4, height=4))
        flits = 0
        for _ in range(500):
            for n in range(16):
                if rng.random() < 0.05:
                    dst = rng.randrange(16)
                    if dst == n:
                        continue
                    p = data_packet(n, dst, VirtualNetwork.RESPONSE, net.cycle)
                    net.inject(p)
                    flits += p.size_flits
            net.step()
        net.run_until_drained(50_000)
        assert net.stats.delivered_flits == flits


class TestOrderingAndIntegrity:
    def test_same_flow_packets_delivered_in_order(self):
        """Two packets of one VN between the same pair stay ordered."""
        net = Network(NoCConfig())
        delivered = []
        net.subscribe("delivered", lambda p, c: delivered.append(p.packet_id))
        packets = [
            control_packet(2, 50, VirtualNetwork.REQUEST, 0) for _ in range(6)
        ]
        for p in packets:
            net.inject(p)
        net.run_until_drained(5000)
        assert delivered == [p.packet_id for p in packets]

    def test_hop_count_statistics(self):
        net = Network(NoCConfig())
        net.inject(control_packet(0, 63, VirtualNetwork.REQUEST, 0))
        net.run_until_drained(5000)
        assert net.stats.avg_hops == 14

    def test_deterministic_replay(self):
        def run():
            rng = random.Random(11)
            net = Network(NoCConfig(width=4, height=4))
            for _ in range(800):
                for n in range(16):
                    if rng.random() < 0.08:
                        dst = rng.randrange(16)
                        if dst != n:
                            net.inject(
                                control_packet(
                                    n, dst, VirtualNetwork(rng.randrange(3)), net.cycle
                                )
                            )
                net.step()
            net.run_until_drained(20_000)
            return (
                net.stats.delivered,
                net.stats.total_network_latency,
                net.stats.router_traversals,
                net.cycle,
            )

        assert run() == run()


class TestSaturation:
    def test_network_survives_heavy_load(self):
        """Near-saturation load must not deadlock or drop flits."""
        rng = random.Random(3)
        net = Network(NoCConfig(width=4, height=4))
        injected = 0
        for _ in range(1500):
            for n in range(16):
                if rng.random() < 0.35:
                    dst = rng.randrange(16)
                    if dst == n:
                        continue
                    net.inject(
                        control_packet(n, dst, VirtualNetwork(rng.randrange(3)), net.cycle)
                    )
                    injected += 1
            net.step()
        net.run_until_drained(100_000)
        assert net.stats.delivered == injected

    def test_throughput_reported(self):
        rng = random.Random(5)
        net = Network(NoCConfig(width=4, height=4))
        net.stats.measure_from = 0
        for _ in range(2000):
            for n in range(16):
                if rng.random() < 0.05:
                    dst = rng.randrange(16)
                    if dst != n:
                        net.inject(control_packet(n, dst, VirtualNetwork.REQUEST, net.cycle))
            net.step()
        net.run_until_drained(20_000)
        assert net.stats.throughput(16) == pytest.approx(
            net.stats.delivered_flits / (net.cycle * 16)
        )


class TestRobustnessLayerFromConfig:
    """``Network`` takes its fault schedule, checker flags and bounds
    flag from its config and from nowhere else."""

    @staticmethod
    def _zero_load(config):
        net = Network(config)
        packet = control_packet(0, 7, VirtualNetwork.REQUEST, 0)
        net.inject(packet)
        net.run_until_drained(2000)
        return net, packet.network_latency

    def test_config_fields_install_the_layer_and_preserve_goldens(self):
        plain, latency = self._zero_load(NoCConfig())
        assert latency == 31  # zero-load golden (3-stage 8x8)
        assert plain.faults is None and plain.invariants is None

        checked, latency = self._zero_load(
            NoCConfig(
                faults="punch_delay,rate=0;seed=3",
                strict_invariants=True,
                watchdog=5000,
            )
        )
        assert latency == 31  # the checker is purely observational
        assert checked.faults is not None
        assert checked.invariants.max_network_age == 5000
        assert checked.invariants.checks_run > 0

        # Nothing outlives the network that asked for it.
        assert Network(NoCConfig()).invariants is None

    def test_bad_options_fail_at_config_time(self):
        from repro.noc import FaultSpecError

        with pytest.raises(FaultSpecError):
            NoCConfig(faults="frobnicate,rate=0.5")
        with pytest.raises(ValueError):
            NoCConfig(watchdog=0)
