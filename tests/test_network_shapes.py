"""Network tests across mesh shapes and corner conditions."""

import random

import pytest

from repro.core import ConvOptPG, PowerPunchPG
from repro.noc import (
    Network,
    NoCConfig,
    VirtualNetwork,
    control_packet,
    data_packet,
)


class TestMeshShapes:
    @pytest.mark.parametrize("width,height", [(2, 2), (4, 2), (3, 5), (16, 16)])
    def test_random_traffic_drains(self, width, height):
        rng = random.Random(width * 100 + height)
        net = Network(NoCConfig(width=width, height=height))
        n = width * height
        injected = 0
        for _ in range(400):
            for node in range(n):
                if rng.random() < 0.03:
                    dst = rng.randrange(n)
                    if dst != node:
                        net.inject(
                            control_packet(
                                node, dst, VirtualNetwork(rng.randrange(3)), net.cycle
                            )
                        )
                        injected += 1
            net.step()
        net.run_until_drained(100_000)
        assert net.stats.delivered == injected

    @pytest.mark.parametrize("width,height", [(4, 2), (2, 4)])
    def test_rectangular_zero_load_latency(self, width, height):
        cfg = NoCConfig(width=width, height=height, router_stages=3)
        net = Network(cfg)
        dst = width * height - 1
        p = control_packet(0, dst, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(1000)
        hops = net.topology.hop_distance(0, dst)
        assert p.network_latency == 1 + hops * 4 + 2

    def test_power_gating_on_16x16(self):
        scheme = PowerPunchPG()
        net = Network(NoCConfig(width=16, height=16), scheme)
        for _ in range(25):
            net.step()
        assert sum(c.is_off for c in scheme.controllers) == 256
        p = control_packet(0, 255, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.run_until_drained(5000)
        assert p.delivered_at is not None


class TestBackpressure:
    def test_credit_exhaustion_recovers(self):
        """Many packets into one destination exercise credit stalls."""
        net = Network(NoCConfig(width=4, height=4))
        packets = [
            data_packet(src, 5, VirtualNetwork.RESPONSE, 0)
            for src in range(16)
            if src != 5
        ]
        for p in packets:
            net.inject(p)
        net.run_until_drained(20_000)
        assert all(p.delivered_at is not None for p in packets)

    def test_single_vc_vnet_serializes_safely(self):
        cfg = NoCConfig(width=4, height=4, vcs_per_vnet=1)
        net = Network(cfg)
        packets = [control_packet(0, 15, VirtualNetwork.REQUEST, 0) for _ in range(8)]
        for p in packets:
            net.inject(p)
        net.run_until_drained(5000)
        assert all(p.delivered_at is not None for p in packets)

    def test_deep_buffers(self):
        cfg = NoCConfig(width=4, height=4, data_vc_depth=8, control_vc_depth=4)
        net = Network(cfg)
        rng = random.Random(1)
        injected = 0
        for _ in range(600):
            for node in range(16):
                if rng.random() < 0.1:
                    dst = rng.randrange(16)
                    if dst != node:
                        net.inject(
                            data_packet(node, dst, VirtualNetwork.RESPONSE, net.cycle)
                        )
                        injected += 1
            net.step()
        net.run_until_drained(100_000)
        assert net.stats.delivered == injected


class TestPowerGatingUnderBackpressure:
    def test_hotspot_with_gating_delivers_everything(self):
        scheme = ConvOptPG()
        net = Network(NoCConfig(width=4, height=4), scheme)
        rng = random.Random(9)
        injected = 0
        for cycle in range(1500):
            # Bursty: 50 active cycles, 150 idle.
            if cycle % 200 < 50:
                for node in range(16):
                    if rng.random() < 0.15:
                        dst = 10 if rng.random() < 0.5 else rng.randrange(16)
                        if dst != node:
                            net.inject(
                                control_packet(
                                    node, dst, VirtualNetwork(rng.randrange(3)), net.cycle
                                )
                            )
                            injected += 1
            net.step()
        net.run_until_drained(100_000)
        assert net.stats.delivered == injected
        # The idle gaps must actually produce gated-off time.
        assert scheme.total_off_cycles() > 0

    def test_powerpunch_under_saturation(self):
        scheme = PowerPunchPG()
        net = Network(NoCConfig(width=4, height=4), scheme)
        rng = random.Random(4)
        injected = 0
        for _ in range(1200):
            for node in range(16):
                if rng.random() < 0.3:
                    dst = rng.randrange(16)
                    if dst != node:
                        net.inject(
                            control_packet(
                                node, dst, VirtualNetwork(rng.randrange(3)), net.cycle
                            )
                        )
                        injected += 1
            net.step()
        net.run_until_drained(200_000)
        assert net.stats.delivered == injected
