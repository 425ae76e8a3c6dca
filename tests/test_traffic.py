"""Tests for synthetic traffic patterns and the Bernoulli generator."""

import random

import pytest

from repro.core import PowerPunchPG
from repro.noc import MeshTopology, Network, NoCConfig
from repro.traffic import PATTERNS, SyntheticTraffic, get_pattern, hotspot, measure
from repro.traffic.patterns import bit_complement, bit_reverse, transpose, uniform_random


@pytest.fixture
def topo():
    return MeshTopology(8, 8)


class TestPatterns:
    def test_transpose(self, topo):
        rng = random.Random(0)
        # (x=3, y=1) = node 11 -> (1, 3) = node 25.
        assert transpose(11, topo, rng) == 25
        assert transpose(0, topo, rng) == 0

    def test_bit_complement(self, topo):
        rng = random.Random(0)
        assert bit_complement(0, topo, rng) == 63
        assert bit_complement(27, topo, rng) == 36

    def test_bit_reverse(self, topo):
        rng = random.Random(0)
        # 6 bits: 000001 -> 100000.
        assert bit_reverse(1, topo, rng) == 32

    @pytest.mark.parametrize("width, height", [(4, 2), (8, 8)])
    def test_bit_reverse_is_a_permutation_on_power_of_two_counts(self, width, height):
        mesh = MeshTopology(width, height)
        rng = random.Random(0)
        targets = [bit_reverse(src, mesh, rng) for src in range(mesh.num_nodes)]
        assert sorted(targets) == list(range(mesh.num_nodes))

    @pytest.mark.parametrize(
        "pattern, width, height, shape",
        [(transpose, 4, 2, "4x2"), (transpose, 2, 4, "2x4"), (bit_reverse, 3, 3, "3x3")],
    )
    def test_non_permutation_shapes_are_refused(self, pattern, width, height, shape):
        mesh = MeshTopology(width, height)
        with pytest.raises(ValueError, match=shape):
            pattern(0, mesh, random.Random(0))

    def test_uniform_random_never_self(self, topo):
        rng = random.Random(3)
        for src in range(64):
            for _ in range(20):
                assert uniform_random(src, topo, rng) != src

    def test_uniform_random_covers_destinations(self, topo):
        rng = random.Random(4)
        seen = {uniform_random(0, topo, rng) for _ in range(2000)}
        assert len(seen) == 63

    def test_hotspot_bias(self, topo):
        rng = random.Random(5)
        pattern = hotspot(hotspot_node=10, hotspot_fraction=0.5)
        hits = sum(1 for _ in range(1000) if pattern(3, topo, rng) == 10)
        assert hits > 350

    def test_get_pattern(self):
        assert get_pattern("transpose") is PATTERNS["transpose"]
        with pytest.raises(ValueError):
            get_pattern("nope")


class TestGenerator:
    def test_injection_rate_approximates_target(self):
        net = Network(NoCConfig())
        traffic = SyntheticTraffic(
            net, "uniform_random", 0.05, seed=2, slack2_lead=0
        )
        traffic.run(4000)
        traffic.drain()
        measured = net.stats.injected_flits / (4000 * 64)
        assert measured == pytest.approx(0.05, rel=0.15)

    def test_packet_rate_accounts_for_mixed_sizes(self):
        net = Network(NoCConfig())
        traffic = SyntheticTraffic(net, "uniform_random", 0.06, data_fraction=1.0)
        assert traffic.packet_rate == pytest.approx(0.06 / 5)
        traffic = SyntheticTraffic(net, "uniform_random", 0.06, data_fraction=0.0)
        assert traffic.packet_rate == pytest.approx(0.06)

    def test_invalid_rate_rejected(self):
        net = Network(NoCConfig())
        with pytest.raises(ValueError):
            SyntheticTraffic(net, "uniform_random", 1.5)

    def test_deterministic_given_seed(self):
        def run():
            net = Network(NoCConfig(width=4, height=4))
            traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=11)
            traffic.run(1500)
            traffic.drain()
            return (net.stats.delivered, net.stats.total_network_latency)

        assert run() == run()

    def test_slack2_defers_release_and_notifies(self):
        scheme = PowerPunchPG()
        net = Network(NoCConfig(width=4, height=4), scheme)
        traffic = SyntheticTraffic(
            net, "uniform_random", 0.05, seed=3, slack2_fraction=1.0, slack2_lead=6
        )
        traffic.step()
        # Everything drawn this cycle is deferred, nothing injected yet.
        assert net.stats.injected_packets == 0
        if traffic._deferred:
            release, _ = traffic._deferred[0]
            assert release == net.cycle + 6

    def test_drain_flushes_deferred(self):
        net = Network(NoCConfig(width=4, height=4))
        traffic = SyntheticTraffic(
            net, "uniform_random", 0.2, seed=4, slack2_fraction=1.0, slack2_lead=50
        )
        traffic.run(30)
        traffic.drain()
        assert not traffic._deferred
        assert net.is_drained()

    def test_measure_excludes_warmup(self):
        net = Network(NoCConfig(width=4, height=4))
        traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=5)
        stats = measure(net, traffic, warmup=500, measurement=1000)
        assert stats.measure_from == 500
        assert stats.delivered <= stats.injected_packets or stats.delivered > 0
