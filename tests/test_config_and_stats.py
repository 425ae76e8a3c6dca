"""Tests for NoCConfig and NetworkStats."""

import dataclasses

import pytest

from repro.noc import Network, NoCConfig, VirtualNetwork, control_packet
from repro.noc.stats import NetworkStats


class TestConfig:
    def test_defaults_match_table2(self):
        cfg = NoCConfig()
        assert cfg.width == cfg.height == 8
        assert cfg.router_stages == 3
        assert cfg.vcs_per_vnet == 2
        assert cfg.data_vc_depth == 3
        assert cfg.control_vc_depth == 1
        assert cfg.ni_latency == 3
        assert cfg.num_vcs == 6

    def test_vc_depth_by_vnet(self):
        cfg = NoCConfig()
        assert cfg.vc_depth(VirtualNetwork.RESPONSE) == 3
        assert cfg.vc_depth(VirtualNetwork.REQUEST) == 1
        assert cfg.vc_depth(VirtualNetwork.FORWARD) == 1

    def test_vc_index_mapping(self):
        cfg = NoCConfig()
        assert cfg.vnet_of_vc(0) == VirtualNetwork.REQUEST
        assert cfg.vnet_of_vc(5) == VirtualNetwork.RESPONSE
        assert list(cfg.vcs_of_vnet(VirtualNetwork.FORWARD)) == [2, 3]

    def test_hop_latency(self):
        assert NoCConfig(router_stages=3).hop_latency == 4
        assert NoCConfig(router_stages=4).hop_latency == 5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("router_stages", 5),
            ("data_vc_depth", 0),
            ("control_vc_depth", 0),
            ("ni_latency", -2),
        ],
    )
    def test_invalid_stages_rejected(self, field, value):
        with pytest.raises(ValueError):
            NoCConfig(**{field: value})

    def test_depths_by_vc(self):
        cfg = NoCConfig()
        assert cfg.depths_by_vc() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 3, 5: 3}


class TestStats:
    def make_packet(self, created=0, injected=5, delivered=30, blocked=(), wait=0):
        p = control_packet(0, 7, VirtualNetwork.REQUEST, created)
        p.injected_at = injected
        p.delivered_at = delivered
        p.blocked_routers = set(blocked)
        p.wakeup_wait_cycles = wait
        return p

    def test_record_delivery_accumulates(self):
        stats = NetworkStats()
        stats.record_delivery(self.make_packet(blocked={1, 2}, wait=9), hops=7)
        stats.record_delivery(self.make_packet(delivered=40), hops=7)
        assert stats.delivered == 2
        assert stats.avg_packet_latency == pytest.approx((25 + 35) / 2)
        assert stats.avg_total_latency == pytest.approx((30 + 40) / 2)
        assert stats.avg_blocked_routers == 1.0
        assert stats.avg_wakeup_wait == 4.5
        assert stats.avg_hops == 7

    def test_warmup_exclusion(self):
        stats = NetworkStats(measure_from=100)
        stats.record_delivery(self.make_packet(created=50), hops=3)
        assert stats.delivered == 0
        stats.record_delivery(self.make_packet(created=150), hops=3)
        assert stats.delivered == 1

    def test_empty_stats_safe(self):
        stats = NetworkStats()
        assert stats.avg_packet_latency == 0.0
        assert stats.avg_blocked_routers == 0.0
        assert stats.throughput(64) == 0.0


class TestStatsRoundTrip:
    """``as_dict`` carries every counter.

    Bench fingerprints and campaign payloads persist ``as_dict`` dumps;
    a counter missing from it would escape the kernel-equivalence and
    trend gates.
    """

    def test_as_dict_holds_exactly_the_int_fields(self):
        # Every int field, in field order, each with its own value (a
        # distinct value per field so a dropped or transposed one
        # cannot cancel out); there is no other field.
        stats = NetworkStats()
        expected = {}
        for index, f in enumerate(dataclasses.fields(stats), start=1):
            if isinstance(f.default, int):
                expected[f.name] = index * 3 + 1
                setattr(stats, f.name, expected[f.name])
        assert list(stats.as_dict().items()) == list(expected.items())
        assert {f.name for f in dataclasses.fields(stats)} == set(expected)

    def test_every_as_dict_key_is_a_field(self):
        # After a real run, not only on hand-set values: each key names
        # a field and carries that field's int value as the simulator
        # left it.
        net = Network(NoCConfig(width=4, height=4))
        for dest in (5, 10, 15):
            net.inject(control_packet(0, dest, VirtualNetwork.REQUEST, net.cycle))
        net.run_until_drained(500)
        dump = net.stats.as_dict()
        names = {f.name for f in dataclasses.fields(net.stats)}
        assert dump["delivered"] == 3
        for key, value in dump.items():
            assert key in names
            assert type(value) is int
            assert getattr(net.stats, key) == value

    def test_fault_tolerance_counters_covered(self):
        # The fault-tolerance counters must flow through serialization
        # (and therefore through the bench fingerprint, which is built
        # on as_dict) — a regression here would exempt them from the
        # kernel-equivalence sweeps.
        dump = NetworkStats().as_dict()
        for counter in (
            "wakeup_retries",
            "rerouted_packets",
            "detour_hops",
            "refused_packets",
            "refused_flits",
            "dropped_packets",
            "dropped_flits",
        ):
            assert counter in dump
