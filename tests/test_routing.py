"""Tests for XY dimension-order routing and the process-wide route tables."""

import pytest

from repro.core import ConvOptPG, PowerPunchPG
from repro.core.schemes import _punch_tables
from repro.noc import Direction, MeshTopology, Network, NoCConfig, XYRouting
from repro.noc.routing import FaultTolerantRouting, _static_tables, default_routing
from repro.traffic import SyntheticTraffic, measure


@pytest.fixture
def routing():
    return XYRouting(MeshTopology(8, 8))


class TestOutputDirection:
    def test_x_first(self, routing):
        # From R26 toward R31: X+ first (paper Sec. 4.1 step 1 example).
        assert routing.output_direction(26, 31) == Direction.XPOS

    def test_y_after_x_aligned(self, routing):
        assert routing.output_direction(27, 59) == Direction.YPOS
        assert routing.output_direction(27, 3) == Direction.YNEG

    def test_negative_x(self, routing):
        assert routing.output_direction(27, 24) == Direction.XNEG

    def test_at_destination_is_local(self, routing):
        assert routing.output_direction(27, 27) == Direction.LOCAL

    def test_next_hop(self, routing):
        assert routing.next_hop(26, 31) == 27
        assert routing.next_hop(27, 27) is None


class TestPath:
    def test_path_x_then_y(self, routing):
        # 26 -> 29 -> then down to 45: X first, then Y.
        assert routing.path(26, 45) == [26, 27, 28, 29, 37, 45]

    def test_path_endpoints(self, routing):
        p = routing.path(0, 63)
        assert p[0] == 0 and p[-1] == 63
        assert len(p) == routing.topology.hop_distance(0, 63) + 1

    def test_path_is_minimal(self, routing):
        topo = routing.topology
        for src, dst in [(0, 63), (7, 56), (27, 36), (12, 12)]:
            assert len(routing.path(src, dst)) - 1 == topo.hop_distance(src, dst)

    def test_consecutive_path_nodes_adjacent(self, routing):
        p = routing.path(5, 58)
        for a, b in zip(p, p[1:]):
            assert routing.topology.hop_distance(a, b) == 1


class TestRouterAhead:
    def test_paper_example_r3_to_r7(self, routing):
        # Packet with source R0, destination R7, currently at R3:
        # the 3-hop targeted router is R6 (Sec. 4.1).
        assert routing.router_ahead(3, 7, 3) == 6

    def test_clamps_at_destination(self, routing):
        assert routing.router_ahead(26, 28, 3) == 28
        assert routing.router_ahead(26, 26, 3) == 26

    def test_follows_xy_turns(self, routing):
        # From 26 to destination 44: path 26,27,28,36,44 - 3 ahead is 36.
        assert routing.router_ahead(26, 44, 3) == 36

    def test_zero_hops_is_current(self, routing):
        assert routing.router_ahead(26, 44, 0) == 26

    def test_negative_hops_rejected(self, routing):
        with pytest.raises(ValueError):
            routing.router_ahead(26, 44, -1)


class TestTurnLegality:
    def test_y_to_x_turns_illegal(self):
        # Paper: "path R19->R27->R28 is not valid as Y+ to X+ turns are
        # illegal".  A packet moving Y+ arrives on the YNEG port.
        assert not XYRouting.is_turn_legal(Direction.YNEG, Direction.XPOS)
        assert not XYRouting.is_turn_legal(Direction.YNEG, Direction.XNEG)
        assert not XYRouting.is_turn_legal(Direction.YPOS, Direction.XPOS)

    def test_x_to_y_turns_legal(self):
        assert XYRouting.is_turn_legal(Direction.XNEG, Direction.YPOS)
        assert XYRouting.is_turn_legal(Direction.XPOS, Direction.YNEG)

    def test_straight_through_legal(self):
        assert XYRouting.is_turn_legal(Direction.XNEG, Direction.XPOS)
        assert XYRouting.is_turn_legal(Direction.YPOS, Direction.YNEG)

    def test_u_turns_illegal(self):
        assert not XYRouting.is_turn_legal(Direction.XNEG, Direction.XNEG)
        assert not XYRouting.is_turn_legal(Direction.YPOS, Direction.YPOS)

    def test_local_always_legal(self):
        for d in Direction:
            assert XYRouting.is_turn_legal(Direction.LOCAL, d)
            assert XYRouting.is_turn_legal(d, Direction.LOCAL)

    def test_all_generated_paths_respect_turn_rules(self, routing):
        topo = routing.topology
        for src in (0, 27, 63, 12):
            for dst in range(topo.num_nodes):
                if dst == src:
                    continue
                p = routing.path(src, dst)
                incoming = Direction.LOCAL
                for a, b in zip(p, p[1:]):
                    outgoing = topo.direction_to_neighbor(a, b)
                    assert XYRouting.is_turn_legal(incoming, outgoing)
                    incoming = outgoing.opposite


class TestPathLinks:
    @staticmethod
    def links(routing, source, target):
        nodes = routing.path(source, target)
        return set(zip(nodes, nodes[1:]))

    def test_link_on_path(self, routing):
        assert (27, 28) in self.links(routing, 26, 29)
        assert (26, 27) in self.links(routing, 26, 29)

    def test_link_off_path(self, routing):
        assert (28, 27) not in self.links(routing, 26, 29)  # wrong direction
        assert (27, 35) not in self.links(routing, 26, 29)  # not on path


class TestSharedRouteTables:
    """Default routings of one fabric share their memo dicts for the
    life of the process; what a network computes must not depend on
    which networks filled them before it."""

    CASES = {
        "mesh8": (dict(), PowerPunchPG),
        "mesh4": (dict(width=4, height=4), PowerPunchPG),
        "mesh4-one-hop": (dict(width=4, height=4), ConvOptPG),
        "mesh4-reroute": (
            dict(
                width=4, height=4, degradation="reroute", dead_router_threshold=50,
                faults="router_stall,router=5,start=0",
            ),
            PowerPunchPG,
        ),
    }

    @staticmethod
    def empty_tables():
        _static_tables.cache_clear()
        _punch_tables.cache_clear()

    @classmethod
    def run(cls, case):
        options, scheme = cls.CASES[case]
        net = Network(NoCConfig(**options), scheme())
        traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=3)
        measure(net, traffic, warmup=100, measurement=400, drain=False)
        controllers = net.policy.controllers
        return (
            net.stats.as_dict(),
            net.link_counts,
            [(c.state, c.on_cycles, c.wake_events, c.last_sleep_cycle) for c in controllers],
            sorted(net.dead_routers),
        )

    def test_interleaved_networks_equal_their_cold_runs(self):
        cold = {}
        for case in self.CASES:
            self.empty_tables()
            cold[case] = self.run(case)
        assert cold["mesh4-reroute"][3] == [5]  # the detour tables were in play
        self.empty_tables()
        for _round in range(2):  # second round: every table already filled
            for case in self.CASES:
                assert self.run(case) == cold[case], case

    def test_same_fabric_same_tables(self):
        one, other = (Network(NoCConfig(width=4, height=4)) for _ in range(2))
        assert one.routing is not other.routing
        assert one.routing._next_hop_cache is other.routing._next_hop_cache
        assert one.routing._direction_cache is other.routing._direction_cache
        bigger = Network(NoCConfig(width=5, height=4))
        assert bigger.routing._next_hop_cache is not one.routing._next_hop_cache

    def test_a_death_clears_private_tables_only(self):
        topo = MeshTopology(4, 4)
        plain = default_routing(topo)
        tolerant = FaultTolerantRouting(topo)
        assert tolerant.static_view._next_hop_cache is plain._next_hop_cache
        assert tolerant._next_hop_cache is not plain._next_hop_cache
        assert plain.next_hop(4, 6) == 5 and tolerant.next_hop(4, 6) == 5
        shared = dict(plain._next_hop_cache), dict(plain._direction_cache)
        assert tolerant.set_dead({5})  # clears, then detours
        assert tolerant.next_hop(4, 6) != 5
        assert (dict(plain._next_hop_cache), dict(plain._direction_cache)) == shared
        assert plain.next_hop(4, 6) == 5
        tolerant.clear_caches()
        assert not tolerant._next_hop_cache
        assert (dict(plain._next_hop_cache), dict(plain._direction_cache)) == shared
