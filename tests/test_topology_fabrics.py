"""Torus and ring fabrics: geometry, dateline routing, delivery.

The topology layer's acceptance criteria in one file:

* :class:`Torus2D` / :class:`Ring` geometry — wrap neighbors, minimal
  hop distance, diameter, port model, construction limits;
* :class:`TorusRouting` / :class:`RingRouting` — minimal direction
  choice, dateline VC classes, and an explicit acyclicity proof of the
  realized channel-dependency graph;
* config plumbing — typed construction-time validation, ``to_items``
  round-trips, cache-key stability for mesh configs;
* end-to-end delivery — a hypothesis property that torus and ring
  deliver every packet deadlock-free at low load across random seeds,
  and kernel-equivalence fingerprints (naive vs active vs vector) on
  the wrapped fabrics.
"""

import argparse
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import require_mesh_topology
from repro.core import ConvOptPG, NoPG, PowerPunchPG
from repro.noc import (
    ConfigError,
    Direction,
    InvariantChecker,
    InvariantViolation,
    Mesh2D,
    Network,
    NoCConfig,
    PostMortem,
    Ring,
    RingRouting,
    Torus2D,
    TorusRouting,
    UnsupportedTopologyError,
    XYRouting,
    default_routing,
    make_topology,
)
from repro.traffic import SyntheticTraffic, measure
from repro.traffic.patterns import transpose


class TestTorusGeometry:
    def test_wrap_neighbors(self):
        topo = Torus2D(4, 4)
        # Row 0 wraps in X, column 0 wraps in Y.
        assert topo.neighbor(0, Direction.XNEG) == 3
        assert topo.neighbor(3, Direction.XPOS) == 0
        assert topo.neighbor(0, Direction.YNEG) == 12
        assert topo.neighbor(12, Direction.YPOS) == 0
        # Interior neighbors match the mesh.
        assert topo.neighbor(5, Direction.XPOS) == 6
        assert topo.neighbor(5, Direction.YPOS) == 9

    def test_every_router_has_four_neighbors(self):
        topo = Torus2D(4, 3)
        for node in range(topo.num_nodes):
            assert len(list(topo.neighbors(node))) == 4
        # ...so the directed link count is exactly 4N (vs the mesh's
        # edge-trimmed 2(w-1)h + 2w(h-1)).
        assert len(list(topo.links())) == 4 * topo.num_nodes

    def test_hop_distance_takes_shorter_way_around(self):
        topo = Torus2D(8, 8)
        # Mesh corner-to-corner is 14; the torus wraps both dimensions.
        assert topo.hop_distance(0, 63) == 2
        assert topo.hop_distance(0, 7) == 1
        assert topo.hop_distance(0, 4) == 4  # antipodal: no shortcut
        assert Mesh2D(8, 8).hop_distance(0, 63) == 14

    def test_diameter_is_half_way_around_both_rings(self):
        assert Torus2D(8, 8).diameter == 8
        assert Torus2D(5, 3).diameter == 3
        assert Mesh2D(8, 8).diameter == 14

    def test_port_model_matches_mesh(self):
        assert Torus2D(3, 3).ports == Mesh2D(3, 3).ports
        assert Torus2D(3, 3).num_ports == 5

    def test_too_small_torus_rejected(self):
        # 2-wide rings make XPOS/XNEG neighbors coincide.
        with pytest.raises(ValueError):
            Torus2D(2, 4)
        with pytest.raises(ValueError):
            Torus2D(4, 2)

    def test_spec_string(self):
        assert Torus2D(5, 3).spec == "torus:5x3"
        assert Mesh2D(8, 8).spec == "mesh:8x8"


class TestRingGeometry:
    def test_cycle_neighbors(self):
        topo = Ring(8)
        assert topo.neighbor(0, Direction.XPOS) == 1
        assert topo.neighbor(7, Direction.XPOS) == 0
        assert topo.neighbor(0, Direction.XNEG) == 7
        assert topo.neighbor(0, Direction.YPOS) is None
        assert topo.neighbor(0, Direction.LOCAL) == 0

    def test_three_ports(self):
        topo = Ring(8)
        assert topo.num_ports == 3
        assert topo.ports == (Direction.LOCAL, Direction.XPOS, Direction.XNEG)
        for node in range(8):
            assert len(list(topo.neighbors(node))) == 2

    def test_hop_distance_and_diameter(self):
        topo = Ring(9)
        assert topo.hop_distance(0, 1) == 1
        assert topo.hop_distance(0, 8) == 1
        assert topo.hop_distance(0, 4) == 4
        assert topo.hop_distance(0, 5) == 4  # wraps
        assert topo.diameter == 4
        assert Ring(8).diameter == 4

    def test_rendered_as_single_row(self):
        topo = Ring(6)
        assert topo.shape == (6, 1)
        assert topo.coord(4).y == 0
        assert topo.spec == "ring:6x1"

    def test_too_small_ring_rejected(self):
        with pytest.raises(ValueError):
            Ring(2)


class TestMakeTopology:
    def test_registry(self):
        assert isinstance(make_topology("mesh", 4, 4), Mesh2D)
        assert isinstance(make_topology("torus", 4, 4), Torus2D)
        assert isinstance(make_topology("ring", 4, 4), Ring)

    def test_ring_takes_node_count_from_area(self):
        # An 8x8 config yields a 64-node ring: configs stay comparable
        # across topologies at equal node counts.
        topo = make_topology("ring", 8, 8)
        assert topo.num_nodes == 64

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("hypercube", 4, 4)


class TestDatelineRouting:
    def test_default_routing_per_topology(self):
        assert isinstance(default_routing(Mesh2D(4, 4)), XYRouting)
        assert isinstance(default_routing(Torus2D(4, 4)), TorusRouting)
        assert isinstance(default_routing(Ring(8)), RingRouting)

    def test_torus_takes_shorter_way(self):
        routing = TorusRouting(Torus2D(8, 8))
        assert routing.output_direction(0, 7) == Direction.XNEG  # wrap
        assert routing.output_direction(0, 3) == Direction.XPOS
        assert routing.output_direction(0, 56) == Direction.YNEG  # wrap
        assert routing.output_direction(0, 0) == Direction.LOCAL
        # X resolves strictly before Y, as on the mesh.
        assert routing.output_direction(0, 63) == Direction.XNEG

    def test_ring_takes_shorter_way(self):
        routing = RingRouting(Ring(8))
        assert routing.output_direction(0, 3) == Direction.XPOS
        assert routing.output_direction(0, 5) == Direction.XNEG
        # Ties break clockwise.
        assert routing.output_direction(0, 4) == Direction.XPOS

    def test_torus_dateline_classes(self):
        routing = TorusRouting(Torus2D(8, 8))
        vcs = list(range(4))
        # 6 -> 1 travels X+ through the wrap: the dateline is ahead, so
        # only the class-0 half of the vnet's VCs may be claimed.
        assert routing.vc_choices(6, Direction.XPOS, 1, vcs) == [0, 1]
        # 1 -> 6 travels X- through the same wrap.
        assert routing.vc_choices(1, Direction.XNEG, 6, vcs) == [0, 1]
        # 1 -> 3 never crosses the wrap: class 1.
        assert routing.vc_choices(1, Direction.XPOS, 3, vcs) == [2, 3]
        # Ejection takes part in no ring dependency: unrestricted.
        assert routing.vc_choices(3, Direction.LOCAL, 3, vcs) == vcs

    def test_ring_dateline_classes(self):
        routing = RingRouting(Ring(8))
        vcs = list(range(4))
        assert routing.vc_choices(6, Direction.XPOS, 1, vcs) == [0, 1]
        assert routing.vc_choices(6, Direction.XPOS, 7, vcs) == [2, 3]
        assert routing.vc_choices(1, Direction.XNEG, 6, vcs) == [0, 1]
        assert routing.vc_choices(3, Direction.XNEG, 1, vcs) == [2, 3]

    def test_class_transitions_only_go_forward(self):
        # Along any path, the dateline class per dimension may only
        # move 0 -> 1 (crossing the wrap resets nothing behind it).
        routing = TorusRouting(Torus2D(5, 5))
        topo = routing.topology
        probe = list(range(2))
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                if src == dst:
                    continue
                path = routing.path(src, dst)
                last = {"x": -1, "y": -1}
                for node in path[:-1]:
                    d = routing.output_direction(node, dst)
                    cls = routing.vc_choices(node, d, dst, probe)[0]
                    dim = "x" if d.is_x else "y"
                    assert cls >= last[dim]
                    last[dim] = cls

    @pytest.mark.parametrize(
        "routing",
        [
            XYRouting(Mesh2D(4, 4)),
            TorusRouting(Torus2D(4, 4)),
            TorusRouting(Torus2D(5, 3)),
            RingRouting(Ring(8)),
            RingRouting(Ring(9)),
        ],
        ids=lambda r: f"{type(r).__name__}-{r.topology.spec}",
    )
    def test_channel_dependency_graph_is_acyclic(self, routing):
        assert routing.verify_deadlock_free() > 0

    def test_cdg_checker_catches_a_cycle(self):
        # The certification must be a real check, not a rubber stamp:
        # a torus routed without VC restriction has the classic ring
        # dependency cycle.
        class UnrestrictedTorus(TorusRouting):
            restricts_vcs = False

        with pytest.raises(InvariantViolation, match="cdg-acyclic"):
            UnrestrictedTorus(Torus2D(4, 4)).verify_deadlock_free()

    def test_paths_are_minimal_on_wrapped_fabrics(self):
        for routing in (TorusRouting(Torus2D(5, 4)), RingRouting(Ring(11))):
            topo = routing.topology
            for src in range(topo.num_nodes):
                for dst in range(topo.num_nodes):
                    path = routing.path(src, dst)
                    assert len(path) - 1 == topo.hop_distance(src, dst)


class TestConfigPlumbing:
    def test_topology_typo_rejected(self):
        with pytest.raises(ConfigError):
            NoCConfig(topology="taurus")

    def test_reroute_is_mesh_only(self):
        with pytest.raises(UnsupportedTopologyError):
            NoCConfig(width=4, height=4, topology="torus", degradation="reroute")

    def test_wrapped_fabrics_need_two_vcs_per_vnet(self):
        with pytest.raises(UnsupportedTopologyError, match="dateline"):
            NoCConfig(width=4, height=4, topology="torus", vcs_per_vnet=1)
        with pytest.raises(UnsupportedTopologyError):
            NoCConfig(topology="ring", vcs_per_vnet=1)
        # The mesh needs no dateline classes: one VC per vnet is fine.
        NoCConfig(vcs_per_vnet=1)

    def test_bad_shapes_fail_at_config_time(self):
        with pytest.raises(ValueError):
            NoCConfig(width=2, height=4, topology="torus")
        with pytest.raises(ValueError):
            NoCConfig(width=2, height=1, topology="ring")

    def test_round_trip_preserves_topology(self):
        cfg = NoCConfig(width=4, height=4, topology="torus", kernel="naive")
        items = cfg.to_items()
        assert ("topology", "torus") in items
        assert NoCConfig.from_items(items) == cfg

    def test_mesh_cache_keys_unchanged(self):
        # The default topology must not appear in the wire form, so
        # every pre-topology-layer mesh cache entry stays addressable.
        assert "topology" not in dict(NoCConfig().to_items())
        assert "topology" not in dict(NoCConfig(width=4, height=4).to_items())

    def test_punch_schemes_refuse_non_mesh(self):
        with pytest.raises(UnsupportedTopologyError, match="turn restrictions"):
            Network(NoCConfig(width=4, height=4, topology="torus"), PowerPunchPG())

    def test_one_hop_wakeup_runs_on_any_fabric(self):
        net = Network(NoCConfig(width=4, height=4, topology="torus"), ConvOptPG())
        net.step()

    def test_mesh_only_experiments_reject_topology_flag(self):
        args = argparse.Namespace(topology="ring")
        with pytest.raises(SystemExit, match="mesh-only"):
            require_mesh_topology(args, "fig12")
        require_mesh_topology(argparse.Namespace(topology="mesh"), "fig12")

    def test_transpose_rejects_one_dimensional_fabrics(self):
        rng = random.Random(0)
        with pytest.raises(UnsupportedTopologyError):
            transpose(3, Ring(8), rng)
        assert transpose(11, Torus2D(8, 8), rng) == 25

    def test_post_mortem_renders_coordinates(self):
        assert PostMortem._node(27, (3, 3)) == "R27(3,3)"
        assert PostMortem._node(5, None) == "R5"


def _fingerprint(topology, width, height, scheme_factory, kernel, seed):
    net = Network(
        NoCConfig(width=width, height=height, topology=topology, kernel=kernel),
        scheme_factory(),
    )
    traffic = SyntheticTraffic(net, "uniform_random", 0.03, seed=seed)
    measure(net, traffic, warmup=200, measurement=800)
    return dict(net.stats.as_dict())


class TestWrappedFabricKernels:
    @pytest.mark.parametrize("scheme_factory", [NoPG, ConvOptPG])
    @pytest.mark.parametrize(
        "topology,width,height", [("torus", 4, 4), ("ring", 12, 1)]
    )
    def test_three_kernel_fingerprints_match(
        self, topology, width, height, scheme_factory
    ):
        dumps = [
            _fingerprint(topology, width, height, scheme_factory, kernel, seed=7)
            for kernel in ("naive", "active", "vector")
        ]
        assert dumps[0] == dumps[1] == dumps[2]
        assert dumps[0]["delivered"] > 0

    def test_vector_engine_engages_on_wrapped_fabrics(self):
        # Ungated traffic runs on the SoA engine (snapshot routing
        # tables)...
        net = Network(NoCConfig(width=4, height=4, topology="torus", kernel="vector"))
        net.step()
        assert net._engine is not None
        # ...while gated schemes decline engagement off the mesh and
        # must run bit-identically on the active fallback (asserted by
        # the fingerprint test above).
        net = Network(
            NoCConfig(width=4, height=4, topology="torus", kernel="vector"),
            ConvOptPG(),
        )
        net.step()
        assert net._engine is None


class TestWrappedFabricDelivery:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fabric=st.sampled_from([("torus", 4, 4), ("torus", 5, 3), ("ring", 9, 1)]),
    )
    def test_low_load_delivers_everything_deadlock_free(self, seed, fabric):
        topology, width, height = fabric
        net = Network(NoCConfig(width=width, height=height, topology=topology))
        net.install_invariants(InvariantChecker(strict=True))
        traffic = SyntheticTraffic(net, "uniform_random", 0.04, seed=seed)
        traffic.run(400)
        traffic.drain(max_cycles=50_000)
        assert net.stats.delivered > 0
        assert net.in_flight_packets() == 0
        assert not net.invariants.violations
