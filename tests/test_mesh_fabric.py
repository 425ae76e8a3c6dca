"""The mesh is the simulator's one fabric: geometry, XY routing, delivery.

The fabric layer's acceptance criteria in one file:

* :class:`MeshTopology` geometry over square and rectangular meshes —
  edge-trimmed links, link symmetry through opposite ports, Manhattan
  distance, the ``spec`` string, and the contiguous port codes the
  vector kernel's ``(router * P + port) * V + vc`` layout indexes by;
* :class:`XYRouting` — minimal paths and an explicit acyclicity proof of
  the realized channel-dependency graph, and a
  :class:`FaultTolerantRouting` that is plain XY while no router is dead;
* config plumbing — ``topology`` admits only ``"mesh"`` and stays out of
  the wire form, so mesh cache keys do not move;
* end-to-end delivery — kernel-equivalence fingerprints (naive vs active
  vs vector) per scheme on a square and a rectangular mesh, and a
  hypothesis property that low load delivers every packet deadlock-free
  across random shapes and seeds.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConvOptPG, NoPG, PowerPunchPG
from repro.noc import (
    VALID_TOPOLOGIES,
    ConfigError,
    Direction,
    FaultTolerantRouting,
    InvariantViolation,
    MeshTopology,
    Network,
    NoCConfig,
    PostMortem,
    XYRouting,
    default_routing,
)
from repro.noc.routing import _raise_on_cdg_cycle
from repro.traffic import SyntheticTraffic, measure
from repro.traffic.patterns import transpose

#: Square and rectangular meshes, down to the smallest legal one.
SHAPES = [(2, 2), (3, 5), (4, 4), (5, 3), (8, 8)]
_SHAPE_IDS = [f"{w}x{h}" for w, h in SHAPES]

shapes = pytest.mark.parametrize("width,height", SHAPES, ids=_SHAPE_IDS)


def _xy_channel_dependencies(routing):
    """Realized channel-dependency graph of ``routing`` over all pairs."""
    deps = {}
    topo = routing.topology
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            path = routing.path(src, dst)
            for a, b, c in zip(path, path[1:], path[2:]):
                bucket = deps.setdefault((a, b), [])
                if (b, c) not in bucket:
                    bucket.append((b, c))
    return deps


class TestMeshGeometry:
    @shapes
    def test_link_count_is_edge_trimmed(self, width, height):
        topo = MeshTopology(width, height)
        links = list(topo.links())
        assert len(links) == 2 * (width - 1) * height + 2 * width * (height - 1)
        assert len(set(links)) == len(links)

    @shapes
    def test_every_link_returns_through_the_opposite_port(self, width, height):
        topo = MeshTopology(width, height)
        for node in range(topo.num_nodes):
            for direction, other in topo.neighbors(node):
                assert topo.neighbor(other, direction.opposite) == node
                assert topo.direction_to_neighbor(node, other) == direction

    @shapes
    def test_hop_distance_is_manhattan(self, width, height):
        topo = MeshTopology(width, height)
        corner = topo.node_at(width - 1, height - 1)
        assert topo.hop_distance(0, corner) == (width - 1) + (height - 1)
        for a in range(topo.num_nodes):
            for b in range(topo.num_nodes):
                assert topo.hop_distance(a, b) == topo.hop_distance(b, a)
                ca, cb = topo.coord(a), topo.coord(b)
                assert topo.hop_distance(a, b) == abs(ca.x - cb.x) + abs(ca.y - cb.y)

    @shapes
    def test_spec_string(self, width, height):
        topo = MeshTopology(width, height)
        assert topo.spec == f"mesh:{width}x{height}"
        assert NoCConfig(width=width, height=height).make_topology().spec == topo.spec

    @shapes
    def test_edge_routers_lose_exactly_their_outward_ports(self, width, height):
        topo = MeshTopology(width, height)
        for node in range(topo.num_nodes):
            c = topo.coord(node)
            missing = {d for d in Direction if d != Direction.LOCAL} - {
                d for d, _ in topo.neighbors(node)
            }
            expected = set()
            if c.x == 0:
                expected.add(Direction.XNEG)
            if c.x == width - 1:
                expected.add(Direction.XPOS)
            if c.y == 0:
                expected.add(Direction.YNEG)
            if c.y == height - 1:
                expected.add(Direction.YPOS)
            assert missing == expected

    def test_ports_are_contiguous_codes_from_local(self):
        topo = MeshTopology(4, 4)
        assert [int(p) for p in topo.ports] == list(range(topo.num_ports))
        assert topo.ports[0] == Direction.LOCAL
        assert topo.num_ports == 5

    def test_height_defaults_to_width(self):
        topo = MeshTopology(6)
        assert (topo.width, topo.height, topo.num_nodes) == (6, 6, 36)


class TestXYRouting:
    @shapes
    def test_paths_are_minimal(self, width, height):
        routing = XYRouting(MeshTopology(width, height))
        topo = routing.topology
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                assert len(routing.path(src, dst)) - 1 == topo.hop_distance(src, dst)

    @shapes
    def test_channel_dependency_graph_is_acyclic(self, width, height):
        deps = _xy_channel_dependencies(XYRouting(MeshTopology(width, height)))
        assert sum(len(v) for v in deps.values()) > 0
        _raise_on_cdg_cycle(deps, f"XY on mesh:{width}x{height}")

    @shapes
    def test_fault_free_tolerant_routing_is_xy(self, width, height):
        topo = MeshTopology(width, height)
        xy = XYRouting(topo)
        ft = FaultTolerantRouting(topo)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                assert ft.output_direction(src, dst) == xy.output_direction(src, dst)
                assert ft.reachable(src, dst)
        assert ft.static_view.path(0, topo.num_nodes - 1) == xy.path(0, topo.num_nodes - 1)
        assert ft.verify_deadlock_free() == 0

    def test_cdg_checker_catches_a_cycle(self):
        # The certification must be a real check, not a rubber stamp:
        # routing around one mesh square without turn restrictions
        # closes the classic four-link dependency cycle.
        deps = {(0, 1): [(1, 5)], (1, 5): [(5, 4)], (5, 4): [(4, 0)], (4, 0): [(0, 1)]}
        with pytest.raises(InvariantViolation, match="cdg-acyclic"):
            _raise_on_cdg_cycle(deps, "unrestricted square")

    def test_default_routing_is_xy_on_shared_memos(self):
        one = default_routing(MeshTopology(4, 4))
        other = default_routing(MeshTopology(4, 4))
        assert type(one) is XYRouting
        assert one is not other
        assert one._direction_cache is other._direction_cache
        assert default_routing(MeshTopology(4, 5))._direction_cache is not one._direction_cache


class TestConfigPlumbing:
    @pytest.mark.parametrize("name", ["torus", "ring", "taurus", "Mesh"])
    def test_only_the_mesh_is_a_topology(self, name):
        with pytest.raises(ConfigError) as excinfo:
            NoCConfig(topology=name)
        assert excinfo.value.field == "topology"
        assert excinfo.value.valid == ("mesh",)

    def test_explicit_mesh_is_the_default(self):
        assert VALID_TOPOLOGIES == ("mesh",)
        assert NoCConfig(topology="mesh") == NoCConfig()

    def test_mesh_cache_keys_unchanged(self):
        # The default topology must not appear in the wire form, so
        # every mesh cache entry stays addressable.
        assert "topology" not in dict(NoCConfig().to_items())
        assert "topology" not in dict(NoCConfig(width=4, height=4).to_items())

    def test_round_trip(self):
        for cfg in (
            NoCConfig(),
            NoCConfig(width=5, height=3, kernel="naive"),
            NoCConfig(width=4, height=4, degradation="reroute", vcs_per_vnet=1),
        ):
            assert NoCConfig.from_items(cfg.to_items()) == cfg

    def test_one_vc_per_vnet_delivers_on_the_mesh(self):
        net = Network(NoCConfig(width=4, height=4, vcs_per_vnet=1))
        traffic = SyntheticTraffic(net, "uniform_random", 0.03, seed=5)
        traffic.run(300)
        traffic.drain(max_cycles=20_000)
        assert net.stats.delivered > 0
        assert net.in_flight_packets() == 0

    def test_transpose_mirrors_the_diagonal(self):
        topo = MeshTopology(8, 8)
        rng = random.Random(0)
        assert transpose(11, topo, rng) == 25
        for node in range(topo.num_nodes):
            assert transpose(transpose(node, topo, rng), topo, rng) == node

    def test_post_mortem_renders_coordinates(self):
        assert PostMortem._node(27, (3, 3)) == "R27(3,3)"
        assert PostMortem._node(5, None) == "R5"


def _fingerprint(width, height, scheme_factory, kernel, seed):
    net = Network(NoCConfig(width=width, height=height, kernel=kernel), scheme_factory())
    traffic = SyntheticTraffic(net, "uniform_random", 0.03, seed=seed)
    measure(net, traffic, warmup=200, measurement=800)
    return dict(net.stats.as_dict())


class TestMeshKernels:
    @pytest.mark.parametrize("scheme_factory", [NoPG, ConvOptPG, PowerPunchPG])
    @pytest.mark.parametrize("width,height", [(4, 4), (5, 3)], ids=["4x4", "5x3"])
    def test_three_kernel_fingerprints_match(self, width, height, scheme_factory):
        dumps = [
            _fingerprint(width, height, scheme_factory, kernel, seed=7)
            for kernel in ("naive", "active", "vector")
        ]
        assert dumps[0] == dumps[1] == dumps[2]
        assert dumps[0]["delivered"] > 0

    @pytest.mark.parametrize("scheme_factory", [NoPG, ConvOptPG, PowerPunchPG])
    def test_vector_engine_engages_for_every_scheme(self, scheme_factory):
        net = Network(NoCConfig(width=4, height=4, kernel="vector"), scheme_factory())
        net.step()
        assert net._engine is not None


class TestMeshDelivery:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shape=st.sampled_from([(4, 4), (5, 3), (3, 6)]),
    )
    def test_low_load_delivers_everything_deadlock_free(self, seed, shape):
        width, height = shape
        net = Network(NoCConfig(width=width, height=height, strict_invariants=True))
        traffic = SyntheticTraffic(net, "uniform_random", 0.04, seed=seed)
        traffic.run(400)
        traffic.drain(max_cycles=50_000)
        assert net.stats.delivered > 0
        assert net.in_flight_packets() == 0
