"""Tests for deadlock-free fault-tolerant rerouting and wakeup retry.

``degradation="reroute"`` swaps the network's routing function for
:class:`~repro.noc.routing.FaultTolerantRouting` — an up*/down*
derivative whose channel-dependency graph is provably acyclic for any
dead set — and, when routers are declared permanently dead, purges
only the packets rerouting cannot save, recomputes every surviving
head flit's route, and keeps the rest of the traffic flowing on
detours.  The PG controllers independently gain a retry/backoff
protocol for wakeup requests lost to ``wakeup_fail`` faults.
"""

import random

import pytest

from repro.core import NoPG, PowerPunchPG
from repro.noc import (
    FaultInjector,
    FaultSchedule,
    FaultTolerantRouting,
    MeshTopology,
    Network,
    NoCConfig,
    SimulationError,
    VirtualNetwork,
    XYRouting,
    control_packet,
)
from repro.noc.packet import reset_packet_ids
from repro.powergate.controller import (
    RETRY_CAP,
    RETRY_TIMEOUT,
    PGState,
    PowerGateController,
)
from repro.traffic import SyntheticTraffic

#: Router 5 sits mid-mesh on the 4->6 XY route of a 4x4 mesh.
DEAD = 5


def build(
    *,
    kernel="active",
    threshold=50,
    scheme=None,
    dead=DEAD,
    start=0,
    width=4,
    height=4,
    **robustness,
):
    routers = dead if isinstance(dead, (list, tuple, set)) else [dead]
    config = NoCConfig(
        width=width,
        height=height,
        kernel=kernel,
        degradation="reroute",
        dead_router_threshold=threshold,
        faults=";".join(
            f"router_stall,router={rid},start={start}" for rid in sorted(routers)
        ),
        **robustness,
    )
    return Network(config, scheme if scheme is not None else NoPG())


class TestXYRoutingCaches:
    def test_caches_are_injectable_and_clearable(self):
        topo = MeshTopology(4, 4)
        directions, hops = {}, {}
        rt = XYRouting(topo, direction_cache=directions, next_hop_cache=hops)
        assert rt.next_hop(4, 6) == 5
        assert (4, 6) in hops and (4, 6) in directions
        rt.clear_caches()
        assert not hops and not directions

    def test_static_view_is_self(self):
        rt = XYRouting(MeshTopology(4, 4))
        assert rt.static_view is rt

    def test_path_walk_is_bounded(self):
        class Loopy(XYRouting):
            def output_direction(self, current, destination):
                # A (buggy) routing function that never converges.
                from repro.noc.topology import Direction

                return Direction.XPOS if current % 4 < 3 else Direction.XNEG

        with pytest.raises(SimulationError):
            Loopy(MeshTopology(4, 4)).path(0, 15)


class TestFaultTolerantRouting:
    @pytest.mark.parametrize("dead", range(16))
    def test_single_dead_placement_is_deadlock_free_and_complete(self, dead):
        """For EVERY single-router fault on a 4x4 mesh: the channel
        dependency graph stays acyclic and every live pair remains
        mutually reachable on a dead-free path."""
        rt = FaultTolerantRouting(MeshTopology(4, 4))
        assert rt.set_dead(frozenset({dead}))
        assert rt.verify_deadlock_free() > 0
        live = [n for n in range(16) if n != dead]
        for s in live:
            for d in live:
                assert rt.reachable(s, d)
                if s != d:
                    path = rt.path(s, d)
                    assert dead not in path
                    assert path[0] == s and path[-1] == d

    def test_region_fault_stays_acyclic(self):
        rt = FaultTolerantRouting(MeshTopology(4, 4))
        rt.set_dead(frozenset({5, 6, 9}))
        rt.verify_deadlock_free()
        live = [n for n in range(16) if n not in (5, 6, 9)]
        for s in live:
            for d in live:
                assert rt.reachable(s, d)

    def test_disconnected_node_is_reported_unreachable(self):
        # Killing 1 and 4 cuts corner node 0 off a 4x4 mesh.
        rt = FaultTolerantRouting(MeshTopology(4, 4))
        rt.set_dead(frozenset({1, 4}))
        rt.verify_deadlock_free()
        assert not rt.reachable(0, 15)
        assert not rt.reachable(15, 0)
        assert rt.reachable(2, 15)
        with pytest.raises(SimulationError):
            rt.output_direction(15, 0)

    def test_set_dead_is_a_noop_for_same_set(self):
        rt = FaultTolerantRouting(MeshTopology(4, 4))
        assert rt.set_dead(frozenset({5}))
        assert not rt.set_dead(frozenset({5}))
        assert rt.set_dead(frozenset())

    def test_static_view_stays_pure_xy(self):
        rt = FaultTolerantRouting(MeshTopology(4, 4))
        rt.set_dead(frozenset({5}))
        assert rt.next_hop(4, 6) != 5
        assert rt.static_view.next_hop(4, 6) == 5  # XY twin unaffected

    def test_empty_dead_set_is_plain_xy(self):
        topo = MeshTopology(4, 4)
        ft = FaultTolerantRouting(topo)
        xy = XYRouting(topo)
        for s in range(16):
            for d in range(16):
                assert ft.output_direction(s, d) == xy.output_direction(s, d)


class TestStaleRouteRegression:
    def test_routes_recompute_after_mid_run_death(self):
        """Kill a router mid-run after its routes are cached: the
        caches must be invalidated, not served stale."""
        net = build(threshold=50, start=100)
        # Populate the (4, 6) route through router 5 in the caches.
        assert net.routing.next_hop(4, 6) == DEAD
        p = control_packet(4, 6, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run(50)
        assert p.delivered_at is not None  # delivered before the death
        net.run(110)  # stall opens at 100, threshold 50
        assert net.dead_routers == {DEAD}
        assert net.routing.next_hop(4, 6) != DEAD
        late = control_packet(4, 6, VirtualNetwork.REQUEST, net.cycle)
        net.inject(late)
        net.run_until_drained(5000)
        assert late.delivered_at is not None
        assert DEAD not in late.blocked_routers
        assert late.hops_taken > 2  # took a detour, not the XY route


class TestRerouteDegradation:
    @pytest.mark.parametrize("kernel", ["active", "naive"])
    def test_traffic_keeps_flowing_with_invariants_green(self, kernel):
        net = build(kernel=kernel, threshold=60, strict_invariants=True, watchdog=50_000)
        checker = net.invariants
        traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=3)
        traffic.run(600)
        assert net.dead_routers == {DEAD}
        traffic.drain()
        stats = net.stats
        assert stats.rerouted_packets > 0
        assert stats.detour_hops >= stats.rerouted_packets
        # Everything injected was either delivered or purged with
        # accounting at the moment of death.
        assert stats.delivered == stats.injected_packets - (
            stats.dropped_packets - stats.refused_packets
        )
        assert checker.checks_run > 0

    def test_reroute_is_kernel_exact(self):
        dumps = []
        for kernel in ("active", "naive"):
            reset_packet_ids()
            net = build(kernel=kernel, threshold=60, scheme=PowerPunchPG())
            traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=3)
            traffic.run(600)
            traffic.drain()
            dumps.append((net.cycle, net.stats.as_dict()))
        assert dumps[0] == dumps[1]

    def test_unreachable_destination_is_refused_not_hung(self):
        """A node disconnected by the fault becomes an accounted
        refusal at the NI door — never a silent hang."""
        net = build(dead=[1, 4], threshold=40, strict_invariants=True, watchdog=50_000)
        net.run(50)
        assert net.dead_routers == {1, 4}
        stranded = control_packet(0, 15, VirtualNetwork.REQUEST, net.cycle)
        toward = control_packet(15, 0, VirtualNetwork.REQUEST, net.cycle)
        live = control_packet(2, 15, VirtualNetwork.REQUEST, net.cycle)
        for p in (stranded, toward, live):
            net.inject(p)
        assert net.stats.refused_packets == 2
        net.run_until_drained(5000)
        assert live.delivered_at is not None
        assert stranded.delivered_at is None and toward.delivered_at is None

    def test_acceptance_8x8_one_dead_router_99pct_delivery(self):
        """Acceptance gate: 8x8 uniform random at 0.02 flits/node/cycle
        with one mid-mesh router dying mid-run — at least 99% of the
        packets injected into the mesh are delivered, under the strict
        checker and deadlock watchdog."""
        net = build(
            width=8, height=8, dead=27, start=500, threshold=100,
            strict_invariants=True, watchdog=50_000,
        )
        checker = net.invariants
        traffic = SyntheticTraffic(net, "uniform_random", 0.02, seed=11)
        traffic.run(4000)
        assert net.dead_routers == {27}
        traffic.drain()
        stats = net.stats
        assert stats.injected_packets > 1000
        assert stats.delivered >= 0.99 * stats.injected_packets
        assert stats.rerouted_packets > 0
        assert checker.checks_run > 0

    def test_watchdog_error_carries_fault_context(self):
        """With no degradation a permanently stalled router wedges the
        packet behind it until the watchdog trips; the error names the
        fault schedule, and no router was ever declared dead."""
        config = NoCConfig(
            width=4,
            height=4,
            dead_router_threshold=50,
            faults=f"router_stall,router={DEAD}",
            strict_invariants=True,
            watchdog=100,
        )
        net = Network(config, NoPG())
        net.inject(control_packet(4, 6, VirtualNetwork.REQUEST, 0))
        from repro.noc import DeadlockError

        with pytest.raises(DeadlockError) as excinfo:
            net.run(300)
        err = excinfo.value
        assert "router_stall" in err.fault_spec
        assert err.dead_routers == ()


class TestWakeupRetry:
    def _make(self, spec):
        controller = PowerGateController(0, wakeup_latency=4, timeout=2)
        controller.faults = FaultInjector(FaultSchedule.parse(spec))
        return controller

    def _sleep(self, controller):
        cycle = 0
        while controller.state is not PGState.OFF:
            controller.step(cycle, True, False)
            cycle += 1
        return cycle

    def test_lost_wakeup_is_retried_with_backoff(self):
        from repro.noc import NetworkStats

        controller = self._make("wakeup_fail,rate=1.0,start=0,end=100;seed=5")
        controller.stats = stats = NetworkStats()
        cycle = self._sleep(controller)
        controller.request_wakeup(cycle, 0)
        assert controller.state is PGState.OFF  # swallowed by the fault
        assert controller.retry_at == cycle + RETRY_TIMEOUT
        deadlines = []
        while cycle <= 120:
            before = controller.retry_at
            controller.step(cycle, True, False)
            if controller.state is not PGState.OFF:
                break
            if controller.retry_at != before:
                deadlines.append(controller.retry_at - cycle)
            cycle += 1
        # The re-issue deadline doubled (capped) while the fault window
        # was open, then a retry finally got through and woke the router.
        assert deadlines
        assert all(b <= RETRY_CAP for b in deadlines)
        assert sorted(deadlines) == deadlines
        assert controller.state in (PGState.WAKING, PGState.ACTIVE)
        assert stats.wakeup_retries == len(deadlines) + 1

    def test_delivered_request_clears_pending_retry(self):
        controller = self._make("wakeup_fail,rate=1.0,start=0,end=10;seed=5")
        cycle = self._sleep(controller)
        controller.request_wakeup(cycle, 0)
        assert controller.retry_at is not None
        # A later organic request (after the fault window) gets through
        # and supersedes the pending retry.
        controller.request_wakeup(50, 0)
        assert controller.state is PGState.WAKING
        assert controller.retry_at is None and controller.retry_backoff == 0

    def test_delay_fault_does_not_arm_retry(self):
        controller = self._make("wakeup_delay,rate=1.0,delay=6;seed=5")
        cycle = self._sleep(controller)
        controller.request_wakeup(cycle, 0)
        # Delayed but delivered: the router wakes late, no retry needed.
        assert controller.state is PGState.WAKING
        assert controller.retry_at is None

    def test_retry_mirrors_into_network_stats(self):
        from repro.noc import NetworkStats

        stats = NetworkStats()
        controller = self._make("wakeup_fail,rate=1.0,start=0,end=100;seed=5")
        controller.stats = stats
        cycle = self._sleep(controller)
        controller.request_wakeup(cycle, 0)
        for c in range(cycle, cycle + 2 * RETRY_TIMEOUT):
            controller.step(c, True, False)
        # One re-issue at RETRY_TIMEOUT; the doubled backoff puts the
        # next one past the window.
        assert stats.wakeup_retries == 1

    @pytest.mark.parametrize("kernel", ["active", "naive"])
    def test_retries_unwedge_gated_network(self, kernel):
        """End to end: a total wakeup_fail window would leave OFF
        routers dark forever without retries; with them the network
        drains and the counters land in NetworkStats."""
        reset_packet_ids()
        config = NoCConfig(
            width=4,
            height=4,
            kernel=kernel,
            faults="wakeup_fail,rate=1.0,start=0,end=300;seed=9",
        )
        net = Network(config, PowerPunchPG(wakeup_latency=8, timeout=4))
        rng = random.Random(3)
        for cyc in range(600):
            if cyc < 400 and rng.random() < 0.1:
                s = rng.randrange(16)
                d = rng.randrange(16)
                while d == s:
                    d = rng.randrange(16)
                net.inject(control_packet(s, d, VirtualNetwork.REQUEST, net.cycle))
            net.step()
        net.run_until_drained(50_000)
        assert net.stats.wakeup_retries > 0
        assert net.stats.delivered == net.stats.injected_packets

    def test_retry_is_kernel_exact(self):
        dumps = []
        for kernel in ("active", "naive"):
            reset_packet_ids()
            config = NoCConfig(
                width=4,
                height=4,
                kernel=kernel,
                faults="wakeup_fail,rate=1.0,start=0,end=400;seed=13",
            )
            net = Network(config, PowerPunchPG(wakeup_latency=8, timeout=4))
            traffic = SyntheticTraffic(net, "uniform_random", 0.03, seed=5)
            traffic.run(700)
            traffic.drain()
            dumps.append((net.cycle, net.stats.as_dict()))
        assert dumps[0] == dumps[1]
        assert dumps[0][1]["wakeup_retries"] > 0
