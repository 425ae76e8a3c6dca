"""Property-based tests (hypothesis) for fault-tolerant rerouting.

The headline properties the reroute tier must uphold, checked over
randomized placements, workloads and seeds rather than hand-picked
scenarios:

* for EVERY single-dead-router placement on a 4x4 mesh, traffic
  injected after the death is fully delivered — no deadlock, no silent
  loss — under the strict invariant checker and deadlock watchdog;
* the up*/down* channel-dependency graph stays acyclic for arbitrary
  (multi-router) dead sets;
* the active-set kernel and the naive kernel remain cycle- and
  stat-exact under reroute degradation for random workloads.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import NoPG, PowerPunchPG
from repro.noc import (
    FaultTolerantRouting,
    MeshTopology,
    Network,
    NoCConfig,
    VirtualNetwork,
    control_packet,
)
from repro.noc.packet import reset_packet_ids
from repro.traffic import SyntheticTraffic

MESH = 4
NODES = MESH * MESH


def _reroute_network(dead, *, kernel="active", start=20, threshold=30, **robustness):
    config = NoCConfig(
        width=MESH,
        height=MESH,
        kernel=kernel,
        degradation="reroute",
        dead_router_threshold=threshold,
        faults=f"router_stall,router={dead},start={start}",
        **robustness,
    )
    return Network(config, NoPG())


def _checked_reroute_network(dead):
    """The placement sweeps' network, under the strict checker."""
    return _reroute_network(dead, strict_invariants=True, watchdog=20_000)


class TestEveryPlacementDelivers:
    @settings(
        max_examples=16,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(dead=st.integers(0, NODES - 1), seed=st.integers(0, 2**16))
    def test_post_death_traffic_is_fully_delivered(self, dead, seed):
        """Hypothesis sweeps (placement, workload); a one-router fault
        anywhere on the mesh never deadlocks and never loses a packet
        injected after the reroute took effect."""
        net = _checked_reroute_network(dead)
        checker = net.invariants
        net.run(60)  # stall at 20 + threshold 30 => declared dead by 60
        assert net.dead_routers == {dead}
        rng = random.Random(seed)
        live = [n for n in range(NODES) if n != dead]
        sent = []
        for _ in range(120):
            if rng.random() < 0.35:
                src, dst = rng.sample(live, 2)
                packet = control_packet(
                    src, dst, VirtualNetwork.REQUEST, net.cycle
                )
                net.inject(packet)
                sent.append(packet)
            net.step()
        net.run_until_drained(30_000)
        assert sent, "workload generated no packets"
        assert all(p.delivered_at is not None for p in sent)
        assert checker.flits_sent == checker.flits_ejected + checker.flits_dropped
        assert not checker.live

    def test_exhaustive_every_single_placement(self):
        """Deterministic exhaustive pass: all 16 placements, fixed
        workload, all delivered (complements the randomized sweep)."""
        for dead in range(NODES):
            net = _checked_reroute_network(dead)
            net.run(60)
            assert net.dead_routers == {dead}
            live = [n for n in range(NODES) if n != dead]
            sent = []
            for i, src in enumerate(live):
                dst = live[(i * 7 + 3) % len(live)]
                if dst == src:
                    dst = live[(i * 7 + 4) % len(live)]
                packet = control_packet(
                    src, dst, VirtualNetwork.REQUEST, net.cycle
                )
                net.inject(packet)
                sent.append(packet)
                net.step()
            net.run_until_drained(30_000)
            assert all(p.delivered_at is not None for p in sent), f"dead={dead}"


class TestChannelDependencyAcyclicity:
    @settings(max_examples=30, deadline=None)
    @given(
        dead=st.sets(st.integers(0, NODES - 1), min_size=0, max_size=5)
    )
    def test_random_dead_sets_stay_acyclic(self, dead):
        """verify_deadlock_free() holds for arbitrary dead sets — the
        only prohibited turn (down->up) is what makes the CDG acyclic,
        independent of which routers died."""
        rt = FaultTolerantRouting(MeshTopology(MESH, MESH))
        rt.set_dead(frozenset(dead))
        if len(dead) < NODES:
            deps = rt.verify_deadlock_free()
            if not dead:
                assert deps == 0  # pure XY: nothing to verify
            else:
                assert deps > 0


class TestKernelEquivalenceUnderReroute:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        dead=st.integers(0, NODES - 1),
        seed=st.integers(0, 2**16),
        rate=st.sampled_from([0.02, 0.05, 0.08]),
    )
    def test_active_and_naive_kernels_agree(self, dead, seed, rate):
        dumps = []
        for kernel in ("active", "naive"):
            reset_packet_ids()
            net = _reroute_network(dead, kernel=kernel, start=100, threshold=60)
            traffic = SyntheticTraffic(net, "uniform_random", rate, seed=seed)
            traffic.run(500)
            traffic.drain()
            dumps.append((net.cycle, net.stats.as_dict()))
        assert dumps[0] == dumps[1]

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**16))
    def test_kernels_agree_with_power_gating_and_retries(self, seed):
        """Reroute + PG + a total wakeup_fail window together: the
        active kernel must keep OFF controllers with armed retries
        stepping, or the two kernels drift."""
        dumps = []
        for kernel in ("active", "naive"):
            reset_packet_ids()
            config = NoCConfig(
                width=MESH,
                height=MESH,
                kernel=kernel,
                degradation="reroute",
                dead_router_threshold=60,
                faults="router_stall,router=5,start=100;"
                "wakeup_fail,rate=1.0,start=0,end=250;seed=3",
            )
            net = Network(config, PowerPunchPG(wakeup_latency=8, timeout=4))
            traffic = SyntheticTraffic(net, "uniform_random", 0.04, seed=seed)
            traffic.run(500)
            traffic.drain()
            dumps.append((net.cycle, net.stats.as_dict()))
        assert dumps[0] == dumps[1]
