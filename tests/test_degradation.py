"""Tests for graceful degradation under permanent router faults.

A router whose ``router_stall`` fault window stays continuously open
for ``dead_router_threshold`` cycles is declared permanently dead.
``degradation="reroute"`` then purges every packet with a flit in (or
flying toward) a dead router — with full credit and VC-state
restoration, verified here by running the strict invariant checker and
draining the survivors — and accounts each loss in the ``dropped_*``
counters.  Rerouting itself is covered in ``test_reroute.py``.
"""

import pytest

from repro.core import NoPG
from repro.noc import (
    ConfigError,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InvariantChecker,
    Network,
    NoCConfig,
    VirtualNetwork,
    control_packet,
)

#: Router 5 sits mid-mesh on the 4->6 XY route of a 4x4 mesh.
DEAD = 5


def build(*, kernel="active", threshold=50):
    config = NoCConfig(
        width=4,
        height=4,
        kernel=kernel,
        degradation="reroute",
        dead_router_threshold=threshold,
    )
    net = Network(config, NoPG())
    net.install_faults(
        FaultInjector(
            FaultSchedule([FaultSpec(kind="router_stall", router=DEAD, start=0)])
        )
    )
    return net


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoCConfig(degradation="bogus")
        with pytest.raises(ValueError):
            NoCConfig(dead_router_threshold=0)

    @pytest.mark.parametrize("mode", ["drop", "fail_fast"])
    def test_reroute_is_the_only_degradation(self, mode):
        with pytest.raises(ConfigError) as excinfo:
            NoCConfig(degradation=mode)
        assert excinfo.value.valid == ("none", "reroute")
        assert "'none', 'reroute'" in str(excinfo.value)

    def test_defaults_do_not_disturb_cache_identity(self):
        # New fields default to inert values, so pre-existing specs and
        # cache keys (built from non-default items) are unchanged.
        assert NoCConfig().to_items() == ()


class TestDeathDetection:
    def test_threshold_must_elapse(self):
        net = build(threshold=50)
        for _ in range(49):
            net.step()
        assert net.dead_routers == set()

    def test_wildcard_stall_never_declares_death(self):
        injector = FaultInjector(
            FaultSchedule([FaultSpec(kind="router_stall", rate=0.5)])
        )
        assert injector.dead_routers(10_000, 100) == []

    def test_windowed_stall_recovers_before_threshold(self):
        injector = FaultInjector(
            FaultSchedule(
                [FaultSpec(kind="router_stall", router=3, start=0, end=80)]
            )
        )
        assert injector.dead_routers(60, 50) == [3]
        assert injector.dead_routers(200, 50) == []

    def test_none_policy_never_even_checks(self):
        config = NoCConfig(width=4, height=4)  # degradation="none"
        net = Network(config, NoPG())
        net.install_faults(
            FaultInjector(
                FaultSchedule(
                    [FaultSpec(kind="router_stall", router=DEAD, start=0)]
                )
            )
        )
        for _ in range(200):
            net.step()
        assert net.dead_routers == set()


class TestPurge:
    @pytest.mark.parametrize("kernel", ["active", "naive"])
    def test_packet_in_the_dying_router_is_purged_with_accounting(self, kernel):
        """The 4->6 packet's head waits in the stalled router 5 when it
        is declared dead: it is purged whole, and the purge restores
        credits and ownership so the mesh drains clean under the strict
        checker instead of wedging."""
        net = build(kernel=kernel, threshold=50)
        checker = InvariantChecker(max_network_age=100_000)
        net.install_invariants(checker)
        packet = control_packet(4, 6, VirtualNetwork.REQUEST, 0)
        net.inject(packet)
        net.run(120)

        assert net.dead_routers == {DEAD}
        stats = net.stats
        assert stats.dropped_packets == 1
        assert stats.dropped_flits == packet.size_flits
        # An in-flight purge is not a refusal: the packet was injected.
        assert stats.refused_packets == 0
        assert stats.as_dict()["refused_packets"] == 0
        assert packet.delivered_at is None
        net.run_until_drained(500)
        assert checker.flits_dropped == stats.dropped_flits
