"""Tests for the runtime invariant checker, deadlock watchdog,
typed error hierarchy and the bounded event ring.

The acceptance scenario for the robustness subsystem lives here: a
seeded artificial deadlock (a permanently stalled router) must trip
the watchdog with a :class:`DeadlockError` whose post-mortem names the
blocked packet's route and the states of the routers on it.
"""

import pytest

from repro.core import PowerPunchPG
from repro.noc import (
    BufferOverflowError,
    DeadlockError,
    Direction,
    DrainTimeoutError,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InvariantChecker,
    InvariantViolation,
    Network,
    NoCConfig,
    SimulationError,
    TopologyError,
    VirtualNetwork,
    control_packet,
)
from repro.noc.buffers import VirtualChannel
from repro.noc.packet import make_flits
from repro.noc.tracing import EventRing
from repro.traffic import SyntheticTraffic, measure


def small_config():
    return NoCConfig(width=4, height=4)


class TestEventRing:
    def test_ring_is_bounded_and_keeps_newest(self):
        ring = EventRing(4)
        for cycle in range(10):
            ring.record(cycle, "tick", cycle)
        assert len(ring) == 4
        assert [e.cycle for e in ring.snapshot()] == [6, 7, 8, 9]
        assert ring.recorded == 10

    def test_render_reports_displaced_events(self):
        ring = EventRing(2)
        for cycle in range(5):
            ring.record(cycle, "tick", cycle, packet_id=cycle)
        text = ring.render()
        assert "3 earlier events displaced" in text
        assert "pkt#4" in text

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventRing(0)


class TestCleanRuns:
    def test_strict_checker_clean_on_powerpunch_traffic(self):
        net = Network(small_config(), PowerPunchPG())
        checker = InvariantChecker()
        net.install_invariants(checker)
        traffic = SyntheticTraffic(net, "uniform_random", 0.02, seed=3)
        measure(net, traffic, warmup=200, measurement=600)
        assert checker.checks_run > 0
        # Everything sent was delivered and accounted for.
        assert checker.flits_sent == checker.flits_ejected
        assert not checker.live

    def test_checker_does_not_perturb_simulation(self):
        """The checker observes; identical runs with and without it
        must produce bit-identical statistics."""

        def run(with_checker):
            net = Network(small_config(), PowerPunchPG())
            if with_checker:
                net.install_invariants(InvariantChecker())
            traffic = SyntheticTraffic(net, "uniform_random", 0.03, seed=11)
            measure(net, traffic, warmup=200, measurement=600)
            s = net.stats
            return (s.delivered, s.total_network_latency, s.total_blocked_routers)

        assert run(True) == run(False)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(max_network_age=0)


class TestTamperDetection:
    """Each structural invariant fires when its bookkeeping is broken."""

    def _checked_net(self):
        net = Network(small_config())
        checker = InvariantChecker()
        net.install_invariants(checker)
        return net, checker

    def test_stolen_credit_detected(self):
        net, checker = self._checked_net()
        net.routers[5].output_ports[Direction.XPOS].credits[0] -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_credit_conservation(net.cycle)
        assert excinfo.value.invariant == "credit-conservation"
        assert excinfo.value.router == 5

    def test_forged_credit_detected_on_ni_link(self):
        net, checker = self._checked_net()
        net.interfaces[3].credits[0] += 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_credit_conservation(net.cycle)
        assert excinfo.value.invariant == "credit-conservation"
        assert excinfo.value.router == 3

    def test_phantom_flit_detected(self):
        net, checker = self._checked_net()
        checker.flits_sent += 1  # claim a flit the network never saw
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_flit_conservation(net.cycle)
        assert excinfo.value.invariant == "flit-conservation"

    def test_orphaned_vc_owner_detected(self):
        net, checker = self._checked_net()
        # Output port claims an owner whose input VC is actually IDLE.
        net.routers[0].output_ports[Direction.XPOS].owner[0] = (Direction.LOCAL, 0)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_vc_ownership(net.cycle)
        assert excinfo.value.invariant == "vc-ownership"

    def test_running_network_raises_at_the_first_cycle_end(self):
        net, checker = self._checked_net()
        net.routers[5].output_ports[Direction.XPOS].credits[0] -= 1
        with pytest.raises(InvariantViolation) as excinfo:
            net.run(5)
        assert excinfo.value.invariant == "credit-conservation"
        assert excinfo.value.cycle == 0


class TestSafetyFaultDetection:
    """The injector's safety faults exist to be caught by the checker."""

    def test_dropped_credit_breaks_credit_conservation(self):
        net = Network(small_config())
        net.install_invariants(InvariantChecker())
        net.install_faults(
            FaultInjector(FaultSchedule([FaultSpec(kind="credit_drop", count=1)]))
        )
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, 0))
        with pytest.raises(InvariantViolation) as excinfo:
            net.run(60)
        assert excinfo.value.invariant == "credit-conservation"
        assert net.faults.counts["credit_drop"] == 1

    def test_corrupted_flit_flagged_on_arrival(self):
        net = Network(small_config())
        net.install_invariants(InvariantChecker())
        net.install_faults(
            FaultInjector(FaultSchedule([FaultSpec(kind="flit_corrupt", count=1)]))
        )
        net.inject(control_packet(0, 1, VirtualNetwork.REQUEST, 0))
        with pytest.raises(InvariantViolation) as excinfo:
            net.run(60)
        assert excinfo.value.invariant == "flit-integrity"
        assert net.faults.counts["flit_corrupt"] == 1

    def test_fault_events_reach_the_flight_recorder(self):
        net = Network(small_config())
        net.install_invariants(InvariantChecker())
        net.install_faults(
            FaultInjector(FaultSchedule([FaultSpec(kind="credit_drop", count=1)]))
        )
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, 0))
        with pytest.raises(InvariantViolation):
            net.run(60)
        kinds = {e.kind for e in net.ring.snapshot()}
        assert "fault:credit_drop" in kinds


class TestWatchdog:
    def test_watchdog_catches_seeded_deadlock(self):
        """Acceptance scenario: permanently freeze a router on the
        packet's path; the watchdog must raise a DeadlockError whose
        post-mortem names the route and the routers' PG states."""
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(small_config(), scheme)
        checker = InvariantChecker(max_network_age=200)
        net.install_invariants(checker)
        net.install_faults(
            FaultInjector(
                FaultSchedule([FaultSpec(kind="router_stall", router=2, start=0)])
            )
        )
        for _ in range(30):
            net.step()
        packet = control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle)
        net.inject(packet)
        with pytest.raises(DeadlockError) as excinfo:
            net.run(2000)
        err = excinfo.value
        assert err.post_mortem is not None
        stuck = err.post_mortem.stuck_packets[0]
        assert stuck["packet_id"] == packet.packet_id
        assert stuck["route"] == [0, 1, 2, 3]
        dumps = {r["router_id"]: r for r in err.post_mortem.routers}
        assert set(dumps) >= {0, 1, 2, 3}
        for dump in dumps.values():
            assert dump["pg_state"] in ("active", "off", "waking", "unavailable")
        # The packet's flit is visibly parked at the stalled router.
        fronts = {
            occ["front_packet"]
            for rid in (1, 2)
            for occ in dumps[rid]["occupied_vcs"]
        }
        assert packet.packet_id in fronts
        # The rendered error is self-contained: route + router states.
        text = str(err)
        assert "post-mortem" in text
        assert "route: 0 -> 1 -> 2 -> 3" in text
        assert "pg=" in text

    def test_watchdog_queue_age_catches_starved_ni(self):
        """A packet that never even enters the mesh (every wakeup at
        its source router fails) trips the queue-age bound."""
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(small_config(), scheme)
        checker = InvariantChecker(max_queue_age=100)
        net.install_invariants(checker)
        net.install_faults(
            FaultInjector(
                FaultSchedule([FaultSpec(kind="wakeup_fail", router=0)])
            )
        )
        for _ in range(30):
            net.step()  # let the idle mesh gate off
        assert scheme.controllers[0].is_off
        packet = control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle)
        net.inject(packet)
        with pytest.raises(DeadlockError) as excinfo:
            net.run(1000)
        stuck = excinfo.value.post_mortem.stuck_packets[0]
        assert stuck["packet_id"] == packet.packet_id
        assert stuck["injected_at"] is None

    def test_watchdog_quiet_on_healthy_run(self):
        net = Network(small_config(), PowerPunchPG())
        net.install_invariants(InvariantChecker(max_network_age=500))
        for _ in range(30):
            net.step()
        packet = control_packet(0, 15, VirtualNetwork.REQUEST, net.cycle)
        net.inject(packet)
        net.run_until_drained(3000)
        assert packet.delivered_at is not None

    def test_drain_timeout_carries_post_mortem(self):
        net = Network(small_config(), PowerPunchPG())
        net.install_invariants(InvariantChecker(max_network_age=10_000))
        net.install_faults(
            FaultInjector(
                FaultSchedule([FaultSpec(kind="router_stall", router=1, start=0)])
            )
        )
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, 0))
        with pytest.raises(DrainTimeoutError) as excinfo:
            net.run_until_drained(300)
        assert excinfo.value.post_mortem is not None
        assert "post-mortem" in str(excinfo.value)


class TestTypedErrors:
    def test_context_decorates_message(self):
        err = SimulationError(
            "boom", cycle=5, router=2, port=Direction.XPOS, vc=1, packet=9
        )
        assert str(err) == "boom [cycle=5 router=2 port=XPOS vc=1 packet=9]"
        assert (err.cycle, err.router, err.vc, err.packet) == (5, 2, 1, 9)

    def test_plain_message_untouched(self):
        assert str(SimulationError("boom")) == "boom"

    def test_hierarchy_stays_runtimeerror_compatible(self):
        for cls in (
            TopologyError,
            BufferOverflowError,
            DrainTimeoutError,
            InvariantViolation,
            DeadlockError,
        ):
            assert issubclass(cls, RuntimeError)

    def test_vc_overflow_raises_typed_error_with_context(self):
        vc = VirtualChannel(0, depth=1, port_direction=Direction.XNEG)
        packet = control_packet(0, 1, VirtualNetwork.REQUEST, 0)
        flit = make_flits(packet)[0]
        vc.push(flit, 10)
        with pytest.raises(BufferOverflowError, match="overflow") as excinfo:
            vc.push(flit, 11)
        assert excinfo.value.cycle == 11
        assert excinfo.value.port is Direction.XNEG

    def test_invariant_violation_names_its_invariant(self):
        err = InvariantViolation("flit-conservation", "lost one", cycle=3)
        assert err.invariant == "flit-conservation"
        assert "flit-conservation" in str(err)
        assert "[cycle=3]" in str(err)


@pytest.mark.parametrize("kernel", ["active", "naive"])
class TestWatchdogKernelParity:
    """The active-set kernel skips idle routers in the per-cycle loop;
    a skipped (or power-gated) router must never suppress the
    watchdog's progress checks.  Both kernels must detect
    the same deadlocks — and at the same cycle (checked below)."""

    def seeded_deadlock(self, kernel):
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(NoCConfig(width=4, height=4, kernel=kernel), scheme)
        checker = InvariantChecker(max_network_age=200)
        net.install_invariants(checker)
        net.install_faults(
            FaultInjector(
                FaultSchedule([FaultSpec(kind="router_stall", router=2, start=0)])
            )
        )
        for _ in range(30):
            net.step()  # the idle mesh gates routers off
        packet = control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle)
        net.inject(packet)
        return net, packet

    def test_idle_routers_do_not_suppress_watchdog(self, kernel):
        net, packet = self.seeded_deadlock(kernel)
        with pytest.raises(DeadlockError) as excinfo:
            net.run(2000)
        stuck = excinfo.value.post_mortem.stuck_packets[0]
        assert stuck["packet_id"] == packet.packet_id

    def test_starved_ni_detected_while_mesh_fully_parked(self, kernel):
        """Every wakeup at the source router fails, so the whole mesh
        stays parked/off — the queue-age bound must still fire."""
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(NoCConfig(width=4, height=4, kernel=kernel), scheme)
        checker = InvariantChecker(max_queue_age=100)
        net.install_invariants(checker)
        net.install_faults(
            FaultInjector(
                FaultSchedule([FaultSpec(kind="wakeup_fail", router=0)])
            )
        )
        for _ in range(30):
            net.step()
        assert scheme.controllers[0].is_off
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle))
        with pytest.raises(DeadlockError) as excinfo:
            net.run(1000)
        assert excinfo.value.post_mortem.stuck_packets[0]["injected_at"] is None


def test_watchdog_detection_cycle_is_kernel_exact():
    """Deadlock detection is part of the cycle-accurate contract: both
    kernels must trip the watchdog on the same cycle."""
    detected = {}
    for kernel in ("active", "naive"):
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(NoCConfig(width=4, height=4, kernel=kernel), scheme)
        net.install_invariants(InvariantChecker(max_network_age=200))
        net.install_faults(
            FaultInjector(
                FaultSchedule([FaultSpec(kind="router_stall", router=2, start=0)])
            )
        )
        for _ in range(30):
            net.step()
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle))
        with pytest.raises(DeadlockError):
            net.run(2000)
        detected[kernel] = net.cycle
    assert detected["active"] == detected["naive"]
