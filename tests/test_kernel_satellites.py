"""Regression tests for the kernel bugfixes that rode along with the
active-set kernel rework.

* ``Network.in_flight_packets`` counts flits queued for ejection, so it
  agrees with ``is_drained`` about what "still in flight" means.
* NI work detection goes through ``NetworkInterface.has_work`` instead
  of a hardcoded three-vnet truthiness chain in ``Network.step``.
* ``NetworkStats.record_delivery`` raises a typed ``SimulationError``
  (with packet context) instead of a bare ``assert`` that vanishes
  under ``python -O``.
* ``Network.deliver_out_of_band`` announces ``delivered`` to the same
  subscribers a mesh ejection reaches; NoRD's ring re-entry goes
  through the public ``reinject``.
"""

import os
import subprocess
import sys

import pytest

from repro.noc import Network, NoCConfig, VirtualNetwork, control_packet
from repro.noc.errors import SimulationError
from repro.noc.packet import NUM_VNETS, Packet
from repro.noc.stats import NetworkStats


class TestInFlightPackets:
    def test_counts_flits_awaiting_ejection(self):
        net = Network(NoCConfig())
        net.inject(control_packet(0, 1, VirtualNetwork.REQUEST, 0))
        saw_ejection_phase = False
        for _ in range(200):
            if net.is_drained():
                break
            if any(net._eject_events.values()):
                saw_ejection_phase = True
                # The seed bug: with the flit out of every buffer and
                # link but not yet ejected, in_flight_packets() said 0
                # while is_drained() said False.
                assert net.in_flight_packets() > 0
            net.step()
        assert saw_ejection_phase
        assert net.is_drained()

    def test_agrees_with_is_drained_every_cycle(self):
        net = Network(NoCConfig())
        for dst in (5, 9, 20):
            net.inject(control_packet(0, dst, VirtualNetwork.RESPONSE, 0))
        for _ in range(300):
            if net.is_drained():
                break
            # Same universe: a zero census may only coincide with a
            # not-yet-drained network when the residual work is credits
            # or policy bookkeeping — never packet material (NI queues,
            # buffers, link flits, pending ejections).
            if net.in_flight_packets() == 0:
                assert not any(net._flit_events.values())
                assert not any(net._eject_events.values())
                assert not any(ni.pending_packets() for ni in net.interfaces)
                assert not any(r.buffered_flits() for r in net.routers)
            net.step()
        assert net.is_drained()
        assert net.in_flight_packets() == 0


class TestHasWork:
    def test_every_vnet_counts(self):
        net = Network(NoCConfig())
        ni = net.interfaces[0]
        assert not ni.has_work()
        for vn in range(NUM_VNETS):
            packet = Packet(0, 3, VirtualNetwork(vn), 1, net.cycle)
            ni.enqueue(packet, net.cycle)
            assert ni.has_work()
            net.run_until_drained(500)
            assert not ni.has_work()

    def test_not_bound_to_three_vnets(self):
        # The predicate must follow the queue list, not a literal count.
        net = Network(NoCConfig())
        ni = net.interfaces[0]
        ni.queues.append([object()])
        try:
            assert ni.has_work()
        finally:
            ni.queues.pop()

    def test_streams_count_as_work(self):
        net = Network(NoCConfig())
        net.inject(Packet(0, 5, VirtualNetwork.RESPONSE, 5, 0))
        ni = net.interfaces[0]
        saw_stream = False
        for _ in range(50):
            if ni.streams:
                saw_stream = True
                assert not any(ni.queues)
                assert ni.has_work()
            net.step()
        assert saw_stream


class TestRecordDeliveryTypedError:
    def test_raises_simulation_error_with_context(self):
        stats = NetworkStats()
        packet = Packet(3, 9, VirtualNetwork.REQUEST, 1, 0)
        packet.delivered_at = 50  # injected_at never set
        with pytest.raises(SimulationError) as excinfo:
            stats.record_delivery(packet, 2)
        assert not isinstance(excinfo.value, AssertionError)
        message = str(excinfo.value)
        assert f"packet={packet.packet_id}" in message
        assert "3->9" in message

    def test_normal_delivery_still_recorded(self):
        stats = NetworkStats()
        packet = Packet(0, 1, VirtualNetwork.REQUEST, 1, 0)
        packet.injected_at = 4
        packet.delivered_at = 10
        stats.record_delivery(packet, 1)
        assert stats.delivered == 1
        assert stats.total_network_latency == 6


class TestPublicNIDeliveryPaths:
    def test_out_of_band_and_mesh_deliveries_reach_the_same_subscribers(self):
        net = Network(NoCConfig())
        seen = []
        net.subscribe("delivered", lambda p, c: seen.append((p, c)))
        meshed = control_packet(1, 5, VirtualNetwork.REQUEST, 0)
        net.inject(meshed)
        net.run_until_drained(500)
        bypass = control_packet(1, 5, VirtualNetwork.REQUEST, 0)
        bypass.injected_at = 0
        net.deliver_out_of_band(bypass, 42)
        assert seen == [(meshed, meshed.delivered_at), (bypass, 42)]

    def test_deliver_out_of_band_announces_delivered_once(self):
        net = Network(NoCConfig())
        calls = []
        net.subscribe("delivered", lambda p, c: calls.append((p, c)))
        packet = control_packet(2, 7, VirtualNetwork.REQUEST, 0)
        packet.injected_at = 0
        net.deliver_out_of_band(packet, 30)
        assert calls == [(packet, 30)]
        assert packet.delivered_at == 30
        assert net.stats.delivered == 1
        # Not a mesh ejection: the destination NI's count is untouched.
        assert net.interfaces[7].ejected_packets == 0

    def test_reinject_requeues_and_reactivates(self):
        net = Network(NoCConfig())
        ni = net.interfaces[4]
        packet = Packet(4, 12, VirtualNetwork.REQUEST, 1, 0)
        packet.created_at = 0
        ni.reinject(packet)
        assert ni.has_work()
        assert 4 in net.active_nis
        # created_at is preserved: the NI pipeline delay is not re-paid
        # from scratch for a re-entering packet.
        assert packet.created_at == 0
        net.run_until_drained(500)
        assert packet.delivered_at is not None


class TestNumpyOnlyWhenTheVectorEngineEngages:
    def test_importing_the_package_does_not_import_numpy(self):
        """Pool workers, service hosts and CLI calls that stay on the
        object kernel never pay for it (150 ms, 16 MB)."""
        code = (
            "import repro.campaign, repro.system, repro.bench, sys; "
            "assert 'numpy' not in sys.modules; "
            # ... nor for the full-scan oracle: only kernel='naive' imports it.
            "assert 'repro.noc.reference' not in sys.modules"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
