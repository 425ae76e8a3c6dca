"""Tests for NI queues (unbounded) and misc interface edges."""

import pytest

from repro.noc import Network, NoCConfig, VirtualNetwork, control_packet


class TestQueueCapacity:
    def test_unbounded_by_default(self):
        net = Network(NoCConfig(width=4, height=4))
        for _ in range(100):
            net.inject(control_packet(0, 5, VirtualNetwork.REQUEST, net.cycle))
        assert net.interfaces[0].pending_packets() == 100

    def test_capacity_is_not_an_option(self):
        # NI queues have no bound to set: a caller still passing one
        # fails loudly instead of having it ignored.
        with pytest.raises(TypeError, match="ni_queue_capacity"):
            NoCConfig(width=4, height=4, ni_queue_capacity=4)


class TestInFlightAccounting:
    def test_in_flight_packets_tracks_progress(self):
        net = Network(NoCConfig(width=4, height=4))
        assert net.in_flight_packets() == 0
        net.inject(control_packet(0, 15, VirtualNetwork.REQUEST, net.cycle))
        assert net.in_flight_packets() > 0
        net.run_until_drained(500)
        assert net.in_flight_packets() == 0

    def test_run_until_drained_raises_on_deadline(self):
        net = Network(NoCConfig(width=4, height=4))
        net.inject(control_packet(0, 15, VirtualNetwork.REQUEST, net.cycle))
        with pytest.raises(RuntimeError, match="drain"):
            net.run_until_drained(max_cycles=2)
