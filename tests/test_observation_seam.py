"""The network's one observation seam, ``Network.subscribe``.

A counting subscriber on every event of a drained run must reconcile
exactly with ``NetworkStats`` — the ledger any later observer (a
per-wakeup ledger, the tracer, the invariant checker) is held to — and
the kernel-pin rule decides which engine a subscribed network runs on.
"""

from collections import Counter

import pytest

from repro.core import ConvOptPG, NoPG
from repro.noc import Network, NoCConfig
from repro.noc.network import _NEVER, EVENTS, PER_FLIT_EVENTS
from repro.noc.topology import Direction
from repro.traffic import SyntheticTraffic

from .test_kernel_equivalence import _engaged_cycles


def _count_everything(net):
    """Subscribe one counter to every event; ``granted`` is also
    counted apart toward non-local ports, ``blocked`` per router."""
    counts = Counter()
    for event in EVENTS:
        net.subscribe(event, lambda *args, event=event: counts.update([event]))
    net.subscribe(
        "granted",
        lambda router, flit, in_dir, in_vc, out_dir, out_vc, cycle: counts.update(
            ["granted-link"] if out_dir is not Direction.LOCAL else []
        ),
    )
    return counts


class TestSeamContract:
    def test_counts_reconcile_with_network_stats(self):
        net = Network(NoCConfig(width=4, height=4), ConvOptPG())
        assert net.stats.measure_from == 0
        counts = _count_everything(net)
        traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=3)
        for _ in range(300):
            traffic.step()
            net.step()
        net.run_until_drained(5000)
        stats = net.stats
        assert stats.delivered > 50 and stats.total_wakeup_wait_cycles > 0
        assert counts["created"] == stats.injected_packets
        assert counts["delivered"] == stats.delivered == stats.injected_packets
        assert counts["granted"] == stats.router_traversals
        assert counts["granted-link"] == stats.link_traversals
        stalled = sum(ni.injection_stalled_cycles for ni in net.interfaces)
        assert counts["blocked"] + stalled == stats.total_wakeup_wait_cycles
        assert counts["sent"] == counts["ejected"] == stats.delivered_flits
        assert counts["arrived"] == stats.router_traversals
        assert counts["cycle_end"] == net.cycle == stats.cycles
        assert counts["refused"] == counts["purged"] == counts["dropped"] == 0

    def test_unknown_event_is_refused(self):
        net = Network(NoCConfig(width=4, height=4))
        with pytest.raises(ValueError, match="unknown network event 'ejectd'"):
            net.subscribe("ejectd", print)

    def test_close_drops_every_subscriber(self):
        net = Network(NoCConfig(width=4, height=4))
        for event in EVENTS:
            net.subscribe(event, print)
        net.close()
        assert not any(net._subscribers.values())


class TestKernelPinRule:
    """Dense 12x12 traffic engages the vector engine unless a per-flit
    event has a subscriber."""

    def test_delivered_subscriber_rides_the_vector_engine(self):
        pytest.importorskip("numpy")
        net = Network(NoCConfig(width=12, height=12), NoPG())
        delivered = []
        net.subscribe("delivered", lambda packet, cycle: delivered.append(cycle))
        net.subscribe("created", lambda packet, cycle: None)
        engaged = _engaged_cycles(net, 0.12, 3 * 32)
        assert engaged and net._engine is not None
        # The engine announces its deliveries like the object kernel.
        assert len(delivered) == net.stats.delivered > 0
        # A per-flit subscriber arriving mid-run hands the run back.
        net.subscribe("granted", lambda *args: None)
        assert net._engine is None and net._select_at == _NEVER

    @pytest.mark.parametrize("event", sorted(PER_FLIT_EVENTS))
    def test_per_flit_subscriber_pins_the_object_kernel(self, event):
        net = Network(NoCConfig(width=12, height=12), NoPG())
        net.subscribe(event, lambda *args: None)
        assert _engaged_cycles(net, 0.12, 3 * 32) == []
