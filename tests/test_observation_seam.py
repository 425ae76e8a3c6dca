"""The network's one observation seam, ``Network.subscribe``.

A counting subscriber on every event of a drained run must reconcile
exactly with ``NetworkStats`` — the ledger any later observer (a
per-wakeup ledger, the tracer, the invariant checker) is held to — and
the kernel-pin rule decides which engine a subscribed network runs on.
"""

from collections import Counter

import pytest

from repro.core import ConvOptPG, NoPG, PowerPunchPG
from repro.noc import Network, NoCConfig
from repro.noc.network import _NEVER, EVENTS, PER_FLIT_EVENTS
from repro.noc.topology import Direction
from repro.traffic import SyntheticTraffic

from .test_kernel_equivalence import _engaged_cycles


def _count_everything(net):
    """Subscribe one counter to every event; ``granted`` is also
    counted apart toward non-local ports."""
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


def _blocked_ledger(net):
    """Subscribe to ``blocked``: the waited cycles it announces, and
    the distinct ``(packet, off)`` encounters."""
    waited, met = Counter(), set()

    def on_blocked(packet, at, off, did_wait, cycle):
        waited["cycles"] += did_wait
        met.add((packet.packet_id, off))

    net.subscribe("blocked", on_blocked)
    return waited, met


def _assert_blocked_reconciles(stats, waited, met):
    assert waited["cycles"] == stats.total_wakeup_wait_cycles
    assert len(met) == stats.total_blocked_routers


class TestSeamContract:
    def test_counts_reconcile_with_network_stats(self):
        net = Network(NoCConfig(width=4, height=4), ConvOptPG())
        assert net.stats.measure_from == 0
        counts = _count_everything(net)
        waited, met = _blocked_ledger(net)
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
        _assert_blocked_reconciles(stats, waited, met)
        assert counts["sent"] == counts["ejected"] == stats.delivered_flits
        assert counts["arrived"] == stats.router_traversals
        assert counts["cycle_end"] == net.cycle == stats.cycles
        assert counts["refused"] == counts["purged"] == counts["dropped"] == 0

    @pytest.mark.parametrize("kernel", ["active", "vector"])
    def test_windowed_delivered_subscriber_reconciles_with_stats(self, kernel):
        """A ``delivered`` subscriber filtering on ``created_at >=
        stats.measure_from`` at delivery time sees exactly the packets
        ``record_delivery`` counts, across the window opening: the
        filter the ``guarantees`` cell's exact percentiles rely on."""
        net = Network(NoCConfig(width=4, height=4, kernel=kernel), PowerPunchPG())
        everything, measured = [], []

        def on_delivered(packet, cycle):
            everything.append(packet.network_latency)
            if packet.created_at >= net.stats.measure_from:
                measured.append(packet.network_latency)

        net.subscribe("delivered", on_delivered)
        traffic = SyntheticTraffic(net, "uniform_random", 0.1, seed=5)
        traffic.run(200)
        net.stats.measure_from = net.cycle
        traffic.run(400)
        traffic.drain()
        stats = net.stats
        assert len(everything) > len(measured) == stats.delivered > 0
        assert sum(measured) == stats.total_network_latency

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

    @pytest.mark.parametrize("kernel", ["auto", "active"])
    def test_blocked_subscriber_rides_either_engine(self, kernel):
        """Both engines announce every powered-off encounter: the
        ledger a ``blocked`` subscriber keeps matches ``NetworkStats``
        on a dense PowerPunch-PG run, engaged or not, and the two runs
        agree."""
        pytest.importorskip("numpy")
        net = Network(NoCConfig(width=12, height=12, kernel=kernel), PowerPunchPG())
        waited, met = _blocked_ledger(net)
        engaged = _engaged_cycles(net, 0.08, 200)
        assert bool(engaged) == (kernel == "auto")
        net.run_until_drained(5000)
        _assert_blocked_reconciles(net.stats, waited, met)
        assert (waited["cycles"], len(met)) == (113, 109)

    @pytest.mark.parametrize("event", sorted(PER_FLIT_EVENTS))
    def test_per_flit_subscriber_pins_the_object_kernel(self, event):
        net = Network(NoCConfig(width=12, height=12), NoPG())
        net.subscribe(event, lambda *args: None)
        assert _engaged_cycles(net, 0.12, 3 * 32) == []
