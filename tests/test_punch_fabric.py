"""Tests for punch-signal propagation timing and merging."""

from repro.core import PunchFabric
from repro.noc import MeshTopology, XYRouting


class Recorder:
    """Records (router, cycle) punch deliveries."""

    def __init__(self):
        self.events = []

    def __call__(self, router, cycle):
        self.events.append((router, cycle))

    def cycles_for(self, router):
        return [c for r, c in self.events if r == router]


def make_fabric(width=8):
    routing = XYRouting(MeshTopology(width, width))
    rec = Recorder()
    return PunchFabric(routing, rec), rec


class TestPropagationTiming:
    def test_local_punch_touches_origin_same_cycle(self):
        fabric, rec = make_fabric()
        fabric.send_local(27, {30}, cycle=5)
        assert (27, 5) in rec.events

    def test_one_hop_per_cycle(self):
        # Punch from R27 to R30 (3 hops X+): touches 28 at t+1, 29 at
        # t+2, 30 at t+3 — the paper's contention-free relay timing.
        fabric, rec = make_fabric()
        fabric.send_local(27, {30}, cycle=0)
        for cycle in range(1, 5):
            fabric.deliver(cycle)
        assert rec.cycles_for(28) == [1]
        assert rec.cycles_for(29) == [2]
        assert rec.cycles_for(30) == [3]

    def test_relay_follows_xy_path(self):
        # R26 -> R45: path 26,27,28,29,37,45 (X then Y).
        fabric, rec = make_fabric()
        fabric.send_local(26, {45}, cycle=0)
        for cycle in range(1, 8):
            fabric.deliver(cycle)
        touched = [r for r, _ in rec.events]
        assert touched == [26, 27, 28, 29, 37, 45]

    def test_no_delivery_without_pending(self):
        fabric, rec = make_fabric()
        fabric.deliver(0)
        assert rec.events == []


class TestMerging:
    def test_same_cycle_signals_merge_without_delay(self):
        # Two targets sharing the first link travel together: no
        # contention delay (Sec. 4.1 step 5).
        fabric, rec = make_fabric()
        fabric.send_local(27, {29, 30}, cycle=0)
        fabric.deliver(1)
        fabric.deliver(2)
        fabric.deliver(3)
        assert rec.cycles_for(29) == [2]
        assert rec.cycles_for(30) == [3]
        # 28 relays the merged signal once per cycle it carries targets.
        assert rec.cycles_for(28) == [1]

    def test_merge_from_different_sources(self):
        # 26->29 and 27->30 issued the same cycle: the 26->29 signal is
        # one hop behind, and both proceed with no contention delay.
        fabric, rec = make_fabric()
        fabric.send_local(26, {29}, cycle=0)
        fabric.send_local(27, {30}, cycle=0)
        fabric.deliver(1)
        fabric.deliver(2)
        fabric.deliver(3)
        assert rec.cycles_for(28) == [1, 2]  # relay for 30, then for 29
        assert rec.cycles_for(29) == [2, 3]  # relay for 30, then target
        assert rec.cycles_for(30) == [3]

    def test_link_transmission_counting_merged(self):
        fabric, _ = make_fabric()
        fabric.send_local(27, {29, 30}, cycle=0)
        fabric.deliver(1)
        # One merged transmission 27->28, then one 28->29.
        assert fabric.link_transmissions == 2

    def test_duplicate_targets_collapse(self):
        fabric, rec = make_fabric()
        fabric.send_local(26, {29}, cycle=0)
        fabric.send_local(26, {29}, cycle=0)
        fabric.deliver(1)
        fabric.deliver(2)
        fabric.deliver(3)
        assert rec.cycles_for(29) == [3]

    def test_target_delivery_reaches_sink(self):
        fabric, rec = make_fabric()
        fabric.send_local(27, {28}, cycle=0)
        fabric.deliver(1)
        assert rec.events == [(27, 0), (28, 1)]
        assert fabric.pending_work() == 0


class TestYDirection:
    def test_y_direction_punch(self):
        fabric, rec = make_fabric()
        fabric.send_local(27, {51}, cycle=0)  # straight down Y+
        for cycle in range(1, 4):
            fabric.deliver(cycle)
        assert rec.cycles_for(35) == [1]
        assert rec.cycles_for(43) == [2]
        assert rec.cycles_for(51) == [3]
