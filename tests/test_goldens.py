"""Golden regression tests.

Pin exact numeric outputs of small deterministic runs so that
unintended behavioural changes to the simulator, schemes or protocol
show up immediately.  If a change is *intended* (e.g. a deliberate
timing-model fix), update the goldens here and explain why in the
commit.
"""

import pytest

from repro.core import ConvOptPG, NoPG, PowerPunchPG
from repro.noc import Network, NoCConfig, VirtualNetwork, control_packet
from repro.system import Chip, get_profile
from repro.traffic import SyntheticTraffic, measure

#: Every golden below must hold under all three per-cycle kernels —
#: the numbers pin the simulated behaviour, not the implementation.
KERNELS = ["active", "naive", "vector"]


@pytest.fixture(params=KERNELS)
def kernel(request):
    return request.param


class TestLatencyGoldens:
    @pytest.mark.parametrize(
        "stages,src,dst,expected",
        [
            (3, 0, 7, 31),
            (3, 0, 63, 59),
            (4, 0, 7, 39),
            (4, 27, 28, 9),
            (3, 2, 2, 3),  # self-addressed: inject + eject through local port
        ],
    )
    def test_zero_load_single_flit(self, stages, src, dst, expected, kernel):
        net = Network(NoCConfig(router_stages=stages, kernel=kernel))
        p = control_packet(src, dst, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(2000)
        assert p.network_latency == expected

    def test_cold_start_convopt_golden(self, kernel):
        scheme = ConvOptPG(wakeup_latency=8)
        net = Network(NoCConfig(kernel=kernel), scheme)
        for _ in range(30):
            net.step()
        p = control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.run_until_drained(2000)
        assert (p.total_latency, p.wakeup_wait_cycles, len(p.blocked_routers)) == (
            76, 42, 8
        )

    def test_cold_start_powerpunch_golden(self, kernel):
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(NoCConfig(kernel=kernel), scheme)
        for _ in range(30):
            net.step()
        p = control_packet(0, 7, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.run_until_drained(2000)
        assert (p.total_latency, p.wakeup_wait_cycles, len(p.blocked_routers)) == (
            38, 4, 1
        )


class TestTrafficGoldens:
    def test_uniform_random_nopg_golden(self, kernel):
        net = Network(NoCConfig(kernel=kernel))
        traffic = SyntheticTraffic(net, "uniform_random", 0.01, seed=7)
        measure(net, traffic, warmup=500, measurement=2000)
        s = net.stats
        assert s.delivered == 516
        assert s.total_network_latency == 14085
        assert s.router_traversals == 9588

    def test_uniform_random_powerpunch_golden(self, kernel):
        scheme = PowerPunchPG()
        net = Network(NoCConfig(kernel=kernel), scheme)
        traffic = SyntheticTraffic(net, "uniform_random", 0.01, seed=7)
        measure(net, traffic, warmup=500, measurement=2000)
        s = net.stats
        assert s.delivered == 515
        # 654 before the controller's cancel-on-same-cycle-wakeup fix: a
        # sleep decision revoked in its own cycle no longer counts as a
        # powered-off encounter (the supply was never actually cut).
        assert s.total_blocked_routers == 653
        assert scheme.total_wake_events() > 0


class TestChipGoldens:
    def test_bodytrack_nopg_golden(self):
        chip = Chip(
            NoCConfig(width=4, height=4),
            NoPG(),
            get_profile("bodytrack"),
            instructions_per_core=500,
            seed=1,
            benchmark="bodytrack",
        )
        result = chip.run(max_cycles=500_000)
        assert result.execution_time == chip.network.cycle
        assert result.packets == chip.network.stats.delivered
        # Golden values for this exact configuration and seed.
        assert result.execution_time == pytest.approx(chip.execution_time)
        golden = (result.execution_time, result.packets)
        chip2 = Chip(
            NoCConfig(width=4, height=4),
            NoPG(),
            get_profile("bodytrack"),
            instructions_per_core=500,
            seed=1,
            benchmark="bodytrack",
        )
        result2 = chip2.run(max_cycles=500_000)
        assert (result2.execution_time, result2.packets) == golden
