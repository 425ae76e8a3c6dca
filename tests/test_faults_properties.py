"""Property-based tests for the fault-injection subsystem.

The central liveness claim: under any schedule of *liveness* faults
(lost/duplicated/delayed punches, delayed or bounded-failing wakeups,
transient router stalls) the network still delivers every packet —
the blocking-wakeup fallback degrades latency, never correctness —
and the strict invariant checker stays quiet throughout.

Safety faults (``credit_drop``, ``flit_corrupt``) are deliberately
excluded here; they exist to be *detected* and are covered by
``tests/test_invariants.py``.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.core import PowerPunchPG
from repro.noc import (
    FAULT_KINDS,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FaultSpecError,
    Network,
    NoCConfig,
    VirtualNetwork,
    control_packet,
    data_packet,
)
from repro.traffic import SyntheticTraffic, measure

CONFIG = NoCConfig(width=4, height=4)

#: Faults that may only slow the network down, never wedge it.  A
#: ``wakeup_fail`` must carry a ``count`` budget: the blocking fallback
#: retries every blocked cycle, so any finite budget is eventually
#: exhausted and the retry lands.
_PUNCH_KINDS = ("punch_drop", "punch_dup", "punch_delay")


@st.composite
def liveness_schedules(draw):
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(
            st.sampled_from(
                _PUNCH_KINDS + ("wakeup_delay", "wakeup_fail", "router_stall")
            )
        )
        router = draw(st.one_of(st.none(), st.integers(0, 15)))
        if kind == "router_stall":
            start = draw(st.integers(0, 200))
            specs.append(
                FaultSpec(
                    kind=kind,
                    router=router,
                    start=start,
                    end=start + draw(st.integers(0, 60)),
                )
            )
        elif kind == "wakeup_fail":
            specs.append(
                FaultSpec(
                    kind=kind,
                    router=router,
                    rate=draw(st.floats(0.1, 1.0)),
                    count=draw(st.integers(1, 15)),
                )
            )
        else:
            specs.append(
                FaultSpec(
                    kind=kind,
                    router=router,
                    rate=draw(st.floats(0.1, 1.0)),
                    delay=draw(st.integers(1, 5)),
                )
            )
    return FaultSchedule(specs=specs, seed=draw(st.integers(0, 2**16)))


class TestLivenessProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(schedule=liveness_schedules())
    def test_delivery_and_conservation_under_liveness_faults(self, schedule):
        scheme = PowerPunchPG(wakeup_latency=8)
        config = replace(
            CONFIG, faults=schedule.to_spec(), strict_invariants=True, watchdog=20_000
        )
        net = Network(config, scheme)
        checker = net.invariants
        # A faulted network arms the paper-baseline blocking fallback.
        assert scheme.blocking_fallback
        for _ in range(30):
            net.step()
        packets = [
            control_packet(0, 15, VirtualNetwork.REQUEST, net.cycle),
            data_packet(5, 10, VirtualNetwork.RESPONSE, net.cycle),
            control_packet(12, 3, VirtualNetwork.FORWARD, net.cycle),
            control_packet(7, 7, VirtualNetwork.REQUEST, net.cycle),
            data_packet(2, 13, VirtualNetwork.RESPONSE, net.cycle),
        ]
        for packet in packets:
            net.inject(packet)
        net.run_until_drained(50_000)
        assert all(p.delivered_at is not None for p in packets)
        # Strict checker did not raise, and the books balance.
        assert checker.flits_sent == checker.flits_ejected
        assert not checker.live

    @settings(max_examples=10, deadline=None)
    @given(schedule=liveness_schedules())
    def test_fault_replay_is_deterministic(self, schedule):
        """Same (schedule, workload) pair => identical run, bit for bit."""

        def run():
            net = Network(replace(CONFIG, faults=schedule.to_spec()), PowerPunchPG())
            injector = net.faults
            traffic = SyntheticTraffic(net, "uniform_random", 0.02, seed=9)
            measure(net, traffic, warmup=100, measurement=300)
            s = net.stats
            return (s.delivered, s.total_network_latency, dict(injector.counts))

        assert run() == run()


class TestBlockingFallback:
    def _cold_start_latency(self, schedule):
        scheme = PowerPunchPG(wakeup_latency=8)
        net = Network(replace(CONFIG, faults=schedule), scheme)
        for _ in range(30):
            net.step()
        packet = control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle)
        net.inject(packet)
        net.run_until_drained(5000)
        return packet.total_latency

    def test_total_punch_loss_degrades_latency_not_liveness(self):
        """With every punch dropped, PowerPunch silently becomes the
        baseline blocking scheme: slower, but every packet arrives."""
        healthy = self._cold_start_latency(None)
        degraded = self._cold_start_latency("punch_drop")
        assert degraded > healthy

    def test_duplicate_punches_are_harmless(self):
        healthy = self._cold_start_latency(None)
        duplicated = self._cold_start_latency("punch_dup")
        # Extra wakeups cannot slow a packet down.
        assert duplicated <= healthy


class TestSpecGrammar:
    def test_parse_full_grammar(self):
        schedule = FaultSchedule.parse(
            "punch_drop,rate=0.5,start=100;"
            "router_stall,router=5,start=200,end=400;seed=7"
        )
        assert schedule.seed == 7
        assert [s.kind for s in schedule.specs] == ["punch_drop", "router_stall"]
        assert schedule.specs[0].rate == 0.5
        assert schedule.specs[0].start == 100
        assert schedule.specs[1].router == 5
        assert schedule.specs[1].end == 400
        assert [spec.kind for spec in schedule.specs] == ["punch_drop", "router_stall"]

    def test_empty_clauses_ignored(self):
        assert FaultSchedule.parse(";;").specs == []

    @pytest.mark.parametrize(
        "bad",
        [
            "frobnicate",
            "punch_drop,rate=2.0",
            "punch_drop,bogus=1",
            "punch_drop,rate=x",
            "punch_drop,delay=0",
            "punch_drop,rate",
            "router_stall,start=5,end=2",
            # A stall is a window, not a number of firings.
            "router_stall,router=3,count=1",
            "router_stall,count=0",
            "seed=x",
            "seed=3,rate=1",
        ],
    )
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(FaultSpecError):
            FaultSchedule.parse(bad)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(FAULT_KINDS),
        rate=st.floats(0.0, 1.0),
        start=st.integers(0, 1000),
        extra=st.integers(0, 1000),
        delay=st.integers(1, 50),
    )
    def test_spec_window_semantics(self, kind, rate, start, extra, delay):
        spec = FaultSpec(kind=kind, rate=rate, start=start, end=start + extra, delay=delay)
        assert spec.active_at(start)
        assert spec.active_at(start + extra)
        assert not spec.active_at(start - 1)
        assert not spec.active_at(start + extra + 1)
        assert spec.matches(0) and spec.matches(15)


class TestInjectorAccounting:
    def test_count_budget_limits_firings(self):
        injector = FaultInjector(
            FaultSchedule([FaultSpec(kind="wakeup_fail", count=3)])
        )
        outcomes = [injector.wakeup_disposition(0, c)[0] for c in range(10)]
        assert outcomes.count("fail") == 3
        assert outcomes[3:] == ["ok"] * 7
        assert {k: v for k, v in injector.counts.items() if v} == {"wakeup_fail": 3}

    def test_zero_rate_never_fires(self):
        injector = FaultInjector(
            FaultSchedule([FaultSpec(kind="punch_drop", rate=0.0)])
        )
        assert all(
            injector.punch_disposition(r, c) == ("ok", 0)
            for r in range(16)
            for c in range(50)
        )
        assert not any(injector.counts.values())

    def test_stall_is_a_deterministic_window(self):
        injector = FaultInjector(
            FaultSchedule(
                [FaultSpec(kind="router_stall", router=5, start=10, end=20)]
            )
        )
        assert not injector.is_stalled(5, 9)
        assert all(injector.is_stalled(5, c) for c in range(10, 21))
        assert not injector.is_stalled(5, 21)
        assert not injector.is_stalled(4, 15)  # other routers unaffected
        # Asking is pure: a window's opening is recorded by the network.
        assert injector.counts["router_stall"] == 0

    @pytest.mark.parametrize("kernel", ["auto", "naive"])
    def test_an_idle_routers_stall_window_reaches_the_ring(self, kernel):
        """Every window's opening is recorded at its start, once,
        whether or not its router holds flits then."""
        net = Network(
            NoCConfig(
                width=4, height=4, kernel=kernel,
                faults="router_stall,router=5,start=10;router_stall,start=12,end=13",
            )
        )
        net.run(20)
        assert not net.active_routers
        assert [(e.cycle, e.kind, e.where) for e in net.ring.snapshot()] == [
            (10, "fault:router_stall", 5),
            (12, "fault:router_stall", -1),
        ]
        assert net.faults.counts["router_stall"] == 2
