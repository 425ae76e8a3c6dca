"""Tests for the router energy model."""

import ast
import importlib.util

import pytest

from repro.core import ConvOptPG
from repro.noc import Activity, Network, NoCConfig, VirtualNetwork, control_packet
from repro.power import DEFAULT_CONSTANTS, EnergyModel, PowerConstants, account
from repro.power import model


class TestConstants:
    def test_static_energy_per_cycle(self):
        c = PowerConstants(frequency=2e9, router_static_power=27.3e-3)
        assert c.router_static_energy_per_cycle == pytest.approx(13.65e-12)

    def test_break_even_definition(self):
        # One PG event costs exactly BET cycles of static energy.
        c = DEFAULT_CONSTANTS
        assert c.power_gate_event_energy == pytest.approx(
            c.break_even_cycles * c.router_static_energy_per_cycle
        )

    def test_chip_static_power_anchor(self):
        # 64 routers at ~27.3 mW each ~ 1.75 W (Fig. 12 No-PG curves).
        total = 64 * DEFAULT_CONSTANTS.router_static_power
        assert 1.6 < total < 1.9


class TestNoPGAccounting:
    def test_static_scales_with_cycles_and_routers(self):
        net = Network(NoCConfig(width=4, height=4))
        for _ in range(100):
            net.step()
        e = EnergyModel().account(net)
        expected = 100 * 16 * DEFAULT_CONSTANTS.router_static_energy_per_cycle
        assert e.static == pytest.approx(expected)
        assert e.overhead == 0.0

    def test_dynamic_counts_traversals(self):
        net = Network(NoCConfig(width=4, height=4))
        p = control_packet(0, 3, VirtualNetwork.REQUEST, 0)
        net.inject(p)
        net.run_until_drained(500)
        e = EnergyModel().account(net)
        c = DEFAULT_CONSTANTS
        # 4 router traversals (0,1,2,3) and 3 link traversals.
        assert e.dynamic == pytest.approx(
            4 * c.flit_router_energy + 3 * c.flit_link_energy
        )


class TestPGAccounting:
    def test_gating_reduces_static(self):
        net_on = Network(NoCConfig(width=4, height=4))
        net_pg = Network(NoCConfig(width=4, height=4), ConvOptPG())
        for _ in range(300):
            net_on.step()
            net_pg.step()
        e_on = EnergyModel().account(net_on)
        e_pg = EnergyModel().account(net_pg)
        assert e_pg.static < 0.2 * e_on.static

    def test_overhead_charged_per_wake(self):
        scheme = ConvOptPG(wakeup_latency=4)
        net = Network(NoCConfig(width=4, height=4), scheme)
        for _ in range(50):
            net.step()
        p = control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle)
        net.inject(p)
        net.run_until_drained(500)
        e = EnergyModel().account(net)
        wakes = scheme.total_wake_events()
        assert wakes > 0
        c = DEFAULT_CONSTANTS
        assert e.overhead >= wakes * c.power_gate_event_energy

    def test_snapshot_window(self):
        net = Network(NoCConfig(width=4, height=4))
        model = EnergyModel()
        for _ in range(100):
            net.step()
        snap = model.snapshot(net)
        for _ in range(50):
            net.step()
        window = model.account(net, since=snap)
        assert window.cycles == 50
        assert window.static == pytest.approx(
            50 * 16 * DEFAULT_CONSTANTS.router_static_energy_per_cycle
        )


class TestBreakdownHelpers:
    def test_net_static_and_total(self):
        net = Network(NoCConfig(width=4, height=4), ConvOptPG())
        for _ in range(200):
            net.step()
        e = EnergyModel().account(net)
        assert e.net_static == pytest.approx(e.static + e.overhead)
        assert e.total == pytest.approx(e.dynamic + e.static + e.overhead)

    def test_static_power_watts(self):
        net = Network(NoCConfig(width=4, height=4))
        for _ in range(100):
            net.step()
        e = EnergyModel().account(net)
        # 16 always-on routers: static power = 16 * 27.3 mW.
        seconds = e.cycles / DEFAULT_CONSTANTS.frequency
        assert e.net_static / seconds == pytest.approx(
            16 * DEFAULT_CONSTANTS.router_static_power, rel=1e-6
        )


class TestActivityRecord:
    """Energy is :func:`repro.power.account` of one activity record."""

    def test_power_model_imports_no_simulator(self):
        tree = ast.parse(open(model.__file__).read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                name = "." * node.level + (node.module or "")
                imported.add(importlib.util.resolve_name(name, "repro.power"))
        assert imported  # the walk saw the import statements
        for name in imported:
            assert not name.startswith(("repro.core", "repro.noc")), name

    def test_window_is_the_difference_of_two_reads(self):
        scheme = ConvOptPG(wakeup_latency=4)
        net = Network(NoCConfig(width=4, height=4), scheme)
        for _ in range(50):
            net.step()
        start = net.activity()
        net.inject(control_packet(0, 3, VirtualNetwork.REQUEST, net.cycle))
        net.run_until_drained(500)
        window = net.activity() - start
        assert window.cycles == net.cycle - 50
        assert (window.num_routers, window.num_ports, window.gated) == (16, 5, True)
        assert window.wake_events == scheme.total_wake_events() > 0
        assert window.off_cycles == scheme.total_off_cycles() - start.off_cycles
        model = EnergyModel()
        assert account(window) == model.account(net, since=start)
        # A closed network reads the same record.
        end = net.activity()
        net.close()
        assert net.activity() == end

    def test_always_on_record(self):
        net = Network(NoCConfig(width=4, height=4))
        for _ in range(10):
            net.step()
        assert net.activity() == Activity(
            cycles=10,
            num_routers=16,
            num_ports=5,
            router_traversals=0,
            link_traversals=0,
            on_cycles=160,
            off_cycles=0,
            wake_events=0,
            punch_transmissions=0,
            gated=False,
        )
