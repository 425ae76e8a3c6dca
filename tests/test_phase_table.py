"""A cycle is one phase table.

``Network.step`` runs ``net.phases``: the object kernel's table
(``Network._cycle_phases``), the vector engine's while it holds the run
(``VectorEngine._cycle_phases``), or the full-scan reference's own
(``FullScanNetwork._cycle_phases``).  A harness times phases by putting
wrapped callables in that tuple; these tests hold the seam to it — each
declared phase runs once per cycle in declared order, the wrapped run
is the unwrapped run, and the default kernel ends a run that engaged
the engine back on the object table.
"""

import pytest

from repro.bench import _stats_fingerprint
from repro.core import PowerPunchPG
from repro.noc import Network, NoCConfig
from repro.traffic import SyntheticTraffic

#: The declared tables of an 8x8 PowerPunchPG network, by kernel.
TABLES = {
    "active": [
        "_deliver_flits", "_deliver_credits", "_policy_begin", "_step_interfaces",
        "_allocate", "_policy_end", "_close_cycle",
    ],
    "vector": [
        "_deliver", "_credits", "_pg_begin", "_step_interfaces",
        "_va", "_sa", "_pg_end", "_census", "_close_cycle",
    ],
    "naive": [
        "_deliver_flits", "_deliver_credits", "_scan_controllers", "_scan_interfaces",
        "_scan_allocation", "_scan_punches", "_close_cycle",
    ],
}


def _counting(phase, index, calls):
    def counted(cycle):
        calls.append((cycle, index))
        phase(cycle)

    return counted


def _run(kernel, wrap):
    """An 8x8 PowerPunchPG run to drain; the table the first step left
    installed (``kernel="vector"`` engages there) and, if ``wrap``, the
    ``(cycle, phase index)`` calls of the counting table put in its
    place for the rest of the run."""
    net = Network(NoCConfig(kernel=kernel), PowerPunchPG())
    traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=3)
    traffic.run(1)
    declared = net.phases
    calls = []
    if wrap:
        net.phases = tuple(_counting(phase, i, calls) for i, phase in enumerate(declared))
    traffic.run(150)
    traffic.drain()
    return net, declared, calls


@pytest.mark.parametrize("kernel", sorted(TABLES))
def test_each_phase_runs_once_per_cycle_in_declared_order(kernel):
    net, declared, calls = _run(kernel, wrap=True)
    assert [phase.__name__ for phase in declared] == TABLES[kernel]
    assert calls == [(cycle, i) for cycle in range(1, net.cycle) for i in range(len(declared))]
    plain, _declared, _calls = _run(kernel, wrap=False)
    assert (_stats_fingerprint(net), net.cycle) == (_stats_fingerprint(plain), plain.cycle)


def test_the_engine_shares_the_object_kernels_ni_phase_and_cycle_close():
    net = Network(NoCConfig(kernel="vector"), PowerPunchPG())
    net.step()
    assert net._engine is not None
    assert net._step_interfaces in net.phases and net._close_cycle in net.phases


@pytest.mark.parametrize("degradation", ["none", "reroute"])
def test_the_degradation_check_leads_only_a_degrading_faulted_table(degradation):
    def leading(faults):
        config = NoCConfig(
            width=4, height=4, degradation=degradation, dead_router_threshold=50,
            faults=faults,
        )
        net = Network(config, PowerPunchPG())
        return [phase.__name__ for phase in net.phases[: -len(TABLES["active"])]]

    assert leading(None) == []
    # An empty schedule: a fault injector that never fires.
    assert leading("") == (["_check_degradation"] if degradation != "none" else [])


def test_auto_ends_an_engaged_run_on_the_object_table():
    runs = {}
    for kernel in ("active", "auto"):
        net = Network(NoCConfig(width=16, height=16, kernel=kernel), PowerPunchPG())
        traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=7)
        engaged = False
        for _ in range(120):
            traffic.step()
            net.step()
            engaged |= net._engine is not None
        traffic.drain()
        runs[kernel] = (engaged, _stats_fingerprint(net), net.cycle)
        assert net._engine is None and net.phases == net._cycle_phases()
    assert runs["auto"][0] and not runs["active"][0]
    assert runs["auto"][1:] == runs["active"][1:]
