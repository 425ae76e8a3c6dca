"""Guarantees layer: analytical latency bounds + runtime enforcement.

Covers the bound model term by term, the non-blocking certificate
(PowerPunch-PG's bound equals No-PG's on every route; ConvOpt-PG's is
strictly larger; a slack-starved punch loses the certificate), the
BoundChecker's quiet path and its firing path (proven with a
deliberately unsatisfiable bound), the bounds/faults mutual exclusion
(one site: ``BoundChecker.attach``), the ``guarantees`` campaign cell
(its latency percentiles exact on both engines), and a hypothesis
property: at low load no delivered packet exceeds its certified bound
on any topology, scheme, or cycle kernel.
"""

import ast
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.baselines import NoRDLike
from repro.campaign import CellSpec
from repro.campaign.runner import run_cell
from repro.core import ConvOptPG, NoPG, PowerPunchPG
from repro.experiments.guarantees import certificate_report, render_certificates
from repro.guarantees import (
    BoundChecker,
    LatencyBoundModel,
    UnboundableConfigError,
    certify_non_blocking,
    wakeup_penalty_per_hop,
)
from repro.noc import (
    BoundViolationError,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InvariantChecker,
    Network,
    NoCConfig,
)
from repro.powergate import PowerGateController
from repro.traffic import SyntheticTraffic

CONFIG = NoCConfig(width=4, height=4)


# ----------------------------------------------------------------------
# Penalty model
# ----------------------------------------------------------------------
def test_always_on_penalty_is_zero():
    assert wakeup_penalty_per_hop(None, CONFIG) == 0
    assert wakeup_penalty_per_hop(NoPG(), CONFIG) == 0


def test_powerpunch_default_penalty_is_zero():
    # punch_hops = ceil(8/3) = 3 hides 9 >= 8 cycles: the certificate.
    scheme = PowerPunchPG()
    assert scheme.punch_horizon(CONFIG) == 3
    assert wakeup_penalty_per_hop(scheme, CONFIG) == 0


def test_slack_starved_punch_pays_residual():
    scheme = PowerPunchPG(punch_hops=1)  # hides only 3 of 8 cycles
    assert scheme.punch_horizon(CONFIG) == 1
    assert wakeup_penalty_per_hop(scheme, CONFIG) == 5


def test_penalty_is_priced_from_the_config_it_is_given():
    """Attaching a scheme to a 4-stage network (horizon ceil(8/4) = 2)
    does not change its price on the default 3-stage config."""
    scheme = PowerPunchPG()
    Network(NoCConfig(width=4, height=4, router_stages=4), scheme)
    assert scheme.punch_hops == 2
    assert scheme.punch_horizon(NoCConfig()) == 3
    assert wakeup_penalty_per_hop(scheme, NoCConfig()) == 0


def test_convopt_pays_full_wakeup():
    assert wakeup_penalty_per_hop(ConvOptPG(), CONFIG) == 8
    assert wakeup_penalty_per_hop(ConvOptPG(wakeup_latency=12), CONFIG) == 12


def test_penalty_matches_controller_contract():
    # The analytical per-hop price for non-forewarned schemes is what
    # the controller FSM charges: a wakeup request that finds the router
    # OFF makes it available exactly ``wakeup_latency`` cycles later.
    controller = PowerGateController(0, wakeup_latency=8, timeout=4)
    cycle = 0
    while not controller.is_off:
        controller.step(cycle, datapath_empty=True, node_wants_router=False)
        cycle += 1
    controller.request_wakeup(cycle)
    stall = next(n for n in range(64) if controller.available_by(cycle + n))
    assert stall == wakeup_penalty_per_hop(ConvOptPG(), CONFIG) == 8


def test_nord_is_unboundable():
    with pytest.raises(UnboundableConfigError):
        wakeup_penalty_per_hop(NoRDLike(), CONFIG)


def test_unknown_scheme_is_unboundable():
    with pytest.raises(UnboundableConfigError):
        wakeup_penalty_per_hop(object(), CONFIG)


# ----------------------------------------------------------------------
# Bound model
# ----------------------------------------------------------------------
def test_bound_terms_decomposition():
    model = LatencyBoundModel(CONFIG)
    terms = model.bound(0, 3, size_flits=5)  # 3 hops along the top row
    assert terms.hops == 3
    # The pinned zero-load pipeline formula from tests/test_network.
    assert terms.zero_load == 1 + 3 * (3 + 1) + 2
    assert terms.serialization == 4
    # (hops + 1) routers x (num_vcs - 1) competitors x max packet size.
    assert terms.contention == 4 * 5 * 5
    assert terms.wakeup_penalty == 0
    assert terms.total == sum(
        (terms.zero_load, terms.serialization, terms.contention, terms.wakeup_penalty)
    )
    assert terms.as_dict()["total"] == terms.total


def test_bound_zero_for_self_route():
    terms = LatencyBoundModel(CONFIG).bound(5, 5)
    assert terms.hops == 0
    assert terms.total == 0


def test_bound_scales_with_wakeup_penalty():
    base = LatencyBoundModel(CONFIG, None).bound(0, 15).total
    conv = LatencyBoundModel(CONFIG, ConvOptPG()).bound(0, 15).total
    assert conv == base + 6 * 8  # 6 hops x full wakeup each


# ----------------------------------------------------------------------
# The non-blocking certificate
# ----------------------------------------------------------------------
def test_powerpunch_certificate_holds_on_8x8():
    cert = certify_non_blocking(NoCConfig())
    assert cert["routes"] == 64 * 63
    assert cert["equal_routes"] == cert["routes"]
    assert cert["non_blocking"] is True
    assert cert["max_gap_cycles"] == 0
    assert cert["wakeup_penalty_per_hop"] == 0


def test_convopt_bound_strictly_larger_everywhere():
    cert = certify_non_blocking(NoCConfig(), ConvOptPG())
    assert cert["non_blocking"] is False
    assert cert["equal_routes"] == 0
    # Worst route: the 14-hop mesh diagonal, 8 cycles per hop.
    assert cert["max_gap_cycles"] == 14 * 8


def test_slack_starved_punch_loses_certificate():
    cert = certify_non_blocking(NoCConfig(), PowerPunchPG(punch_hops=1))
    assert cert["non_blocking"] is False
    assert cert["max_gap_cycles"] == 14 * 5


def test_certificate_report_renders_both_schemes():
    certs = certificate_report(NoCConfig(width=4, height=4))
    assert certs["PowerPunch-PG"]["non_blocking"] is True
    assert certs["ConvOpt-PG"]["non_blocking"] is False
    text = render_certificates(certs)
    assert "PowerPunch-PG" in text and "YES" in text


# ----------------------------------------------------------------------
# Runtime enforcement
# ----------------------------------------------------------------------
def _run_with_checker(config, scheme, checker, rate=0.05, cycles=400, seed=7):
    network = Network(config, scheme)
    checker.attach(network)
    traffic = SyntheticTraffic(network, "uniform_random", rate, seed=seed)
    traffic.run(cycles)
    traffic.drain()
    return network


def test_checker_quiet_at_low_load():
    checker = BoundChecker(strict=True)
    _run_with_checker(CONFIG, PowerPunchPG(), checker)
    assert checker.checked > 0
    assert not checker.violations
    report = checker.report()
    assert report["violations"] == 0
    assert 0.0 < report["worst_ratio"] <= 1.0
    assert report["worst"]["observed"] <= report["worst"]["bound"]
    assert report["model"]["wakeup_penalty_per_hop"] == 0


def _no_contention_checker(scheme, strict):
    """A checker whose bound allows no contention: a bound real
    traffic cannot meet."""
    model = LatencyBoundModel(CONFIG, scheme, contention_per_router=0)
    return BoundChecker(strict=strict, model=model)


def test_strict_checker_raises_on_unsatisfiable_bound():
    # Zero contention allowance is a bound real traffic cannot meet:
    # proves the firing path end to end (route + decomposition).
    scheme = PowerPunchPG()
    checker = _no_contention_checker(scheme, strict=True)
    with pytest.raises(BoundViolationError) as excinfo:
        _run_with_checker(CONFIG, scheme, checker, rate=0.2, cycles=600)
    err = excinfo.value
    assert err.observed > err.bound
    assert err.terms["contention"] == 0
    assert err.route[0] == err.terms["source"]
    assert err.route[-1] == err.terms["destination"]


def test_nonstrict_checker_accumulates_violations():
    scheme = PowerPunchPG()
    checker = _no_contention_checker(scheme, strict=False)
    _run_with_checker(CONFIG, scheme, checker, rate=0.2, cycles=600)
    assert checker.violations
    report = checker.report()
    assert report["violations"] == len(checker.violations)
    assert report["violation_summaries"][0]["observed"] > report[
        "violation_summaries"
    ][0]["bound"]
    assert report["worst_ratio"] > 1.0


def test_violation_carries_post_mortem_with_invariants():
    scheme = PowerPunchPG()
    network = Network(CONFIG, scheme)
    network.install_invariants(InvariantChecker())
    _no_contention_checker(scheme, strict=True).attach(network)
    traffic = SyntheticTraffic(network, "uniform_random", 0.2, seed=7)
    with pytest.raises(BoundViolationError) as excinfo:
        traffic.run(600)
        traffic.drain()
    assert excinfo.value.post_mortem is not None
    assert "post-mortem" in str(excinfo.value).lower()


def test_checker_refuses_faulted_network():
    network = Network(CONFIG, PowerPunchPG())
    schedule = FaultSchedule((FaultSpec(kind="punch_drop", rate=0.5),))
    network.install_faults(FaultInjector(schedule))
    with pytest.raises(UnboundableConfigError):
        BoundChecker().attach(network)


def test_full_load_strict_bounds_powerpunch():
    # The acceptance scenario: the paper's full evaluated load on the
    # 8x8 mesh under strict enforcement, zero violations.
    checker = BoundChecker(strict=True)
    _run_with_checker(NoCConfig(), PowerPunchPG(), checker, rate=0.2, cycles=600)
    assert checker.checked > 500
    assert not checker.violations


# ----------------------------------------------------------------------
# The network layer knows nothing of bounds
# ----------------------------------------------------------------------
def test_config_has_no_bounds_field():
    with pytest.raises(TypeError):
        NoCConfig(bounds=True)


def test_no_noc_module_imports_the_guarantees_layer():
    import repro.noc

    for path in sorted(Path(repro.noc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert not (
                    node.level >= 2 and module.startswith("guarantees")
                ), path.name
                assert not module.startswith("repro.guarantees"), path.name


# ----------------------------------------------------------------------
# The guarantees campaign cell
# ----------------------------------------------------------------------
def _tiny_cell(**overrides):
    params = dict(
        warmup=150,
        measurement=300,
        seed=7,
        config=NoCConfig(width=4, height=4),
    )
    params.update(overrides)
    return CellSpec.guarantees("uniform_random", 0.05, "PowerPunch-PG", **params)


def test_guarantees_cell_payload():
    payload = run_cell(_tiny_cell())
    assert payload["checked"] > 0
    assert payload["violations"] == 0
    assert 0.0 < payload["worst_ratio"] <= 1.0
    assert payload["p50"] <= payload["p95"] <= payload["p99"]
    assert payload["model"]["scheme"] == "PowerPunch-PG"


@pytest.mark.parametrize("kernel", ["active", "vector"])
def test_guarantees_cell_quantiles_are_exact(monkeypatch, kernel):
    """p50/p95/p99 are nearest-rank percentiles of every measured
    latency, past the 512 deliveries a sampled estimate would keep."""
    from repro.campaign import runner

    observed = []

    class ObservedNetwork(Network):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            latencies = []
            observed.append((self, latencies))

            def collect(packet, cycle):
                if packet.created_at >= self.stats.measure_from:
                    latencies.append(packet.network_latency)

            self.subscribe("delivered", collect)

    monkeypatch.setattr(runner, "Network", ObservedNetwork)
    payload = run_cell(
        CellSpec.guarantees(
            "uniform_random",
            0.1,
            "PowerPunch-PG",
            warmup=200,
            measurement=1500,
            seed=7,
            config=NoCConfig(width=4, height=4, kernel=kernel),
        )
    )
    [(network, latencies)] = observed
    assert len(latencies) == network.stats.delivered == payload["delivered"] > 512
    ordered = sorted(latencies)
    for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        assert payload[name] == ordered[math.ceil(q * len(ordered)) - 1], name


def test_guarantees_cell_without_measured_deliveries_has_no_quantiles():
    payload = run_cell(
        CellSpec.guarantees(
            "uniform_random",
            0.0,
            "PowerPunch-PG",
            warmup=50,
            measurement=100,
            config=NoCConfig(width=4, height=4),
        )
    )
    assert payload["delivered"] == 0
    assert (payload["p50"], payload["p95"], payload["p99"]) == (None, None, None)


def test_nearest_rank_of_no_values_is_none():
    from repro.campaign.runner import _nearest_rank

    assert _nearest_rank(Counter(), 50) is None


def test_nearest_rank_of_one_value_is_that_value():
    from repro.campaign.runner import _nearest_rank

    for percent in (1, 50, 99, 100):
        assert _nearest_rank(Counter({23: 1}), percent) == 23
        assert _nearest_rank(Counter({23: 40}), percent) == 23


@pytest.mark.parametrize("percent", [1, 25, 50, 95, 99, 100])
def test_nearest_rank_matches_the_sorted_list(percent):
    """The tally's percentile is the ``ceil(p/100 * n)``-th smallest
    value, at sizes either side of where that rank steps."""
    import random

    from repro.campaign.runner import _nearest_rank

    rng = random.Random(percent)
    for n in (1, 2, 3, 19, 20, 21, 99, 100, 101, 1000):
        values = [rng.randint(10, 40) for _ in range(n)]
        ordered = sorted(values)
        expected = ordered[math.ceil(percent * n / 100) - 1]
        assert _nearest_rank(Counter(values), percent) == expected, n


def test_guarantees_cell_with_faults_is_unboundable():
    # The network installs ``config.faults`` before the cell attaches
    # its checker, which is the one place the exclusion lives.
    cell = _tiny_cell(
        config=NoCConfig(width=4, height=4, faults="punch_drop,rate=0.5")
    )
    with pytest.raises(UnboundableConfigError):
        run_cell(cell)


def test_guarantees_cell_deterministic():
    assert run_cell(_tiny_cell()) == run_cell(_tiny_cell())


def test_guarantees_cell_always_on_reference():
    payload = run_cell(_tiny_cell())
    reference = run_cell(
        CellSpec.guarantees(
            "uniform_random",
            0.05,
            "-",
            warmup=150,
            measurement=300,
            seed=7,
            config=NoCConfig(width=4, height=4),
        )
    )
    assert reference["model"]["scheme"] == "No-PG"
    assert reference["model"]["wakeup_penalty_per_hop"] == 0
    assert payload["model"]["wakeup_penalty_per_hop"] == 0


def test_guarantees_cell_strict_raises():
    # A strict cell over saturating traffic: 8x8 transpose at 0.3 is
    # past saturation, where the admissible-load contention allowance
    # no longer applies — the enforcement path must fire.
    cell = CellSpec.guarantees(
        "transpose",
        0.3,
        "ConvOpt-PG",
        warmup=200,
        measurement=1500,
        seed=7,
        config=NoCConfig(width=8, height=8),
        strict=True,
        drain=False,
    )
    with pytest.raises(BoundViolationError):
        run_cell(cell)


# ----------------------------------------------------------------------
# Property: certified bounds hold at low load everywhere
# ----------------------------------------------------------------------
_SCHEME_BUILDERS = {
    "always-on": lambda: None,
    "No-PG": NoPG,
    "ConvOpt-PG": ConvOptPG,
    "PowerPunch-PG": PowerPunchPG,
}


@st.composite
def bound_scenarios(draw):
    scheme_name = draw(st.sampled_from(sorted(_SCHEME_BUILDERS)))
    kernel = draw(st.sampled_from(("naive", "active", "vector")))
    rate = draw(st.sampled_from((0.01, 0.03, 0.05)))
    seed = draw(st.integers(1, 50))
    return scheme_name, kernel, rate, seed


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(bound_scenarios())
def test_no_packet_exceeds_bound_at_low_load(scenario):
    scheme_name, kernel, rate, seed = scenario
    config = NoCConfig(width=4, height=4, kernel=kernel)
    checker = BoundChecker(strict=True)
    network = Network(config, _SCHEME_BUILDERS[scheme_name]())
    checker.attach(network)
    traffic = SyntheticTraffic(network, "uniform_random", rate, seed=seed)
    traffic.run(300)
    traffic.drain()
    assert checker.checked > 0
    assert not checker.violations
