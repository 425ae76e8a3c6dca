"""Cell runners: one deterministic simulation per spec.

``run_cell`` is the single entry point the engine executes — inline or
on process-pool workers — so it and everything it dispatches to must
stay importable at module top level (picklability) and must derive all
behavior from the spec alone (determinism).  The former
``common.run_parsec``/``common.run_synthetic`` loops live here now,
and so does what a payload is made of: the scheme registry
(:func:`make_scheme`) and the :class:`RunRecord` measurement row, below
the experiments layer, which re-exports them.
"""

from __future__ import annotations

import traceback
from collections import Counter
from contextlib import closing
from dataclasses import asdict, dataclass, replace
from typing import Optional

from ..baselines import NoRDLike
from ..core import ConvOptPG, NoPG, PowerPunchPG, PowerPunchSignal
from ..noc import Activity, Network, NoCConfig
from ..noc.packet import reset_packet_ids
from ..power import DEFAULT_CONSTANTS, EnergyModel, account
from ..system import Chip, get_profile
from ..traffic import SyntheticTraffic
from .spec import CANONICAL_INSTRUCTIONS, CellSpec

#: The four evaluated schemes, in the paper's order (Sec. 5).
SCHEMES = {
    "No-PG": NoPG,
    "ConvOpt-PG": ConvOptPG,
    "PowerPunch-Signal": PowerPunchSignal,
    "PowerPunch-PG": PowerPunchPG,
}

SCHEME_ORDER = list(SCHEMES)

#: The three power-gating schemes (everything but the No-PG baseline).
PG_SCHEMES = SCHEME_ORDER[1:]

#: The schemes of the synthetic sweeps (Figs 12-13, Sec. 6.6(2)).
SWEEP_SCHEMES = ["No-PG", "ConvOpt-PG", "PowerPunch-PG"]

#: Schemes runnable by name but outside the paper's headline four
#: (Sec. 6.6(3) comparison baselines).
EXTRA_SCHEMES = {
    "NoRD-like": NoRDLike,
}

ALL_SCHEMES = {**SCHEMES, **EXTRA_SCHEMES}


def make_scheme(name: str, **kwargs):
    """Instantiate a scheme by registry name.

    Unexpected kwargs always fail loudly: parameterized schemes raise
    ``TypeError`` from their constructors, and No-PG (which takes no
    parameters) rejects any kwargs explicitly so a typo in a sweep
    spec cannot silently evaporate.
    """
    cls = ALL_SCHEMES[name]
    if cls is NoPG:
        if kwargs:
            raise TypeError(
                f"No-PG accepts no scheme kwargs, got {sorted(kwargs)}"
            )
        return cls()
    return cls(**kwargs)


@dataclass
class RunRecord:
    """One (workload, scheme) measurement."""

    workload: str
    scheme: str
    execution_time: int
    avg_packet_latency: float
    avg_total_latency: float
    avg_blocked_routers: float
    avg_wakeup_wait: float
    injection_rate: float
    dynamic_energy: float
    static_energy: float
    overhead_energy: float
    cycles: int

    @property
    def net_static_energy(self) -> float:
        """Static energy charged with the PG overhead (Sec. 6.3 fairness)."""
        return self.static_energy + self.overhead_energy

    @property
    def total_energy(self) -> float:
        """Dynamic + static + overhead energy of the run."""
        return self.dynamic_energy + self.net_static_energy

    def static_power_w(self) -> float:
        """Average net router static power (watts) over the run."""
        seconds = self.cycles / DEFAULT_CONSTANTS.frequency
        return self.net_static_energy / seconds if seconds else 0.0


def build_scheme(spec: CellSpec):
    """Instantiate the spec's scheme and apply attribute overrides."""
    scheme = make_scheme(spec.scheme, **dict(spec.scheme_kwargs))
    for attr, value in spec.scheme_attrs:
        if not hasattr(scheme, attr):
            raise TypeError(
                f"scheme {spec.scheme!r} has no attribute {attr!r} "
                "(typo in a cell's scheme_attrs?)"
            )
        setattr(scheme, attr, value)
    return scheme


# ----------------------------------------------------------------------
# Direct runners (also the public imperative API)
# ----------------------------------------------------------------------
def run_parsec(
    benchmark: str,
    scheme_name: str,
    instructions: int = CANONICAL_INSTRUCTIONS,
    seed: int = 1,
    config: Optional[NoCConfig] = None,
    **scheme_kwargs,
) -> RunRecord:
    """Run one PARSEC-profile workload under one scheme."""
    config = config or NoCConfig()
    scheme = make_scheme(scheme_name, **scheme_kwargs)
    chip = Chip(
        config,
        scheme,
        get_profile(benchmark),
        instructions_per_core=instructions,
        seed=seed,
        benchmark=benchmark,
    )
    with closing(chip):
        result = chip.run(max_cycles=8_000_000)
        energy = EnergyModel().account(chip.network)
    return RunRecord(
        workload=benchmark,
        scheme=scheme_name,
        execution_time=result.execution_time,
        avg_packet_latency=result.avg_packet_latency,
        avg_total_latency=result.avg_total_latency,
        avg_blocked_routers=result.avg_blocked_routers,
        avg_wakeup_wait=result.avg_wakeup_wait,
        injection_rate=result.injection_rate,
        dynamic_energy=energy.dynamic,
        static_energy=energy.static,
        overhead_energy=energy.overhead,
        cycles=result.cycles,
    )


def run_synthetic(
    pattern: str,
    injection_rate: float,
    scheme_name: str,
    warmup: int = 1000,
    measurement: int = 6000,
    seed: int = 7,
    config: Optional[NoCConfig] = None,
    drain: bool = True,
    **scheme_kwargs,
) -> RunRecord:
    """Run one open-loop synthetic-traffic point under one scheme."""
    return _run_synthetic_cell(
        CellSpec.synthetic(
            pattern,
            injection_rate,
            scheme_name,
            warmup=warmup,
            measurement=measurement,
            seed=seed,
            drain=drain,
            config=config,
            scheme_kwargs=scheme_kwargs,
        )
    )


def _measure(
    network: Network, spec: CellSpec, warmup: int, measurement: int, drain: bool
) -> Activity:
    """The one open-loop measurement every synthetic cell kind shares.

    Drive ``spec``'s traffic through ``network`` (built, and with
    whatever the kind observes through already installed, by the
    caller): warm up, open the statistics window, measure, then drain
    if asked.  ``warmup=0`` opens the window at cycle 0, so every packet
    counts.  Returns the window's activity (the drain is not in it).
    """
    traffic = SyntheticTraffic(
        network, spec.workload, spec.injection_rate, seed=spec.seed
    )
    traffic.run(warmup)
    start = network.activity()
    network.stats.measure_from = network.cycle
    traffic.run(measurement)
    window = network.activity() - start
    if drain:
        traffic.drain()
    return window


# ----------------------------------------------------------------------
# Cell-kind dispatch
# ----------------------------------------------------------------------
def _run_parsec_cell(spec: CellSpec) -> RunRecord:
    if spec.scheme_attrs:
        raise TypeError("parsec cells do not support scheme_attrs")
    return run_parsec(
        spec.workload,
        spec.scheme,
        instructions=spec.instructions,
        seed=spec.seed,
        config=spec.build_config(),
        **dict(spec.scheme_kwargs),
    )


def _run_synthetic_cell(spec: CellSpec) -> RunRecord:
    if spec.scheme_attrs:
        raise TypeError("RunRecord synthetic cells do not support scheme_attrs")
    with closing(Network(spec.build_config(), build_scheme(spec))) as network:
        energy = account(
            _measure(network, spec, spec.warmup, spec.measurement, spec.drain)
        )
    stats = network.stats
    return RunRecord(
        workload=f"{spec.workload}@{spec.injection_rate}",
        scheme=spec.scheme,
        execution_time=network.cycle,
        avg_packet_latency=stats.avg_packet_latency,
        avg_total_latency=stats.avg_total_latency,
        avg_blocked_routers=stats.avg_blocked_routers,
        avg_wakeup_wait=stats.avg_wakeup_wait,
        injection_rate=stats.throughput(network.config.num_nodes),
        dynamic_energy=energy.dynamic,
        static_energy=energy.static,
        overhead_energy=energy.overhead,
        cycles=energy.cycles,
    )


def _run_metrics_cell(spec: CellSpec) -> dict:
    """Extended metrics payload (ablations / baselines comparison).

    ``latency``, ``wait`` and ``delivered`` count the packets created
    in the measurement window.  The window's gating and energy are its
    ``activity`` record, read and priced by whoever reads the payload
    (``repro.power.account``), so one stored run re-prices at any
    constants.
    """
    scheme = build_scheme(spec)
    with closing(Network(spec.build_config(), scheme)) as network:
        window = _measure(network, spec, spec.warmup, spec.measurement, spec.drain)
    stats = network.stats
    return {
        "latency": stats.avg_total_latency,
        "wait": stats.avg_wakeup_wait,
        "activity": asdict(window),
        "delivered": stats.delivered,
        "detoured": getattr(scheme, "detoured_packets", 0),
    }


def _run_reliability_cell(spec: CellSpec) -> dict:
    """One Monte-Carlo reliability trial (see spec module docstring).

    The fault schedule is sampled from the cell seed and laid over the
    cell config (the experiments layer passes a ``degradation="reroute"``
    one) with strict invariants and the trial's deadlock watchdog; the
    network built from that config runs from cycle 0 to a full drain.
    Liveness failures (watchdog deadlock, drain timeout) are *outcomes*,
    not crashes — they are folded into the payload so the estimator
    sees them; genuine invariant violations still propagate as the
    cell's failure.
    """
    from ..noc.errors import DeadlockError, DrainTimeoutError
    from ..noc.faults import sample_fault_schedule

    params = dict(spec.extras)
    config = spec.build_config()
    schedule = sample_fault_schedule(
        spec.seed,
        config.num_nodes,
        max_faults=params["max_faults"],
        horizon=params["horizon"],
    )
    config = replace(
        config, faults=schedule.to_spec(), strict_invariants=True, watchdog=params["watchdog"]
    )
    scheme = build_scheme(spec) if spec.scheme != "-" else None
    outcome = "drained"
    with closing(Network(config, scheme)) as network:
        try:
            _measure(network, spec, 0, spec.warmup + spec.measurement, True)
        except (DeadlockError, DrainTimeoutError):
            outcome = "deadlock"
    stats = network.stats
    in_flight_losses = stats.dropped_packets - stats.refused_packets
    return {
        "fault_spec": config.faults,
        "outcome": outcome,
        "deadlocked": outcome == "deadlock",
        "injected": stats.injected_packets,
        "delivered": stats.delivered,
        "dropped": stats.dropped_packets,
        "refused": stats.refused_packets,
        "delivered_all": outcome == "drained"
        and in_flight_losses == 0
        and stats.delivered == stats.injected_packets,
        "dead_routers": sorted(network.dead_routers),
        "wakeup_retries": stats.wakeup_retries,
        "rerouted_packets": stats.rerouted_packets,
        "detour_hops": stats.detour_hops,
        "cycles": network.cycle,
    }


def _run_guarantees_cell(spec: CellSpec) -> dict:
    """One latency-bound validation run (see spec module docstring).

    Fault-free by construction — the bound checker refuses faulted
    networks — and kernel-agnostic: the checker rides the delivery
    stream, so ``kernel="vector"`` cells stay engaged.  Warmup
    deliveries are checked too (a certified bound holds for every
    packet, not just measured ones); the latency quantiles cover the
    measurement window, matching every other stats figure, and are
    exact: a ``delivered`` subscriber tallies each measured latency.
    """
    from ..guarantees import BoundChecker

    checker = BoundChecker(strict=bool(dict(spec.extras).get("strict", False)))
    scheme = build_scheme(spec) if spec.scheme != "-" else None
    latencies: Counter = Counter()
    with closing(Network(spec.build_config(), scheme)) as network:
        stats = network.stats

        def tally(packet, cycle):
            # The window filter ``NetworkStats.record_delivery`` applies.
            if packet.created_at >= stats.measure_from:
                latencies[packet.network_latency] += 1

        checker.attach(network)
        network.subscribe("delivered", tally)
        _measure(network, spec, spec.warmup, spec.measurement, spec.drain)
    return {
        **checker.report(),
        "delivered": stats.delivered,
        "avg_latency": stats.avg_packet_latency,
        "p50": _nearest_rank(latencies, 50),
        "p95": _nearest_rank(latencies, 95),
        "p99": _nearest_rank(latencies, 99),
        "cycles": network.cycle,
    }


def _nearest_rank(counts: Counter, percent: int) -> Optional[int]:
    """The ``percent``-th nearest-rank percentile of the values
    ``counts`` tallies: the ``ceil(percent / 100 * n)``-th smallest of
    its ``n`` values (``None`` when it tallies none)."""
    rank = -(-percent * sum(counts.values()) // 100)
    for value in sorted(counts):
        rank -= counts[value]
        if rank <= 0:
            return value
    return None


_RUNNERS = {
    "parsec": _run_parsec_cell,
    "synthetic": _run_synthetic_cell,
    "synthetic_metrics": _run_metrics_cell,
    "reliability": _run_reliability_cell,
    "guarantees": _run_guarantees_cell,
}


def run_cell(spec: CellSpec):
    """Execute one cell and return its payload.

    Simulator failures get the cell's identity attached as an
    exception note, so a traceback that crosses a process-pool
    boundary (or lands in a quarantine report) still says which cell
    died without the supervisor having to reconstruct it.  The
    traceback keeps its files and lines but not its frames' locals: the
    runners have closed what they built, and a kept failure (an inline
    ``failure_mode="continue"`` campaign holds one per failed cell)
    must not pin the routers and caches those locals still name.
    """
    try:
        runner = _RUNNERS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {spec.kind!r}") from None
    # Packet IDs restart per cell so a cell's payload and error text
    # (error messages embed packet IDs) do not depend on what ran
    # before it in the same worker.
    reset_packet_ids()
    try:
        return runner(spec)
    except Exception as exc:
        traceback.clear_frames(exc.__traceback__)
        note = f"cell: {spec.label} (kind={spec.kind}, seed={spec.seed})"
        if hasattr(exc, "add_note"):  # PEP 678, Python 3.11+
            exc.add_note(note)
        else:  # pragma: no cover - exercised on 3.9/3.10 only
            exc.cell_note = note
        raise
