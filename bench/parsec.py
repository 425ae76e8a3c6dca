"""Closed-loop workload ``parsec_suite``: 8 PARSEC profiles x 4 schemes, inline.

The untraced run executes each cell through ``repro.campaign.run_cell``;
the traced run performs ``run_parsec``'s public calls itself (``Chip``,
``Chip.run``, ``EnergyModel.account``) with a clock between them and
checks it produced the same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

from repro.campaign import CellSpec, code_salt, encode_payload, run_cell
from repro.experiments.common import SCHEME_ORDER, RunRecord, make_scheme
from repro.experiments.headline import compute_headline
from repro.noc.packet import reset_packet_ids
from repro.power import EnergyModel
from repro.system import PARSEC_BENCHMARKS, Chip, get_profile

from .harness import Stopwatch, Tracer, Units, digest, run_passes

#: Paper's PowerPunch-PG headline (abstract): +7.9 % latency, +0.4 %
#: execution time, 83 % static energy saved.
PAPER = {"latency_penalty": 0.079, "execution_penalty": 0.004, "static_saved": 0.83}
HEADLINE_SCHEME = "PowerPunch-PG"


@dataclass(frozen=True)
class ParsecSizes:
    benchmarks: Tuple[str, ...]
    instructions: int


SIZES = ParsecSizes(tuple(PARSEC_BENCHMARKS), 1000)
QUICK_SIZES = ParsecSizes(tuple(PARSEC_BENCHMARKS[:2]), 300)


class ParsecWorkload:
    name = "parsec_suite"
    workers = 1

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.sizes = QUICK_SIZES if quick else SIZES
        self.seed = seed
        self.units = Units()
        self.cells: List[CellSpec] = []
        #: cell label -> (encoded payload, simulated cycles), first pass.
        self.outputs: Dict[str, Tuple[dict, int]] = {}
        self.records: Dict[str, RunRecord] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def setup(self) -> None:
        """Declare the sweep.  Chips are built inside each cell, as users pay it.

        Every simulated cycle count of a cell follows its seed, and all
        benchmarks sharing one seed move together (+-5 % on the total);
        one derived seed per benchmark lets them average out.  The four
        schemes of a benchmark share it, as the headline ratios require.
        """
        code_salt.cache_clear()
        code_salt()
        self.cells = [
            CellSpec.parsec(bench, scheme, instructions=self.sizes.instructions, seed=self.seed * 100 + i)
            for i, bench in enumerate(self.sizes.benchmarks)
            for scheme in SCHEME_ORDER
        ]

    def teardown(self) -> None:
        pass

    @property
    def cells_per_pass(self) -> int:
        return len(self.cells)

    @property
    def cycles_per_pass(self) -> int:
        return sum(cycles for _payload, cycles in self.outputs.values())

    def _accept(self, spec: CellSpec, record: RunRecord, where: str) -> None:
        self.attempted += 1
        seen = (encode_payload(record), record.cycles)
        first = self.outputs.setdefault(spec.label, seen)
        self.records.setdefault(spec.label, record)
        if seen != first:
            self.failures.append(f"parsec_suite: {where} run of {spec.label} diverged from the first")

    def one_pass(self) -> None:
        for spec in self.cells:
            start = perf_counter()
            record = run_cell(spec)
            self.units.record(spec.label, perf_counter() - start)
            self._accept(spec, record, "untraced")

    def measure(self, seconds: float) -> None:
        run_passes(self.one_pass, seconds)

    def check(self) -> None:
        pass  # every pass already compared each cell with its first run

    def output_digest(self) -> str:
        return digest(sorted((label, payload) for label, (payload, _c) in self.outputs.items()))

    def model_error(self) -> Dict[str, float]:
        """|simulated headline - paper|, in percentage points."""
        headline = compute_headline(list(self.records.values()))
        return {
            "model_err.latency_penalty_pp": abs(headline["latency_penalty"][HEADLINE_SCHEME] - PAPER["latency_penalty"]) * 100,
            "model_err.exec_penalty_pp": abs(headline["execution_penalty"][HEADLINE_SCHEME] - PAPER["execution_penalty"]) * 100,
            "model_err.static_saved_pp": abs(headline["static_saved"][HEADLINE_SCHEME] - PAPER["static_saved"]) * 100,
        }

    # -- traced run -----------------------------------------------------
    def _traced_cell(self, tracer: Tracer, spec: CellSpec) -> Tuple[RunRecord, float]:
        """``run_cell`` -> ``run_parsec`` with a clock between the public calls."""
        start = perf_counter()
        reset_packet_ids()
        with tracer.span("cell", op=spec.label) as root:
            with tracer.span("system.chip_build", root["id"], root["op"]):
                chip = Chip(
                    spec.build_config(),
                    make_scheme(spec.scheme, **dict(spec.scheme_kwargs)),
                    get_profile(spec.workload),
                    instructions_per_core=spec.instructions,
                    seed=spec.seed,
                    benchmark=spec.workload,
                )
            noc = Stopwatch()
            chip.network.step = noc.wrap(chip.network.step)
            with tracer.span("system.chip_run", root["id"], root["op"]) as run:
                result = chip.run(max_cycles=8_000_000)
            tracer.aggregate("noc.step", run, noc.busy, noc.calls)
            with tracer.span("power.account", root["id"], root["op"]):
                energy = EnergyModel().account(chip.network)
        record = RunRecord(
            workload=spec.workload,
            scheme=spec.scheme,
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
        return record, perf_counter() - start

    def trace(self, tracer: Tracer) -> Dict[str, float]:
        self.one_pass()
        reference = self.units.pass_totals()[-1]
        traced = 0.0
        for spec in self.cells:
            record, elapsed = self._traced_cell(tracer, spec)
            traced += elapsed
            self._accept(spec, record, "traced")
        run_s = tracer.busy("system.chip_run")
        noc_s = tracer.busy("noc.step")
        return {
            "system.chip_build_ms": tracer.busy("system.chip_build") / len(self.cells) * 1e3,
            "system.self_us_per_cycle": (run_s - noc_s) / tracer.calls("noc.step") * 1e6,
            "system.noc_share": noc_s / run_s,
            "power.account_ms": tracer.busy("power.account") / len(self.cells) * 1e3,
            **self.model_error(),
            "trace_overhead_pct": (traced / reference - 1.0) * 100.0,
        }
