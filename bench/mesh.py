"""Open-loop mesh workloads: ``mesh8_lowload`` and ``mesh16_highload``.

Recorded ``uniform_random`` traces replayed into fresh networks, one
replay per (trace, scheme).  The untraced run goes through
``repro.bench.replay`` unchanged; the traced run drives the same public
calls (``Network``, ``inject``, ``step``, ``run_until_drained``) itself so
it can put a clock between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

from repro.bench import SCHEMES, _stats_fingerprint, record_trace, replay
from repro.core import PowerPunchPG
from repro.noc import Network, NoCConfig
from repro.noc.packet import Packet, VirtualNetwork
from repro.traffic import SyntheticTraffic, measure as measure_window

from .harness import Stopwatch, Tracer, Units, digest, run_passes

ALL_SCHEMES = ("NoPG", "ConvOptPG", "PowerPunchSignal", "PowerPunchPG")
GATED = "PowerPunchPG"
BASELINE = "NoPG"
#: How often the traced loop samples ``len(net.active_routers)``.
ACTIVE_SAMPLE_EVERY = 16


@dataclass(frozen=True)
class MeshSizes:
    width: int
    rate: float
    trace_cycles: int
    traces: int
    schemes: Tuple[str, ...]
    #: Run the golden harness (tests/test_goldens.py: 8x8 mesh, 653).
    golden: bool


# Several distinct traces per pass, not one repeated: the packet count
# of a 1500-cycle trace varies by +-5 % with the seed and cycles/s
# follows it; four traces bring the per-run load within +-2.5 %.
SIZES = {
    "mesh8_lowload": MeshSizes(8, 0.02, 1500, 4, ALL_SCHEMES, golden=True),
    "mesh16_highload": MeshSizes(16, 0.05, 500, 2, (BASELINE, GATED), golden=False),
}
QUICK_SIZES = {
    "mesh8_lowload": MeshSizes(8, 0.02, 200, 1, ALL_SCHEMES, golden=True),
    "mesh16_highload": MeshSizes(16, 0.05, 60, 1, (BASELINE, GATED), golden=False),
}


def golden_blocked_routers() -> int:
    """``TestTrafficGoldens.test_uniform_random_powerpunch_golden`` (== 653)."""
    net = Network(NoCConfig(topology="mesh"), PowerPunchPG())
    traffic = SyntheticTraffic(net, "uniform_random", 0.01, seed=7)
    measure_window(net, traffic, warmup=500, measurement=2000)
    return net.stats.total_blocked_routers


class MeshWorkload:
    workers = 1

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.sizes = (QUICK_SIZES if quick else SIZES)[name]
        self.seed = seed
        self.config = NoCConfig(width=self.sizes.width, height=self.sizes.width)
        self.units = Units()
        self.traces: List[dict] = []
        #: (trace index, scheme) -> (stats fingerprint, total cycles), first pass.
        self.outputs: Dict[Tuple[int, str], Tuple[dict, int]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    # -- set-up ---------------------------------------------------------
    def record_traces(self) -> List[dict]:
        s = self.sizes
        return [
            record_trace(self.config, "uniform_random", s.rate, self.seed * 1000 + k, s.trace_cycles)
            for k in range(s.traces)
        ]

    def setup(self) -> None:
        """Record the traces and build one network per scheme.

        ``replay`` times only injection and stepping, so construction
        cost is paid (and shows) here.
        """
        self.traces = self.record_traces()
        for scheme in self.sizes.schemes:
            Network(self.config, SCHEMES[scheme]())

    def teardown(self) -> None:
        pass

    # -- the work -------------------------------------------------------
    @property
    def cells_per_pass(self) -> int:
        return self.sizes.traces * len(self.sizes.schemes)

    @property
    def cycles_per_pass(self) -> int:
        return sum(cycles for _fp, cycles in self.outputs.values())

    def _accept(self, unit: Tuple[int, str], net: Network, where: str) -> None:
        """Every replay of a unit must do identical simulated work."""
        self.attempted += 1
        seen = (_stats_fingerprint(net), net.cycle)
        first = self.outputs.setdefault(unit, seen)
        if seen != first:
            self.failures.append(f"{self.name}: {where} replay of {unit} diverged from the first")

    def one_pass(self) -> None:
        for k, trace in enumerate(self.traces):
            for scheme in self.sizes.schemes:
                net, elapsed = replay(self.config, scheme, trace, self.sizes.trace_cycles)
                self.units.record((k, scheme), elapsed)
                self._accept((k, scheme), net, "untraced")

    def measure(self, seconds: float) -> None:
        run_passes(self.one_pass, seconds)

    def check(self) -> None:
        """Cross-kernel equality on trace 0, and the golden harness."""
        s = self.sizes
        for kernel in ("naive", "vector"):
            config = NoCConfig(width=s.width, height=s.width, kernel=kernel)
            net, _ = replay(config, GATED, self.traces[0], s.trace_cycles)
            self._accept((0, GATED), net, f"kernel={kernel}")
        self._check_golden()

    def _check_golden(self) -> None:
        if self.sizes.golden:
            self.attempted += 1
            blocked = golden_blocked_routers()
            if blocked != 653:
                self.failures.append(f"golden harness: total_blocked_routers {blocked} != 653")

    def output_digest(self) -> str:
        return digest([[k, scheme, fp, cycles] for (k, scheme), (fp, cycles) in sorted(self.outputs.items())])

    # -- traced run -----------------------------------------------------
    def _traced_replay(self, tracer: Tracer, k: int, scheme: str, kernel: str) -> dict:
        """``repro.bench.replay`` with a clock between its public calls."""
        s = self.sizes
        config = NoCConfig(width=s.width, height=s.width, kernel=kernel)
        trace = self.traces[k]
        with tracer.span("replay", op=f"{k}:{scheme}:{kernel}") as root:
            with tracer.span("noc.build", root["id"], root["op"]):
                net = Network(config, SCHEMES[scheme]())
            begin, end = Stopwatch(), Stopwatch()
            if kernel != "vector":  # the vector engine steps its own policy twins
                net.policy.begin_cycle = begin.wrap(net.policy.begin_cycle)
                net.policy.end_cycle = end.wrap(net.policy.end_cycle)
            interfaces, inject, step = net.interfaces, net.inject, net.step
            inject_busy = step_busy = 0.0
            packets = active_sum = active_samples = 0
            started = perf_counter()
            with tracer.span("noc.trace_window", root["id"], root["op"]) as window:
                for cycle in range(s.trace_cycles):
                    t0 = perf_counter()
                    for event in trace.get(cycle, ()):
                        if event[0] == "inject":
                            _kind, source, dest, vnet, size = event
                            inject(Packet(source, dest, VirtualNetwork(vnet), size, cycle))
                            packets += 1
                        else:
                            interfaces[event[1]].early_notice(cycle)
                    t1 = perf_counter()
                    step()
                    t2 = perf_counter()
                    inject_busy += t1 - t0
                    step_busy += t2 - t1
                    if cycle % ACTIVE_SAMPLE_EVERY == 0:
                        active_sum += len(net.active_routers)
                        active_samples += 1
            with tracer.span("noc.drain", root["id"], root["op"]) as drain:
                net.run_until_drained(500_000)
            elapsed = perf_counter() - started
        tracer.aggregate("noc.inject", window, inject_busy, packets)
        tracer.aggregate("noc.step", window, step_busy, s.trace_cycles)
        tracer.aggregate("core.policy_begin", root, begin.busy, begin.calls)
        tracer.aggregate("core.policy_end", root, end.busy, end.calls)
        return {
            "net": net, "elapsed": elapsed, "packets": packets,
            "step_busy": step_busy, "inject_busy": inject_busy,
            "drain_s": drain["end"] - drain["start"],
            "begin_busy": begin.busy, "end_busy": end.busy, "policy_calls": begin.calls,
            "active_share": active_sum / (active_samples * config.num_nodes),
        }

    def trace(self, tracer: Tracer) -> Dict[str, float]:
        s = self.sizes
        # Untraced reference pass first, then the same replays with spans.
        self.one_pass()
        reference = self.units.pass_totals()[-1]

        with tracer.span("traffic.record") as rec:
            self.traces = self.record_traces()
        trace_packets = sum(1 for t in self.traces for evs in t.values() for e in evs if e[0] == "inject")

        rows: Dict[Tuple[int, str], dict] = {}
        for k in range(s.traces):
            for scheme in s.schemes:
                row = rows[(k, scheme)] = self._traced_replay(tracer, k, scheme, self.config.kernel)
                self._accept((k, scheme), row["net"], "traced")
        kernels = {}
        for kernel in ("naive", "vector"):
            row = kernels[kernel] = self._traced_replay(tracer, 0, GATED, kernel)
            self._accept((0, GATED), row["net"], f"traced kernel={kernel}")
        self._check_golden()

        def total(key, scheme=None):
            return sum(r[key] for (_k, sch), r in rows.items() if scheme in (None, sch))

        def stat(field, scheme=None):
            return sum(getattr(r["net"].stats, field) for (_k, sch), r in rows.items() if scheme in (None, sch))

        gated = [r for (_k, sch), r in rows.items() if sch == GATED]
        gated_cycles = sum(r["net"].cycle for r in gated)
        gated_time = total("step_busy", GATED) + total("drain_s", GATED)
        base_time = total("step_busy", BASELINE) + total("drain_s", BASELINE)
        window_cycles = s.trace_cycles * s.traces
        delivered_gated = stat("delivered", GATED)
        us = 1e6
        return {
            "traffic.record_us_per_cycle": (rec["end"] - rec["start"]) / window_cycles * us,
            "traffic.packets": trace_packets,
            "noc.build_ms": tracer.busy("noc.build") / tracer.calls("noc.build") * 1e3,
            "noc.inject_us_per_packet": total("inject_busy") / total("packets") * us,
            "noc.step_us_per_cycle.active": total("step_busy", GATED) / window_cycles * us,
            "noc.step_us_per_cycle.naive": kernels["naive"]["step_busy"] / s.trace_cycles * us,
            "noc.step_us_per_cycle.vector": kernels["vector"]["step_busy"] / s.trace_cycles * us,
            "noc.step_us_per_cycle.nopg": total("step_busy", BASELINE) / window_cycles * us,
            "noc.us_per_flit_hop": (total("step_busy") + total("drain_s")) / stat("link_traversals") * us,
            "noc.drain_ms": total("drain_s") / len(rows) * 1e3,
            "noc.active_router_share": sum(r["active_share"] for r in gated) / len(gated),
            "noc.delivered_packets": stat("delivered"),
            "noc.flit_hops": stat("link_traversals"),
            "noc.avg_packet_latency_cycles": stat("total_network_latency", GATED) / delivered_gated,
            "noc.drain_cycles": sum(r["net"].cycle - s.trace_cycles for r in rows.values()),
            "core.policy_begin_us_per_cycle": total("begin_busy", GATED) / total("policy_calls", GATED) * us,
            "core.policy_end_us_per_cycle": total("end_busy", GATED) / total("policy_calls", GATED) * us,
            "core.policy_share": (total("begin_busy", GATED) + total("end_busy", GATED)) / gated_time,
            "core.pg_tax_ratio": gated_time / base_time,
            "powergate.off_cycle_share": sum(r["net"].policy.total_off_cycles() for r in gated)
            / (self.config.num_nodes * gated_cycles),
            "powergate.wake_events": sum(r["net"].policy.total_wake_events() for r in gated),
            "powergate.blocked_routers_per_packet": stat("total_blocked_routers", GATED) / delivered_gated,
            "powergate.wakeup_wait_cycles_per_packet": stat("total_wakeup_wait_cycles", GATED) / delivered_gated,
            "trace_overhead_pct": (total("elapsed") / reference - 1.0) * 100.0,
        }
