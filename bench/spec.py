"""Names of the benchmark: workloads, metrics, bounds, and what moves what.

This module is the single place a workload or metric name is spelled;
``BENCHMARK.json`` at the repo root is ``benchmark_json()`` written to
disk (``python3 bench/spec.py`` rewrites it, ``test_bench.py`` checks
the two agree).  It imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 12
#: Pinned default seed: ``expected.json`` digests apply to this seed only.
DEFAULT_SEED = 7
#: Never used while the benchmark was written; a later claim must also
#: hold on it (choosing-metrics guide, section 6.3).
HELD_OUT_SEED = 20150207

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "mesh8_lowload",
        "Paper platform, sparse gated regime: 8x8 mesh at 0.02 flits/node/cycle under all four "
        "schemes; noc step plus core/powergate policy work do all of it, campaign layers none.",
    ),
    (
        "mesh16_highload",
        "Same noc layer used the other way: dense 16x16 at 0.05, active set is nearly every "
        "router; a sparse-case trick that costs the dense case shows here (the vector kernel's only win).",
    ),
    (
        "parsec_suite",
        "Closed loop: system (cores, L1, directory, MCs) + noc + power over 8 PARSEC profiles x 4 "
        "schemes, run inline; kernel tricks that do not survive feedback show here; source of Figs 7-11.",
    ),
    (
        "campaign_cold_pool",
        "24 distinct 0.2 s synthetic cells through execute_cells(workers=2) into an empty cache: "
        "the engine's process pool schedules; mixed cell cost (NoPG 2x faster) makes balance matter.",
    ),
    (
        "campaign_cold_service",
        "The same 24 cells through a pre-started 2-host LocalCluster: leases, steals and TCP "
        "round-trips carry what the pool carries next door; the evidence ROADMAP item 3 asks for.",
    ),
    (
        "campaign_warm",
        "800 stored cells served as 100 % cache hits: hash + store lookup + decode, zero "
        "simulation; anything added to the content address or the store is paid here and nowhere else.",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

MESH = ("mesh8_lowload", "mesh16_highload")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    doc: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: The end-to-end metric this layer metric should move ...
    moves: str
    #: ... and the workloads whose traced run measures it (0 elsewhere).
    on: Tuple[str, ...]
    doc: str
    #: Simulated quantity: repeats exactly for a fixed seed.
    simulated: bool = False


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "Host time to get ready to measure: interpreter start + imports (fresh subprocess) plus "
        "the workload's own set-up (code_salt, trace recording, Network builds, cell declaration, "
        "cluster start, store fill); median of 3 set-ups per run.",
    ),
    EndToEnd(
        "cells_per_s", "1/s", "higher", 0.25,
        "Simulations completed (or served from the store) per host second; a cell is one trace "
        "replay on mesh*, one run_cell elsewhere.  cells per pass / sum over units of the best "
        "time of that unit across passes.",
    ),
    EndToEnd(
        "sim_cycles_per_s", "1/s", "higher", 0.25,
        "Simulated network cycles produced (campaign_warm: served) per host second, same "
        "estimator as cells_per_s.",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "Peak resident set of the benchmark process plus its largest child (ru_maxrss).",
    ),
)


def _layer(layer: str, moves: str, on: Tuple[str, ...], rows) -> List[PerLayer]:
    return [
        PerLayer(name, unit, better, layer, moves, on, doc, simulated)
        for name, unit, better, doc, simulated in rows
    ]


H, L = "higher", "lower"

PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layer("traffic", "setup_s", MESH, [
        ("traffic.record_us_per_cycle", "us", L, "record_trace host time per recorded cycle", False),
        ("traffic.packets", "count", H, "packets in the recorded traces of one pass", True),
    ])
    + _layer("noc", "setup_s", MESH, [
        ("noc.build_ms", "ms", L, "Network(config, scheme) construction, mean over schemes", False),
    ])
    + _layer("noc", "sim_cycles_per_s", MESH, [
        ("noc.inject_us_per_packet", "us", L, "Packet() + Network.inject per injected packet", False),
        ("noc.step_us_per_cycle.active", "us", L, "Network.step under PowerPunchPG, default kernel", False),
        ("noc.step_us_per_cycle.naive", "us", L, "same trace and scheme, kernel='naive'", False),
        ("noc.step_us_per_cycle.vector", "us", L, "same trace and scheme, kernel='vector'", False),
        ("noc.step_us_per_cycle.nopg", "us", L, "Network.step under NoPG: the shared per-hop substrate", False),
        ("noc.us_per_flit_hop", "us", L, "step time per link traversal (host time per simulated event)", False),
        ("noc.drain_ms", "ms", L, "run_until_drained after the trace ends, mean per replay", False),
        ("noc.active_router_share", "ratio", L, "sampled len(net.active_routers) / routers, PowerPunchPG", True),
        ("noc.delivered_packets", "count", H, "packets delivered over one pass", True),
        ("noc.flit_hops", "count", H, "link traversals over one pass", True),
        ("noc.avg_packet_latency_cycles", "cycles", L, "mean network latency, PowerPunchPG replays", True),
        ("noc.drain_cycles", "cycles", L, "cycles past the trace end until drained, summed over one pass", True),
    ])
    + _layer("core+powergate", "sim_cycles_per_s", MESH, [
        ("core.policy_begin_us_per_cycle", "us", L, "net.policy.begin_cycle under PowerPunchPG", False),
        ("core.policy_end_us_per_cycle", "us", L, "net.policy.end_cycle under PowerPunchPG", False),
        ("core.policy_share", "ratio", L, "(begin + end) / step time under PowerPunchPG", False),
        ("core.pg_tax_ratio", "ratio", L, "PowerPunchPG step time / NoPG step time, same traces", False),
        ("powergate.off_cycle_share", "ratio", H, "router-cycles gated off / router-cycles, PowerPunchPG", True),
        ("powergate.wake_events", "count", L, "wake events over the PowerPunchPG replays", True),
        ("powergate.blocked_routers_per_packet", "ratio", L, "PowerPunchPG, per delivered packet", True),
        ("powergate.wakeup_wait_cycles_per_packet", "cycles", L, "PowerPunchPG, per delivered packet", True),
    ])
    + _layer("system", "cells_per_s", ("parsec_suite",), [
        ("system.chip_build_ms", "ms", L, "Chip() construction incl. cache warm-up, mean per cell", False),
        ("system.self_us_per_cycle", "us", L, "Chip.run span minus the wrapped network.step spans", False),
        ("system.noc_share", "ratio", L, "network.step time / Chip.run time", False),
    ])
    + _layer("power", "cells_per_s", ("parsec_suite",), [
        ("power.account_ms", "ms", L, "EnergyModel().account(network), mean per cell", False),
    ])
    + _layer("system+noc+power", "cells_per_s", ("parsec_suite",), [
        ("model_err.latency_penalty_pp", "pp", L, "|PowerPunch-PG latency penalty - paper 7.9 %|, points", True),
        ("model_err.exec_penalty_pp", "pp", L, "|PowerPunch-PG execution penalty - paper 0.4 %|, points", True),
        ("model_err.static_saved_pp", "pp", L, "|PowerPunch-PG static energy saved - paper 83 %|, points", True),
    ])
    + _layer("campaign", "setup_s", ("campaign_cold_pool", "campaign_warm"), [
        ("campaign.code_salt_ms", "ms", L, "code_salt() with its cache cleared", False),
    ])
    + _layer("campaign", "cells_per_s", ("campaign_warm",), [
        ("campaign.hash_us_per_cell", "us", L, "CellCache.key_for(spec)", False),
        ("campaign.store_get_us_per_cell", "us", L, "CellCache.get(spec) on a hit (hash + read + decode)", False),
        ("campaign.decode_us_per_cell", "us", L, "decode_payload of a stored document", False),
    ])
    + _layer("campaign", "cells_per_s", ("campaign_cold_pool",), [
        ("campaign.store_miss_us_per_cell", "us", L, "CellCache.get(spec) on a miss", False),
        ("campaign.store_put_us_per_cell", "us", L, "CellCache.put(spec, payload)", False),
        ("campaign.encode_us_per_cell", "us", L, "encode_payload(payload)", False),
        ("campaign.pickle_us_per_cell", "us", L, "pickle round trip of spec + payload (pool transport)", False),
        ("campaign.run_cell_ms.p50", "ms", L, "inline run_cell, median over the pass's cells", False),
        ("campaign.run_cell_ms.p90", "ms", L, "inline run_cell, 90th percentile", False),
        ("campaign.pool_spawn_ms", "ms", L, "ProcessPoolExecutor(2): start, one no-op per worker, shutdown", False),
        ("campaign.pool_overhead_ms_per_cell", "ms", L, "workers x pass wall / cells - mean inline run_cell", False),
    ])
    + _layer("campaign.service", "setup_s", ("campaign_cold_service",), [
        ("campaign.service.cluster_start_ms", "ms", L, "LocalCluster(2).start() until both hosts joined", False),
    ])
    + _layer("campaign.service", "cells_per_s", ("campaign_cold_service",), [
        ("campaign.service.overhead_ms_per_cell", "ms", L, "hosts x pass wall / cells - mean cell time on the hosts", False),
        ("campaign.service.lease_to_result_ms.p50", "ms", L, "orchestrator lease -> result, median", False),
        ("campaign.service.lease_to_result_ms.p90", "ms", L, "orchestrator lease -> result, 90th percentile", False),
        ("campaign.service.steal_share", "ratio", L, "steals / leases in one healthy pass", False),
        ("campaign.service.host_busy_share", "ratio", H, "cell time on the hosts / (hosts x pass wall)", False),
        ("campaign.service.requeues", "count", L, "requeue events in the traced pass", False),
        ("campaign.service.duplicates", "count", L, "duplicate-result events in the traced pass", False),
        ("campaign.service.warm_us_per_cell", "us", L, "resubmitting the same cells: all orchestrator hits", False),
    ])
    + _layer("bench", "cells_per_s", WORKLOAD_NAMES, [
        ("trace_overhead_pct", "%", L, "traced pass wall / untraced pass wall - 1, same process", False),
    ])
)

E2E_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def benchmark_json() -> Dict[str, object]:
    """The contract document, exactly the keys the driver reads."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def write_benchmark_json(path: Path = BENCHMARK_JSON) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")


if __name__ == "__main__":
    write_benchmark_json()
    print(f"wrote {BENCHMARK_JSON}")
